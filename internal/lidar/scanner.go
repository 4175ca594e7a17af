package lidar

import (
	"math"
	"math/rand"

	"cooper/internal/geom"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
)

// Scan is the result of one full LiDAR revolution.
type Scan struct {
	// Cloud holds the returns in the sensor frame (x forward, y left,
	// z up, origin at the sensor).
	Cloud *pointcloud.Cloud
	// HitsPerObject counts returns per scene ObjectID. Ground hits are
	// not included. The evaluation harness uses this as exact point-
	// support ground truth.
	HitsPerObject map[int]int
	// ObjIDs records, aligned with Cloud order, the scene ObjectID each
	// return came from (-1 for ground). Motion compensation uses it to
	// advance a stale frame's points along their objects' trajectories;
	// the wire codec does not carry it, so only the sensing vehicle —
	// never a receiver — can consult it.
	ObjIDs []int32
}

// Scanner simulates a spinning LiDAR. A Scanner is deterministic for a
// given seed and call sequence; it is not safe for concurrent use.
type Scanner struct {
	cfg     Config
	rng     *rand.Rand
	workers int
}

// NewScanner returns a scanner for the given device configuration. The
// seed fixes the noise sequence so experiments are reproducible.
func NewScanner(cfg Config, seed int64) *Scanner {
	return &Scanner{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetWorkers bounds the goroutines used for the geometric ray-casting
// phase of a scan. Values < 1 select one worker per CPU. The scan output
// is byte-identical at every worker count: ray intersection is pure
// geometry done in parallel, while all noise draws happen in a second,
// strictly sequential phase that consumes the scanner's RNG in fixed ray
// order.
func (s *Scanner) SetWorkers(n int) *Scanner {
	s.workers = n
	return s
}

// SensorTransform returns the transform mapping world coordinates into the
// sensor frame of a LiDAR mounted mountHeight above the given vehicle
// pose. Scan clouds are expressed in exactly this frame.
func SensorTransform(pose geom.Transform, mountHeight float64) geom.Transform {
	inv := pose.Inverse()
	inv.T = inv.T.Sub(geom.V3(0, 0, mountHeight))
	return inv
}

// ScanFrom performs a full revolution from the given sensor pose. The pose
// maps sensor coordinates to world coordinates (its translation is the
// sensor position; MountHeight is added on top of the pose translation).
// Targets and groundZ are in world coordinates. Returned points are in the
// sensor frame, exactly what a real device streams and what vehicles
// exchange in Cooper.
func (s *Scanner) ScanFrom(pose geom.Transform, targets []Target, groundZ float64) Scan {
	origin := pose.Apply(geom.V3(0, 0, s.cfg.MountHeight))
	steps := int(2 * math.Pi / s.cfg.AzimuthStep)
	beams := s.cfg.BeamCount()
	scan := Scan{
		Cloud:         pointcloud.New(steps * beams / 4),
		HitsPerObject: make(map[int]int),
		ObjIDs:        make([]int32, 0, steps*beams/4),
	}
	toSensor := SensorTransform(pose, s.cfg.MountHeight)

	if parallel.Normalize(s.workers) == 1 {
		// Single-worker fast path: the original fused loop, with no
		// staging buffer or second traversal. The two-phase path below
		// produces bit-identical clouds (see TestScanWorkersByteIdentical).
		for step := 0; step < steps; step++ {
			az := float64(step) * s.cfg.AzimuthStep
			cosAz, sinAz := math.Cos(az), math.Sin(az)
			for _, el := range s.cfg.BeamElevations {
				cosEl, sinEl := math.Cos(el), math.Sin(el)
				dirSensor := geom.Vec3{X: cosEl * cosAz, Y: cosEl * sinAz, Z: sinEl}
				ray := Ray{Origin: origin, Dir: pose.ApplyDir(dirSensor)}
				t, idx, ok := nearestHit(ray, targets, groundZ, s.cfg.MaxRange)
				if !ok {
					continue
				}
				s.applySensorModel(&scan, ray, t, idx, toSensor, targets)
			}
		}
		return scan
	}

	// Phase 1 — geometry. Ray/target intersection dominates scan cost and
	// is pure, so it fans out across azimuth steps; each step writes only
	// its own row of the hit buffer.
	type rayHit struct {
		t   float64
		dir geom.Vec3
		idx int32
		ok  bool
	}
	cast := make([]rayHit, steps*beams)
	parallel.For(s.workers, steps, func(step int) {
		az := float64(step) * s.cfg.AzimuthStep
		cosAz, sinAz := math.Cos(az), math.Sin(az)
		for b, el := range s.cfg.BeamElevations {
			cosEl, sinEl := math.Cos(el), math.Sin(el)
			// Direction in the sensor frame, rotated into the world.
			dirSensor := geom.Vec3{X: cosEl * cosAz, Y: cosEl * sinAz, Z: sinEl}
			dirWorld := pose.ApplyDir(dirSensor)
			ray := Ray{Origin: origin, Dir: dirWorld}

			t, idx, ok := nearestHit(ray, targets, groundZ, s.cfg.MaxRange)
			cast[step*beams+b] = rayHit{t: t, dir: dirWorld, idx: int32(idx), ok: ok}
		}
	})

	// Phase 2 — sensor model. Dropout, range noise and intensity noise
	// consume the scanner's RNG in strict (step, beam) order, so the cloud
	// is byte-identical for any worker count.
	for i := range cast {
		h := &cast[i]
		if !h.ok {
			continue
		}
		s.applySensorModel(&scan, Ray{Origin: origin, Dir: h.dir}, h.t, int(h.idx), toSensor, targets)
	}
	return scan
}

// applySensorModel turns one geometric ray hit into a (possibly dropped)
// cloud point: dropout, range noise, intensity model. It draws from the
// scanner's RNG, so callers must invoke it in fixed ray order.
func (s *Scanner) applySensorModel(scan *Scan, ray Ray, t float64, idx int, toSensor geom.Transform, targets []Target) {
	if t < s.cfg.MinRange {
		return
	}
	if s.cfg.DropoutProb > 0 && s.rng.Float64() < s.cfg.DropoutProb {
		return
	}
	if s.cfg.RangeNoiseStd > 0 {
		t += s.rng.NormFloat64() * s.cfg.RangeNoiseStd
		if t < s.cfg.MinRange {
			return
		}
	}
	hitSensor := toSensor.Apply(ray.At(t))

	refl := groundReflectivity
	objID := -1
	if idx >= 0 {
		refl = targets[idx].Reflectivity
		objID = targets[idx].ObjectID
	}
	// Simple intensity model: surface reflectivity attenuated with range,
	// plus small sensor noise.
	intensity := refl * math.Exp(-t/attenuationLength)
	intensity += s.rng.NormFloat64() * 0.01
	intensity = geom.Clamp(intensity, 0, 1)

	scan.Cloud.AppendXYZR(hitSensor.X, hitSensor.Y, hitSensor.Z, intensity)
	scan.ObjIDs = append(scan.ObjIDs, int32(objID))
	if objID >= 0 {
		scan.HitsPerObject[objID]++
	}
}

const (
	// groundReflectivity approximates asphalt.
	groundReflectivity = 0.25
	// attenuationLength is the e-folding range of the intensity model.
	attenuationLength = 200.0
)
