package scene

import (
	"math"
	"math/rand"
)

// PoseError is one frame's localization error: the offset between where
// a vehicle really is and where its GPS/IMU says it is, plus the yaw
// misestimate. Applying it to a reported pose models drift without
// touching the vehicle's true trajectory (sensing, occlusion and ground
// truth all stay on the true pose — only what goes on the wire lies).
type PoseError struct {
	// X, Y is the planar position error in metres.
	X, Y float64
	// Yaw is the heading error in radians.
	Yaw float64
}

// DriftWalk is the drift walk of the scenario's pose i, seeded
// Seed*1000003 + i*7919 + 11. Every harness that drifts vehicles (the
// episode engine, the hub selftest) takes its walks from here, so a
// (scenario seed, vehicle, frame) coordinate lies the same way in each.
func (s *Scenario) DriftWalk(i int, bound float64, frames int) []PoseError {
	return DriftWalk(s.Seed*1000003+int64(i)*7919+11, bound, frames)
}

// DriftWalk simulates integrated GPS/IMU drift over an episode as a
// seeded bounded random walk: each frame takes a uniform step of up to
// bound/3 per axis and the accumulated error is clamped to ±bound
// metres (yaw steps scale to ≈1° of error per metre of bound). The walk
// starts stepping at frame 0, so even a one-frame episode sees error.
//
// All draws come from one rand.Rand seeded with seed, consumed in frame
// order in a single goroutine — compute a vehicle's walk once up front
// and index into it from workers, never step it concurrently. A bound
// of zero (or no frames) returns a zero walk of the requested length.
func DriftWalk(seed int64, bound float64, frames int) []PoseError {
	if frames < 0 {
		frames = 0
	}
	walk := make([]PoseError, frames)
	if bound <= 0 || frames == 0 {
		return walk
	}
	rng := rand.New(rand.NewSource(seed))
	step := bound / 3
	yawStep := bound * math.Pi / 540 // ≈ (1°/3) per metre of bound
	yawBound := 3 * yawStep
	var e PoseError
	for f := 0; f < frames; f++ {
		e.X = clampAbs(e.X+(rng.Float64()*2-1)*step, bound)
		e.Y = clampAbs(e.Y+(rng.Float64()*2-1)*step, bound)
		e.Yaw = clampAbs(e.Yaw+(rng.Float64()*2-1)*yawStep, yawBound)
		walk[f] = e
	}
	return walk
}

// clampAbs clamps v to [-bound, bound].
func clampAbs(v, bound float64) float64 {
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}
