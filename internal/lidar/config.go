// Package lidar simulates spinning multi-beam LiDAR sensors. It replaces
// the paper's physical Velodyne devices (HDL-64E for the KITTI dataset,
// VLP-16 for the authors' T&J dataset) with a ray-casting model over scene
// geometry: each beam sweeps a full revolution at a fixed azimuth step,
// rays are intersected against oriented boxes and the ground plane with
// proper occlusion, and returns carry range noise and reflectance. The
// phenomena the paper's evaluation depends on — blind zones behind
// obstacles, range-dependent point density, and the ~4× sparsity gap
// between 16-beam and 64-beam devices — all emerge from this geometry.
package lidar

import "cooper/internal/geom"

// Config describes a LiDAR device: its beam elevation table and scan
// parameters.
type Config struct {
	// Name identifies the device model in reports.
	Name string
	// BeamElevations lists each beam's elevation angle in radians,
	// typically ordered bottom to top.
	BeamElevations []float64
	// AzimuthStep is the horizontal angle between consecutive firings in
	// radians. Smaller steps produce denser clouds.
	AzimuthStep float64
	// MinRange and MaxRange bound valid returns, metres.
	MinRange, MaxRange float64
	// RangeNoiseStd is the standard deviation of Gaussian range noise in
	// metres (≈ 2 cm for Velodyne devices).
	RangeNoiseStd float64
	// DropoutProb is the probability that a valid return is lost.
	DropoutProb float64
	// MountHeight is the sensor height above the vehicle origin, metres.
	MountHeight float64
}

// BeamCount returns the number of beams.
func (c Config) BeamCount() int { return len(c.BeamElevations) }

// MaxElevation returns the highest beam elevation in radians — the
// sensor's vertical-FOV ceiling, which the detector uses to recognise
// height-truncated objects.
func (c Config) MaxElevation() float64 {
	top := 0.0
	for i, el := range c.BeamElevations {
		if i == 0 || el > top {
			top = el
		}
	}
	return top
}

// uniformBeams returns n elevations evenly spaced over [lo, hi] degrees.
func uniformBeams(n int, loDeg, hiDeg float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = geom.Deg2Rad((loDeg + hiDeg) / 2)
		return out
	}
	step := (hiDeg - loDeg) / float64(n-1)
	for i := range out {
		out[i] = geom.Deg2Rad(loDeg + float64(i)*step)
	}
	return out
}

// VLP16 returns the configuration of a Velodyne VLP-16 (the paper's T&J
// dataset sensor): 16 beams from -15° to +15°.
func VLP16() Config {
	return Config{
		Name:           "VLP-16",
		BeamElevations: uniformBeams(16, -15, 15),
		AzimuthStep:    geom.Deg2Rad(0.2),
		MinRange:       0.5,
		MaxRange:       100,
		RangeNoiseStd:  0.02,
		DropoutProb:    0.02,
		MountHeight:    1.73,
	}
}

// HDL32 returns the configuration of a Velodyne HDL-32E: 32 beams from
// -30.67° to +10.67°.
func HDL32() Config {
	return Config{
		Name:           "HDL-32E",
		BeamElevations: uniformBeams(32, -30.67, 10.67),
		AzimuthStep:    geom.Deg2Rad(0.2),
		MinRange:       0.5,
		MaxRange:       100,
		RangeNoiseStd:  0.02,
		DropoutProb:    0.02,
		MountHeight:    1.73,
	}
}

// HDL64 returns the configuration of a Velodyne HDL-64E (the KITTI
// sensor): 64 beams from -24.9° to +2°. With the same azimuth step as
// VLP16 it produces 4× the points, matching the paper's observation that
// the T&J data is "4X more sparse" than KITTI's.
func HDL64() Config {
	return Config{
		Name:           "HDL-64E",
		BeamElevations: uniformBeams(64, -24.9, 2),
		AzimuthStep:    geom.Deg2Rad(0.2),
		MinRange:       0.5,
		MaxRange:       120,
		RangeNoiseStd:  0.02,
		DropoutProb:    0.02,
		MountHeight:    1.73,
	}
}
