package pointcloud

import (
	"math"

	"cooper/internal/geom"
)

// Filter returns a new cloud containing the points for which keep returns
// true.
func (c *Cloud) Filter(keep func(Point) bool) *Cloud {
	return c.FilterInto(&Cloud{pts: make([]Point, 0, len(c.pts))}, keep)
}

// FilterInto appends the points for which keep returns true into dst
// (reset first) and returns dst, so a reused destination makes filtering
// allocation-free. dst == c filters in place (the write index never
// overtakes the read index).
func (c *Cloud) FilterInto(dst *Cloud, keep func(Point) bool) *Cloud {
	src := c.pts // capture before the reset in case dst == c
	dst.pts = dst.pts[:0]
	for _, p := range src {
		if keep(p) {
			dst.pts = append(dst.pts, p)
		}
	}
	return dst
}

// CropFOV returns the points whose azimuth (angle in the ground plane,
// measured from +x toward +y) lies within ±halfFOV of the given centre
// azimuth. The paper's ROI category 2 exchanges a 120° front field of view,
// i.e. halfFOV = 60°.
//
// A forward-facing crop (centerAz == 0, 0 < halfFOV < π/2) first tries an
// exact prefilter that skips the atan2 for almost every point: x < 0 is
// outside, and for x > 0 the point is inside when |y| ≤ x·tan(halfFOV)
// by a relative margin of 1e-9 and outside when above it by that margin —
// a margin far wider than the rounding of tan, atan2 and the products.
// Points in the thin band between, x == ±0, NaN and magnitudes where the
// products could leave the normal float range fall through to the atan2
// predicate, so the result is bit-identical to it.
func (c *Cloud) CropFOV(centerAz, halfFOV float64) *Cloud {
	inFOV := func(p Point) bool {
		az := math.Atan2(p.Y, p.X)
		return math.Abs(geom.WrapAngle(az-centerAz)) <= halfFOV
	}
	if centerAz != 0 || !(halfFOV > 0 && halfFOV < math.Pi/2) {
		return c.Filter(inFOV)
	}
	// Near 0 and π/2 the margin shrinks toward atan2's own rounding; keep
	// the prefilter to tangents where it stays orders of magnitude wider.
	tan := math.Tan(halfFOV)
	if !(tan >= 0x1p-16 && tan <= 0x1p16) {
		return c.Filter(inFOV)
	}
	inside, outside := tan*(1-1e-9), tan*(1+1e-9)
	return c.Filter(func(p Point) bool {
		switch {
		case p.X < 0:
			return false
		case p.X >= 0x1p-900 && p.X <= 0x1p900:
			ay := math.Abs(p.Y)
			if ay <= p.X*inside {
				return true
			}
			if ay >= p.X*outside {
				return false
			}
		}
		return inFOV(p)
	})
}

// RemoveGroundPlaneInto writes into dst (see FilterInto) the points
// more than tol above the ground plane z = groundZ; use EstimateGroundZ
// to fit the plane from the data.
func (c *Cloud) RemoveGroundPlaneInto(dst *Cloud, groundZ, tol float64) *Cloud {
	return c.FilterInto(dst, func(p Point) bool { return p.Z > groundZ+tol })
}

// EstimateGroundZ estimates the ground height as a low percentile of the
// z distribution over near-range points. It is robust to the cloud
// containing mostly ground (LiDAR scans usually do).
func (c *Cloud) EstimateGroundZ() float64 {
	if c.Len() == 0 {
		return 0
	}
	// Histogram z in 5 cm bins over [-5, +5] m and take the first bin
	// whose cumulative count reaches 10% of the points: a cheap, exact
	// 10th percentile for the clipped range.
	const (
		lo      = -5.0
		hi      = 5.0
		binSize = 0.05
		nBins   = int((hi - lo) / binSize)
	)
	var hist [nBins]int
	counted := 0
	for _, p := range c.pts {
		// Written so NaN fails the range test too.
		if !(p.Z >= lo && p.Z < hi) {
			continue
		}
		// A z a hair under hi can round up to bin nBins.
		hist[min(int((p.Z-lo)/binSize), nBins-1)]++
		counted++
	}
	if counted == 0 {
		return 0
	}
	target := counted / 10
	cum := 0
	for i, h := range hist {
		cum += h
		if cum > target {
			return lo + (float64(i)+0.5)*binSize
		}
	}
	return 0
}
