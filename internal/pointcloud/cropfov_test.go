package pointcloud_test

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/scene"
)

// atan2FOV is CropFOV's reference predicate, without the prefilter.
func atan2FOV(c *pointcloud.Cloud, centerAz, halfFOV float64) *pointcloud.Cloud {
	return c.Filter(func(p pointcloud.Point) bool {
		return math.Abs(geom.WrapAngle(math.Atan2(p.Y, p.X)-centerAz)) <= halfFOV
	})
}

// fovProbe builds points that stress a front crop of the given half
// angle: random points at every scale, both sides of each boundary ray
// and of the prefilter's margin bands, and every ±0/NaN/±Inf pairing.
func fovProbe(halfFOV float64, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &pointcloud.Cloud{}
	add := func(x, y float64) { c.AppendXYZR(x, y, 0, 0) }
	for i := 0; i < 2000; i++ {
		add(rng.Float64()*100-50, rng.Float64()*100-50)
		scale := math.Ldexp(1, rng.Intn(2100)-1074) // subnormal … ~2^1025
		add((rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale)
	}

	tan := math.Tan(halfFOV)
	xs := []float64{1, 5, 37.3, 1e-3, 1e3, 0x1p-900, 0x1p900, math.Nextafter(0x1p-900, 0), math.Nextafter(0x1p900, math.Inf(1)),
		5e-324, 1e-310, math.SmallestNonzeroFloat64 * 7, 1e300, math.MaxFloat64}
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.Float64()*60, math.Ldexp(rng.Float64(), rng.Intn(2000)-1000))
	}
	for _, x := range xs {
		for _, b := range []float64{x * tan, x * tan * (1 - 1e-9), x * tan * (1 + 1e-9)} {
			for _, y := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
				math.Nextafter(math.Nextafter(b, 0), 0), math.Nextafter(math.Nextafter(b, math.Inf(1)), math.Inf(1))} {
				add(x, y)
				add(x, -y)
				add(-x, y)
			}
		}
	}

	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 5e-324, math.MaxFloat64}
	for _, x := range specials {
		for _, y := range specials {
			add(x, y)
		}
	}
	return c
}

// sameBits reports whether two clouds hold bit-identical points in the
// same order.
func sameBits(a, b *pointcloud.Cloud) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		p, q := a.At(i), b.At(i)
		for _, pair := range [][2]float64{{p.X, q.X}, {p.Y, q.Y}, {p.Z, q.Z}, {p.Reflectance, q.Reflectance}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return false
			}
		}
	}
	return true
}

// TestCropFOVPrefilterMatchesAtan2 pins CropFOV's forward-crop prefilter
// to the plain atan2 predicate, point for point and bit for bit, for
// every half angle a caller passes plus the edges of the prefilter's
// range (and centres that bypass it).
func TestCropFOVPrefilterMatchesAtan2(t *testing.T) {
	halves := []float64{roi.FrontFOVHalfAngle, geom.Deg2Rad(60), geom.Deg2Rad(30), math.Pi / 4,
		1e-3, 1e-5, 1e-300, math.Pi/2 - 1e-3, math.Pi/2 - 1e-6, math.Nextafter(math.Pi/2, 0), math.Pi / 2, 2}
	for _, sc := range scene.AllScenarios() {
		if sc.FrontFOV > 0 {
			halves = append(halves, sc.FrontFOV/2)
		}
	}
	for i, h := range halves {
		cloud := fovProbe(h, int64(i))
		for _, center := range []float64{0, math.Copysign(0, -1), math.Pi, 0.3} {
			got, want := cloud.CropFOV(center, h), atan2FOV(cloud, center, h)
			if !sameBits(got, want) {
				t.Errorf("halfFOV %v centre %v: prefiltered crop kept %d points, atan2 kept %d (or a different order)",
					h, center, got.Len(), want.Len())
			}
		}
	}
}
