package pointcloud

import (
	"math"
	"testing"

	"cooper/internal/geom"
)

func TestCropAABB(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: 5, Y: 5, Z: 5},
		{X: -1, Y: 0, Z: 0},
	})
	got := cropAABB(c, geom.V3(-0.5, -0.5, -0.5), geom.V3(1, 1, 1))
	if got.Len() != 1 || got.At(0).X != 0 {
		t.Errorf("CropAABB kept %d points", got.Len())
	}
}

func TestCropRange(t *testing.T) {
	c := FromPoints([]Point{
		{X: 1, Y: 0, Z: 0},
		{X: 10, Y: 0, Z: 0},
		{X: 100, Y: 0, Z: 0},
	})
	got := cropRange(c, 5, 50)
	if got.Len() != 1 || got.At(0).X != 10 {
		t.Errorf("CropRange kept wrong points: %+v", got.Points())
	}
}

func TestCropFOVFront120(t *testing.T) {
	// The paper's ROI category 2: a 120° front field of view.
	c := FromPoints([]Point{
		{X: 10, Y: 0, Z: 0},   // dead ahead: keep
		{X: 10, Y: 5, Z: 0},   // ~26.6° left: keep
		{X: 0, Y: 10, Z: 0},   // 90° left: drop
		{X: -10, Y: 0, Z: 0},  // behind: drop
		{X: 5, Y: -8.5, Z: 0}, // ~-59.5°: keep (just inside)
	})
	got := c.CropFOV(0, geom.Deg2Rad(60))
	if got.Len() != 3 {
		t.Errorf("CropFOV kept %d points, want 3", got.Len())
	}
}

func TestCropFOVWrapsAroundPi(t *testing.T) {
	// FOV centred on the rear (π) must keep points straddling the ±π seam.
	c := FromPoints([]Point{
		{X: -10, Y: 0.1, Z: 0},
		{X: -10, Y: -0.1, Z: 0},
		{X: 10, Y: 0, Z: 0},
	})
	got := c.CropFOV(math.Pi, geom.Deg2Rad(30))
	if got.Len() != 2 {
		t.Errorf("rear FOV kept %d points, want 2", got.Len())
	}
}

func TestCropHeight(t *testing.T) {
	c := FromPoints([]Point{{Z: -2}, {Z: 0.5}, {Z: 3}})
	got := cropHeight(c, 0, 2)
	if got.Len() != 1 || got.At(0).Z != 0.5 {
		t.Errorf("CropHeight kept wrong points")
	}
}

func TestEstimateGroundZ(t *testing.T) {
	// 80% ground points at z ≈ -1.7, 20% object points above.
	c := New(1000)
	for i := 0; i < 800; i++ {
		c.AppendXYZR(float64(i), 0, -1.7+0.01*float64(i%3), 0.3)
	}
	for i := 0; i < 200; i++ {
		c.AppendXYZR(float64(i), 2, 0.5, 0.6)
	}
	gz := c.EstimateGroundZ()
	if math.Abs(gz-(-1.7)) > 0.1 {
		t.Errorf("EstimateGroundZ = %v, want ≈ -1.7", gz)
	}
}

func TestEstimateGroundZEmpty(t *testing.T) {
	if got := (&Cloud{}).EstimateGroundZ(); got != 0 {
		t.Errorf("empty EstimateGroundZ = %v, want 0", got)
	}
}

// TestEstimateGroundZEdgeValues feeds the histogram values its range
// test must drop or clamp: NaN, ±Inf, and a z one ulp under the top edge,
// which rounds into a bin past the end. A CPQ1 frame (origin cell −397,
// z cell 647) decodes to exactly that z.
func TestEstimateGroundZEdgeValues(t *testing.T) {
	top := math.Nextafter(5, 0)
	enc := mustEncodeQuantized(t, FromPoints([]Point{{Z: -7.94}, {Z: 4.99}}))
	decoded, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if z := decoded.At(1).Z; z != top {
		t.Fatalf("decoded z = %v, want %v", z, top)
	}
	for _, z := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), top} {
		c := FromPoints([]Point{{Z: -1.7}, {Z: -1.7}, {Z: z}})
		if gz := c.EstimateGroundZ(); math.Abs(gz-(-1.7)) > 0.05 {
			t.Errorf("z %v: EstimateGroundZ = %v, want ≈ -1.7", z, gz)
		}
	}
	// Only the top point is in range, so it lands in the last bin.
	if gz := decoded.EstimateGroundZ(); !(gz > 4.95 && gz < 5) {
		t.Errorf("decoded frame: EstimateGroundZ = %v, want the last bin", gz)
	}
}

func TestRemoveGroundPlane(t *testing.T) {
	c := FromPoints([]Point{
		{Z: -1.7}, {Z: -1.65}, {Z: -0.5}, {Z: 0.4},
	})
	got := c.RemoveGroundPlaneInto(New(0), -1.7, 0.2)
	if got.Len() != 2 {
		t.Errorf("RemoveGroundPlaneInto kept %d points, want 2", got.Len())
	}
}

func TestFilterDoesNotMutate(t *testing.T) {
	c := randomCloud(50, 7)
	before := c.Len()
	_ = c.Filter(func(p Point) bool { return p.X > 0 })
	if c.Len() != before {
		t.Error("Filter mutated the receiver")
	}
}

// cropAABB returns the points inside the axis-aligned box [lo, hi].
func cropAABB(c *Cloud, lo, hi geom.Vec3) *Cloud {
	return c.Filter(func(p Point) bool {
		return p.X >= lo.X && p.X <= hi.X && p.Y >= lo.Y && p.Y <= hi.Y && p.Z >= lo.Z && p.Z <= hi.Z
	})
}

// cropRange returns the points with sensor range in [minR, maxR].
func cropRange(c *Cloud, minR, maxR float64) *Cloud {
	return c.Filter(func(p Point) bool {
		r := p.Range()
		return r >= minR && r <= maxR
	})
}

// cropHeight returns the points with z in [minZ, maxZ].
func cropHeight(c *Cloud, minZ, maxZ float64) *Cloud {
	return c.Filter(func(p Point) bool { return p.Z >= minZ && p.Z <= maxZ })
}
