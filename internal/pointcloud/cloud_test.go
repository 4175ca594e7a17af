package pointcloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cooper/internal/geom"
)

func randomCloud(n int, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := New(n)
	for i := 0; i < n; i++ {
		c.AppendXYZR(
			rng.Float64()*100-50,
			rng.Float64()*100-50,
			rng.Float64()*4-1,
			rng.Float64(),
		)
	}
	return c
}

func TestCloudZeroValue(t *testing.T) {
	var c Cloud
	if c.Len() != 0 {
		t.Fatal("zero cloud should be empty")
	}
	c.AppendXYZR(1, 2, 3, 0.5)
	if c.Len() != 1 {
		t.Fatal("append on zero value failed")
	}
}

func TestCloudNilLen(t *testing.T) {
	var c *Cloud
	if c.Len() != 0 {
		t.Fatal("nil cloud Len should be 0")
	}
}

func TestFromPointsCopies(t *testing.T) {
	pts := []Point{{X: 1}, {X: 2}}
	c := FromPoints(pts)
	pts[0].X = 99
	if c.At(0).X != 1 {
		t.Error("FromPoints aliased the caller's slice")
	}
}

func TestPointsCopies(t *testing.T) {
	c := FromPoints([]Point{{X: 1}})
	got := c.Points()
	got[0].X = 42
	if c.At(0).X != 1 {
		t.Error("Points returned an aliased slice")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := randomCloud(10, 1)
	d := c.Clone()
	d.AppendXYZR(0, 0, 0, 0)
	if c.Len() == d.Len() {
		t.Error("clone shares backing storage")
	}
}

func TestTransformIdentity(t *testing.T) {
	c := randomCloud(100, 2)
	got := c.Transform(geom.IdentityTransform())
	for i := 0; i < c.Len(); i++ {
		if !got.At(i).Pos().AlmostEqual(c.At(i).Pos(), 1e-12) {
			t.Fatalf("identity transform moved point %d", i)
		}
		if got.At(i).Reflectance != c.At(i).Reflectance {
			t.Fatalf("identity transform changed reflectance %d", i)
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	c := randomCloud(200, 3)
	tr := geom.NewTransform(0.7, 0.1, -0.2, geom.V3(10, -4, 1))
	back := c.Transform(tr).Transform(tr.Inverse())
	for i := 0; i < c.Len(); i++ {
		if !back.At(i).Pos().AlmostEqual(c.At(i).Pos(), 1e-8) {
			t.Fatalf("round trip moved point %d: %v -> %v", i, c.At(i).Pos(), back.At(i).Pos())
		}
	}
}

func TestTransformPreservesPairwiseDistance(t *testing.T) {
	f := func(yaw, tx, ty float64) bool {
		tr := geom.NewTransform(math.Mod(yaw, 3), 0, 0, geom.V3(math.Mod(tx, 100), math.Mod(ty, 100), 0))
		c := randomCloud(20, 4)
		moved := c.Transform(tr)
		for i := 1; i < c.Len(); i++ {
			d0 := c.At(i).Pos().Sub(c.At(0).Pos()).Norm()
			d1 := moved.At(i).Pos().Sub(moved.At(0).Pos()).Norm()
			if math.Abs(d0-d1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeEquation2(t *testing.T) {
	a := FromPoints([]Point{{X: 1}, {X: 2}})
	b := FromPoints([]Point{{X: 3}})
	c := FromPoints([]Point{{X: 4}, {X: 5}})

	m := a.Merge(b, c)
	if m.Len() != 5 {
		t.Fatalf("merged len = %d, want 5", m.Len())
	}
	// The receiver's points come first, preserving Eq. 2's union of
	// receiver coordinates with transformed transmitter coordinates.
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if m.At(i).X != want {
			t.Errorf("point %d X = %v, want %v", i, m.At(i).X, want)
		}
	}
	// Merging must not mutate the inputs.
	if a.Len() != 2 || b.Len() != 1 || c.Len() != 2 {
		t.Error("merge mutated an input cloud")
	}
}

func TestMergeWithNil(t *testing.T) {
	a := FromPoints([]Point{{X: 1}})
	m := a.Merge(nil)
	if m.Len() != 1 {
		t.Fatalf("merge with nil: len = %d, want 1", m.Len())
	}
}

func TestBounds(t *testing.T) {
	c := FromPoints([]Point{{X: -1, Y: 2, Z: 0}, {X: 5, Y: -3, Z: 2}})
	lo, hi, ok := bounds(c)
	if !ok {
		t.Fatal("Bounds on non-empty cloud returned ok=false")
	}
	if lo != geom.V3(-1, -3, 0) || hi != geom.V3(5, 2, 2) {
		t.Errorf("Bounds = %v, %v", lo, hi)
	}
	if _, _, ok := bounds(&Cloud{}); ok {
		t.Error("Bounds on empty cloud returned ok=true")
	}
}

func TestCentroid(t *testing.T) {
	c := FromPoints([]Point{{X: 0, Y: 0, Z: 0}, {X: 2, Y: 4, Z: 6}})
	got, ok := centroid(c)
	if !ok || !got.AlmostEqual(geom.V3(1, 2, 3), 1e-12) {
		t.Errorf("Centroid = %v ok=%v", got, ok)
	}
	if _, ok := centroid(&Cloud{}); ok {
		t.Error("Centroid on empty cloud returned ok=true")
	}
}

func TestCountInBox(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 1},
		{X: 0.5, Y: 0.2, Z: 1},
		{X: 10, Y: 0, Z: 1},
	})
	box := geom.NewBox(geom.V3(0, 0, 1), 2, 2, 2, 0)
	if got := countInBox(c, box); got != 2 {
		t.Errorf("CountInBox = %d, want 2", got)
	}
}

func TestPointRange(t *testing.T) {
	p := Point{X: 3, Y: 4, Z: 0}
	if p.Range() != 5 {
		t.Errorf("Range = %v, want 5", p.Range())
	}
}

func TestMergeExtendsCoverage(t *testing.T) {
	// The core cooperative-perception property at the data level: the
	// merged cloud covers at least the union of both bounding regions.
	a := randomCloud(100, 10)
	b := randomCloud(100, 11).Transform(geom.NewTransform(0, 0, 0, geom.V3(200, 0, 0)))
	m := a.Merge(b)
	loA, hiA, _ := bounds(a)
	loB, hiB, _ := bounds(b)
	loM, hiM, _ := bounds(m)
	wantLo := geom.V3(math.Min(loA.X, loB.X), math.Min(loA.Y, loB.Y), math.Min(loA.Z, loB.Z))
	wantHi := geom.V3(math.Max(hiA.X, hiB.X), math.Max(hiA.Y, hiB.Y), math.Max(hiA.Z, hiB.Z))
	if !loM.AlmostEqual(wantLo, 1e-12) || !hiM.AlmostEqual(wantHi, 1e-12) {
		t.Errorf("merged bounds %v..%v, want %v..%v", loM, hiM, wantLo, wantHi)
	}
}

// bounds returns the axis-aligned bounding box of the cloud as its two
// extreme corners; ok is false for an empty cloud.
func bounds(c *Cloud) (lo, hi geom.Vec3, ok bool) {
	if c.Len() == 0 {
		return lo, hi, false
	}
	lo = geom.V3(math.Inf(1), math.Inf(1), math.Inf(1))
	hi = geom.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	for _, p := range c.pts {
		lo = geom.V3(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
		hi = geom.V3(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
	}
	return lo, hi, true
}

// centroid returns the mean position of the cloud's points; ok is false
// for an empty cloud.
func centroid(c *Cloud) (geom.Vec3, bool) {
	if c.Len() == 0 {
		return geom.Vec3{}, false
	}
	var s geom.Vec3
	for _, p := range c.pts {
		s = s.Add(p.Pos())
	}
	return s.Scale(1 / float64(c.Len())), true
}

// countInBox returns how many points fall inside an oriented box.
func countInBox(c *Cloud, b geom.Box) int {
	return c.Filter(func(p Point) bool { return b.Contains(p.Pos()) }).Len()
}

// TestAppendTransformedMatchesApply pins AppendTransformed (and so
// Transform) to geom.Transform.Apply bit for bit, signed zeros and
// non-finite coordinates included, appending after existing points.
func TestAppendTransformedMatchesApply(t *testing.T) {
	src := randomCloud(200, 5)
	nan, inf := math.NaN(), math.Inf(1)
	src.AppendXYZR(math.Copysign(0, -1), 0, math.Copysign(0, -1), 0.5)
	src.AppendXYZR(nan, 1, 2, 0.1)
	src.AppendXYZR(-inf, inf, 0, 0.9)
	tr := geom.NewTransform(0.7, 0.1, -0.2, geom.V3(10, -4, 1))
	dst := randomCloud(30, 6)
	head := dst.Len()
	dst.AppendTransformed(src, tr)
	if dst.Len() != head+src.Len() {
		t.Fatalf("appended %d points, want %d", dst.Len()-head, src.Len())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < src.Len(); i++ {
		w := tr.Apply(src.At(i).Pos())
		g := dst.At(head + i)
		if !same(g.X, w.X) || !same(g.Y, w.Y) || !same(g.Z, w.Z) || !same(g.Reflectance, src.At(i).Reflectance) {
			t.Fatalf("point %d = %+v, Apply gives %v", i, g, w)
		}
	}
}
