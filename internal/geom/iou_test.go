package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolygonArea(t *testing.T) {
	square := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if got := square.Area(); got != 4 {
		t.Errorf("square area = %v, want 4", got)
	}
	tri := Polygon{{0, 0}, {4, 0}, {0, 3}}
	if got := tri.Area(); got != 6 {
		t.Errorf("triangle area = %v, want 6", got)
	}
	if got := (Polygon{{0, 0}, {1, 1}}).Area(); got != 0 {
		t.Errorf("degenerate area = %v, want 0", got)
	}
	// Clockwise winding still yields positive area.
	cw := Polygon{{0, 2}, {2, 2}, {2, 0}, {0, 0}}
	if got := cw.Area(); got != 4 {
		t.Errorf("clockwise square area = %v, want 4", got)
	}
}

func TestPolygonCentroid(t *testing.T) {
	square := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := polygonCentroid(square)
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("centroid = %v, want (1,1)", c)
	}
}

func TestIntersectConvexFullOverlap(t *testing.T) {
	a := Polygon{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	b := Polygon{{1, 1}, {3, 1}, {3, 3}, {1, 3}}
	inter := IntersectConvex(b, a)
	if got := inter.Area(); math.Abs(got-4) > 1e-9 {
		t.Errorf("contained intersection area = %v, want 4", got)
	}
}

func TestIntersectConvexPartial(t *testing.T) {
	a := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	b := Polygon{{1, 1}, {3, 1}, {3, 3}, {1, 3}}
	inter := IntersectConvex(a, b)
	if got := inter.Area(); math.Abs(got-1) > 1e-9 {
		t.Errorf("partial intersection area = %v, want 1", got)
	}
}

func TestIntersectConvexDisjoint(t *testing.T) {
	a := Polygon{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	b := Polygon{{5, 5}, {6, 5}, {6, 6}, {5, 6}}
	inter := IntersectConvex(a, b)
	if got := inter.Area(); got != 0 {
		t.Errorf("disjoint intersection area = %v, want 0", got)
	}
}

func TestIoUBEVIdentical(t *testing.T) {
	b := NewBox(V3(3, -2, 1), 3.9, 1.6, 1.56, 0.7)
	if got := IoUBEV(b, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("IoU of identical boxes = %v, want 1", got)
	}
}

func TestIoUBEVKnownOverlap(t *testing.T) {
	a := NewBox(V3(0, 0, 1), 2, 2, 2, 0)
	b := NewBox(V3(1, 0, 1), 2, 2, 2, 0)
	// Overlap 1x2=2, union 4+4-2=6.
	if got := IoUBEV(a, b); math.Abs(got-2.0/6.0) > 1e-9 {
		t.Errorf("IoU = %v, want 1/3", got)
	}
}

func TestIoUBEVRotated(t *testing.T) {
	// Two identical squares, one rotated 45°, same centre: overlap is the
	// regular octagon with area 8·(√2−1) for a 2×2 square.
	a := NewBox(V3(0, 0, 1), 2, 2, 2, 0)
	b := NewBox(V3(0, 0, 1), 2, 2, 2, math.Pi/4)
	inter := IntersectionAreaBEV(a, b)
	want := 8 * (math.Sqrt2 - 1)
	if math.Abs(inter-want) > 1e-9 {
		t.Errorf("rotated overlap = %v, want %v", inter, want)
	}
}

func TestIoUBounds(t *testing.T) {
	f := func(ax, ay, ayaw, bx, by, byaw float64) bool {
		a := NewBox(V3(math.Mod(ax, 20), math.Mod(ay, 20), 1), 3.9, 1.6, 1.56, math.Mod(ayaw, math.Pi))
		b := NewBox(V3(math.Mod(bx, 20), math.Mod(by, 20), 1), 3.9, 1.6, 1.56, math.Mod(byaw, math.Pi))
		bev := IoUBEV(a, b)
		v3d := iou3D(a, b)
		return bev >= 0 && bev <= 1 && v3d >= 0 && v3d <= 1 && v3d <= bev+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIoUSymmetric(t *testing.T) {
	f := func(ax, ay, ayaw, bx, by, byaw float64) bool {
		a := NewBox(V3(math.Mod(ax, 10), math.Mod(ay, 10), 1), 4, 2, 1.5, math.Mod(ayaw, math.Pi))
		b := NewBox(V3(math.Mod(bx, 10), math.Mod(by, 10), 1.2), 4.5, 1.8, 1.4, math.Mod(byaw, math.Pi))
		return math.Abs(IoUBEV(a, b)-IoUBEV(b, a)) <= 1e-9 &&
			math.Abs(iou3D(a, b)-iou3D(b, a)) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIoU3DVerticalSeparation(t *testing.T) {
	a := NewBox(V3(0, 0, 0.75), 4, 2, 1.5, 0)
	b := NewBox(V3(0, 0, 5), 4, 2, 1.5, 0)
	if got := iou3D(a, b); got != 0 {
		t.Errorf("vertically separated IoU3D = %v, want 0", got)
	}
	if got := IoUBEV(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("BEV IoU should ignore height: got %v, want 1", got)
	}
}
