package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAABBBasics(t *testing.T) {
	b := newAABB(V3(1, 5, -1), V3(-1, 2, 3))
	if b.Min != V3(-1, 2, -1) || b.Max != V3(1, 5, 3) {
		t.Fatalf("NewAABB did not normalise corners: %+v", b)
	}
	if got, want := b.center(), V3(0, 3.5, 1); got != want {
		t.Errorf("Center = %v, want %v", got, want)
	}
	if got, want := b.size(), V3(2, 3, 4); got != want {
		t.Errorf("Size = %v, want %v", got, want)
	}
	if got, want := b.volume(), 24.0; got != want {
		t.Errorf("Volume = %v, want %v", got, want)
	}
	if !b.contains(V3(0, 3, 0)) {
		t.Error("Contains missed interior point")
	}
	if b.contains(V3(2, 3, 0)) {
		t.Error("Contains accepted exterior point")
	}
}

func TestAABBUnionIntersects(t *testing.T) {
	a := newAABB(V3(0, 0, 0), V3(2, 2, 2))
	b := newAABB(V3(1, 1, 1), V3(3, 3, 3))
	c := newAABB(V3(5, 5, 5), V3(6, 6, 6))

	if !a.intersects(b) {
		t.Error("a should intersect b")
	}
	if a.intersects(c) {
		t.Error("a should not intersect c")
	}
	u := a.union(c)
	if u.Min != V3(0, 0, 0) || u.Max != V3(6, 6, 6) {
		t.Errorf("Union = %+v", u)
	}
}

func TestAABBExpand(t *testing.T) {
	b := newAABB(V3(0, 0, 0), V3(1, 1, 1)).expand(0.5)
	if b.Min != V3(-0.5, -0.5, -0.5) || b.Max != V3(1.5, 1.5, 1.5) {
		t.Errorf("Expand = %+v", b)
	}
}

func TestBoxCornersAxisAligned(t *testing.T) {
	b := NewBox(V3(0, 0, 1), 4, 2, 2, 0)
	corners := b.CornersBEV()
	want := [4]Vec2{{2, 1}, {-2, 1}, {-2, -1}, {2, -1}}
	for i := range corners {
		if math.Abs(corners[i].X-want[i].X) > 1e-12 || math.Abs(corners[i].Y-want[i].Y) > 1e-12 {
			t.Errorf("corner %d = %v, want %v", i, corners[i], want[i])
		}
	}
}

func TestBoxCornersRotated(t *testing.T) {
	b := NewBox(V3(0, 0, 0), 4, 2, 2, math.Pi/2)
	corners := b.CornersBEV()
	// After a 90° yaw the forward-left corner (2,1) maps to (-1,2).
	if math.Abs(corners[0].X+1) > 1e-12 || math.Abs(corners[0].Y-2) > 1e-12 {
		t.Errorf("rotated corner = %v, want (-1, 2)", corners[0])
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox(V3(10, 5, 1), 4, 2, 2, math.Pi/4)
	if !b.Contains(V3(10, 5, 1)) {
		t.Error("box must contain its centre")
	}
	if b.Contains(V3(10, 5, 3)) {
		t.Error("box contains point above roof")
	}
	// A point along the rotated forward axis, inside length/2.
	fwd := V3(10+1.9*math.Cos(math.Pi/4), 5+1.9*math.Sin(math.Pi/4), 1)
	if !b.Contains(fwd) {
		t.Errorf("box should contain %v along heading", fwd)
	}
	// Same direction but beyond length/2.
	far := V3(10+2.1*math.Cos(math.Pi/4), 5+2.1*math.Sin(math.Pi/4), 1)
	if b.Contains(far) {
		t.Errorf("box should not contain %v", far)
	}
}

func TestBoxCorners3D(t *testing.T) {
	b := NewBox(V3(0, 0, 1), 2, 2, 2, 0)
	corners := boxCorners(b)
	for i := 0; i < 4; i++ {
		if corners[i].Z != 0 {
			t.Errorf("floor corner %d z = %v, want 0", i, corners[i].Z)
		}
		if corners[i+4].Z != 2 {
			t.Errorf("roof corner %d z = %v, want 2", i, corners[i+4].Z)
		}
	}
}

func TestBoxAABBEnclosesCorners(t *testing.T) {
	f := func(cx, cy, yaw, l, w float64) bool {
		b := NewBox(
			V3(math.Mod(cx, 100), math.Mod(cy, 100), 1),
			1+math.Abs(math.Mod(l, 10)),
			1+math.Abs(math.Mod(w, 5)),
			2,
			math.Mod(yaw, math.Pi),
		)
		box := boxAABB(b)
		for _, c := range boxCorners(b) {
			if !box.expand(1e-9).contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxTransformed(t *testing.T) {
	b := NewBox(V3(5, 0, 1), 4, 2, 1.5, 0)
	tr := NewTransform(math.Pi/2, 0, 0, V3(0, 0, 0))
	moved := b.Transformed(tr)
	if !moved.Center.AlmostEqual(V3(0, 5, 1), 1e-12) {
		t.Errorf("Transformed center = %v, want (0,5,1)", moved.Center)
	}
	if math.Abs(moved.Yaw-math.Pi/2) > 1e-12 {
		t.Errorf("Transformed yaw = %v, want π/2", moved.Yaw)
	}
	if moved.Length != b.Length || moved.Width != b.Width || moved.Height != b.Height {
		t.Error("Transformed changed box dimensions")
	}
}

func TestBoxTransformedContainmentInvariant(t *testing.T) {
	// Points inside a box stay inside after both are transformed.
	f := func(yaw, tx, ty float64) bool {
		b := NewBox(V3(3, 2, 1), 4, 2, 2, 0.3)
		tr := NewTransform(math.Mod(yaw, 3), 0, 0, V3(math.Mod(tx, 50), math.Mod(ty, 50), 0))
		inside := []Vec3{b.Center, V3(3.5, 2.2, 1.1), V3(2.1, 1.8, 0.4)}
		for _, p := range inside {
			if !b.Contains(p) {
				continue
			}
			if !b.Transformed(tr).Contains(tr.Apply(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
