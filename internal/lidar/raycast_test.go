package lidar

import (
	"math"
	"testing"
	"testing/quick"

	"cooper/internal/geom"
)

func TestIntersectBoxHeadOn(t *testing.T) {
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, 0)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("head-on ray missed box")
	}
	if math.Abs(tt-8) > 1e-12 {
		t.Errorf("hit at t=%v, want 8 (front face)", tt)
	}
}

func TestIntersectBoxMiss(t *testing.T) {
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, 0)
	cases := []Ray{
		{Origin: geom.V3(0, 0, 1), Dir: geom.V3(-1, 0, 0)},        // away
		{Origin: geom.V3(0, 5, 1), Dir: geom.V3(1, 0, 0)},         // offset
		{Origin: geom.V3(0, 0, 10), Dir: geom.V3(1, 0, 0)},        // above
		{Origin: geom.V3(0, 0, 1), Dir: geom.V3(0, 1, 0)},         // parallel, outside
		{Origin: geom.V3(0, 0, 1), Dir: unit(geom.V3(0.5, 1, 0))}, // angled wide
	}
	for i, r := range cases {
		if _, ok := IntersectBox(r, box); ok {
			t.Errorf("case %d: ray should miss", i)
		}
	}
}

func TestIntersectBoxRotated(t *testing.T) {
	// A box rotated 90°: its length now spans y, width spans x.
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, math.Pi/2)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("ray missed rotated box")
	}
	// Width 2 now faces the ray: front face at x = 10-1 = 9.
	if math.Abs(tt-9) > 1e-12 {
		t.Errorf("hit at t=%v, want 9", tt)
	}
	// A ray offset y=1.8 passes the rotated box's length/2 = 2: hit.
	ray2 := Ray{Origin: geom.V3(0, 1.8, 1), Dir: geom.V3(1, 0, 0)}
	if _, ok := IntersectBox(ray2, box); !ok {
		t.Error("offset ray should hit rotated box (length spans y)")
	}
}

func TestIntersectBoxFromInside(t *testing.T) {
	box := geom.NewBox(geom.V3(0, 0, 1), 4, 4, 4, 0)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("interior ray reported miss")
	}
	if math.Abs(tt-2) > 1e-12 {
		t.Errorf("interior hit at t=%v, want exit at 2", tt)
	}
}

func TestIntersectBoxHitPointOnSurface(t *testing.T) {
	f := func(ox, oy, yaw float64) bool {
		box := geom.NewBox(geom.V3(0, 0, 1), 4.2, 1.8, 1.5, math.Mod(yaw, math.Pi))
		origin := geom.V3(15+math.Mod(ox, 10), math.Mod(oy, 10), 1.2)
		dir := unit(box.Center.Sub(origin))
		tt, ok := IntersectBox(Ray{Origin: origin, Dir: dir}, box)
		if !ok {
			return false // aiming at the centre must hit
		}
		hit := origin.Add(dir.Scale(tt))
		// Hit point must lie on the box boundary: contained in a slightly
		// inflated box but not strictly inside a deflated one.
		inflated := geom.NewBox(box.Center, box.Length+1e-6, box.Width+1e-6, box.Height+1e-6, box.Yaw)
		deflated := geom.NewBox(box.Center, box.Length-1e-6, box.Width-1e-6, box.Height-1e-6, box.Yaw)
		return inflated.Contains(hit) && !deflated.Contains(hit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectGround(t *testing.T) {
	ray := Ray{Origin: geom.V3(0, 0, 2), Dir: unit(geom.V3(1, 0, -1))}
	tt, ok := IntersectGround(ray, 0)
	if !ok {
		t.Fatal("descending ray missed ground")
	}
	hit := ray.At(tt)
	if math.Abs(hit.Z) > 1e-12 || math.Abs(hit.X-2) > 1e-12 {
		t.Errorf("ground hit at %v, want (2,0,0)", hit)
	}

	up := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(0, 0, 1)}
	if _, ok := IntersectGround(up, 0); ok {
		t.Error("ascending ray should miss ground")
	}
	level := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(1, 0, 0)}
	if _, ok := IntersectGround(level, 0); ok {
		t.Error("horizontal ray should miss ground")
	}
}

func TestNearestHitOcclusion(t *testing.T) {
	// Two boxes in line: the nearer one must occlude the farther one.
	near := Target{Box: geom.NewBox(geom.V3(10, 0, 1), 2, 2, 2, 0), Reflectivity: 0.5, ObjectID: 1}
	far := Target{Box: geom.NewBox(geom.V3(20, 0, 1), 2, 2, 2, 0), Reflectivity: 0.5, ObjectID: 2}
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}

	tt, idx, ok := nearestHit(ray, []Target{far, near}, 0, 100)
	if !ok {
		t.Fatal("no hit")
	}
	if idx != 1 {
		t.Errorf("hit target %d, want the nearer box (index 1)", idx)
	}
	if math.Abs(tt-9) > 1e-12 {
		t.Errorf("hit at t=%v, want 9", tt)
	}
}

func TestNearestHitGroundOnly(t *testing.T) {
	ray := Ray{Origin: geom.V3(0, 0, 2), Dir: unit(geom.V3(1, 0, -0.1))}
	_, idx, ok := nearestHit(ray, nil, 0, 100)
	if !ok || idx != -1 {
		t.Errorf("expected ground hit, got idx=%d ok=%v", idx, ok)
	}
}

func TestNearestHitOutOfRange(t *testing.T) {
	box := Target{Box: geom.NewBox(geom.V3(500, 0, 1), 2, 2, 2, 0)}
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	if _, _, ok := nearestHit(ray, []Target{box}, -100, 100); ok {
		t.Error("hit beyond max range should be discarded")
	}
}

// unit returns v normalised to length 1.
func unit(v geom.Vec3) geom.Vec3 { return v.Scale(1 / v.Norm()) }
