package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(-4, 5, 0.5)

	if got, want := a.Add(b), V3(-3, 7, 3.5); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := a.Sub(b), V3(5, -3, 2.5); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.Scale(2), V3(2, 4, 6); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := a.Neg(), V3(-1, -2, -3); got != want {
		t.Errorf("Neg = %v, want %v", got, want)
	}
	if got, want := a.Dot(b), 1.0*-4+2*5+3*0.5; got != want {
		t.Errorf("Dot = %v, want %v", got, want)
	}
}

func TestVec3Cross(t *testing.T) {
	x := V3(1, 0, 0)
	y := V3(0, 1, 0)
	z := V3(0, 0, 1)

	if got := cross(x, y); !got.AlmostEqual(z, 1e-12) {
		t.Errorf("x×y = %v, want %v", got, z)
	}
	if got := cross(y, z); !got.AlmostEqual(x, 1e-12) {
		t.Errorf("y×z = %v, want %v", got, x)
	}
	if got := cross(z, x); !got.AlmostEqual(y, 1e-12) {
		t.Errorf("z×x = %v, want %v", got, y)
	}
}

func TestVec3CrossAnticommutative(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(math.Mod(ax, 1e3), math.Mod(ay, 1e3), math.Mod(az, 1e3))
		b := V3(math.Mod(bx, 1e3), math.Mod(by, 1e3), math.Mod(bz, 1e3))
		l := cross(a, b)
		r := cross(b, a).Neg()
		return l.AlmostEqual(r, 1e-9*(1+l.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Keep magnitudes bounded so float error stays proportionate.
		a := V3(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := V3(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := cross(a, b)
		scale := 1 + a.Norm()*b.Norm()
		return math.Abs(c.Dot(a)) <= 1e-6*scale && math.Abs(c.Dot(b)) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3NormAndUnit(t *testing.T) {
	v := V3(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	u := unit(v)
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit().Norm() = %v, want 1", u.Norm())
	}
	if got := unit(Vec3{}); got != (Vec3{}) {
		t.Errorf("zero Unit = %v, want zero", got)
	}
}

func TestVec3Dist(t *testing.T) {
	a, b := V3(1, 1, 1), V3(4, 5, 1)
	if got := a.Sub(b).Norm(); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.DistXY(V3(4, 5, 99)); got != 5 {
		t.Errorf("DistXY = %v, want 5", got)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, -10, 4)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got, want := a.Lerp(b, 0.5), V3(5, -5, 2); got != want {
		t.Errorf("Lerp(0.5) = %v, want %v", got, want)
	}
}

func TestVec2Ops(t *testing.T) {
	a, b := Vec2{1, 2}, Vec2{3, -1}
	if got, want := a.Add(b), (Vec2{4, 1}); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := a.Sub(b), (Vec2{-2, 3}); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.Cross(b), 1.0*-1-2*3; got != want {
		t.Errorf("Cross = %v, want %v", got, want)
	}
	if got, want := V3(7, 8, 9).XY(), (Vec2{7, 8}); got != want {
		t.Errorf("XY = %v, want %v", got, want)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{2 * math.Pi, 0},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi},
		{-math.Pi / 2, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		w := WrapAngle(math.Mod(a, 1e6))
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		d = math.Mod(d, 1e6)
		back := Rad2Deg(Deg2Rad(d))
		return math.Abs(back-d) <= 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
