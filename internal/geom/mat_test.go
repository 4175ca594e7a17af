package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicRotations(t *testing.T) {
	// Rz(90°) maps +x to +y.
	got := RotZ(math.Pi / 2).Apply(V3(1, 0, 0))
	if !got.AlmostEqual(V3(0, 1, 0), 1e-12) {
		t.Errorf("Rz(90°)·x = %v, want (0,1,0)", got)
	}
	// Ry(90°) maps +x to -z.
	got = RotY(math.Pi / 2).Apply(V3(1, 0, 0))
	if !got.AlmostEqual(V3(0, 0, -1), 1e-12) {
		t.Errorf("Ry(90°)·x = %v, want (0,0,-1)", got)
	}
	// Rx(90°) maps +y to +z.
	got = RotX(math.Pi / 2).Apply(V3(0, 1, 0))
	if !got.AlmostEqual(V3(0, 0, 1), 1e-12) {
		t.Errorf("Rx(90°)·y = %v, want (0,0,1)", got)
	}
}

func TestRotationsAreOrthonormal(t *testing.T) {
	f := func(yaw, pitch, roll float64) bool {
		yaw = math.Mod(yaw, math.Pi)
		pitch = math.Mod(pitch, math.Pi)
		roll = math.Mod(roll, math.Pi)
		return isRotation(EulerZYX(yaw, pitch, roll), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEulerZYXComposition(t *testing.T) {
	yaw, pitch, roll := 0.3, -0.2, 0.1
	m := EulerZYX(yaw, pitch, roll)
	expect := RotZ(yaw).Mul(RotY(pitch)).Mul(RotX(roll))
	if m != expect {
		t.Errorf("EulerZYX != Rz·Ry·Rx")
	}
}

func TestEulerAngleExtraction(t *testing.T) {
	cases := []struct{ yaw, pitch, roll float64 }{
		{0, 0, 0},
		{0.5, 0.2, -0.3},
		{-1.2, 0.7, 1.1},
		{3.0, -1.0, -2.9},
	}
	for _, c := range cases {
		m := EulerZYX(c.yaw, c.pitch, c.roll)
		if got := m.Yaw(); math.Abs(WrapAngle(got-c.yaw)) > 1e-9 {
			t.Errorf("Yaw() = %v, want %v", got, c.yaw)
		}
		if got := m.Pitch(); math.Abs(got-c.pitch) > 1e-9 {
			t.Errorf("Pitch() = %v, want %v", got, c.pitch)
		}
		if got := m.Roll(); math.Abs(WrapAngle(got-c.roll)) > 1e-9 {
			t.Errorf("Roll() = %v, want %v", got, c.roll)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	m := EulerZYX(0.4, 0.5, 0.6)
	id := Identity3()
	if m.Mul(id) != m || id.Mul(m) != m {
		t.Error("multiplying by identity changed the matrix")
	}
}

func TestTransposeIsInverseForRotations(t *testing.T) {
	f := func(yaw, pitch, roll float64) bool {
		yaw, pitch, roll = math.Mod(yaw, 3), math.Mod(pitch, 3), math.Mod(roll, 3)
		m := EulerZYX(yaw, pitch, roll)
		p := m.Mul(m.Transpose())
		id := Identity3()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if math.Abs(p[i][j]-id[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminant(t *testing.T) {
	if got := det(Identity3()); got != 1 {
		t.Errorf("det(I) = %v, want 1", got)
	}
	m := Mat3{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	if got := det(m); got != 24 {
		t.Errorf("det(diag(2,3,4)) = %v, want 24", got)
	}
	if got := det(RotZ(1.234)); math.Abs(got-1) > 1e-12 {
		t.Errorf("det(Rz) = %v, want 1", got)
	}
}

func TestRotationPreservesNorm(t *testing.T) {
	f := func(yaw, x, y, z float64) bool {
		yaw = math.Mod(yaw, math.Pi)
		v := V3(math.Mod(x, 1e3), math.Mod(y, 1e3), math.Mod(z, 1e3))
		r := EulerZYX(yaw, 0, 0).Apply(v)
		return math.Abs(r.Norm()-v.Norm()) <= 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsRotationRejectsNonRotations(t *testing.T) {
	scaled := Mat3{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}}
	if isRotation(scaled, 1e-9) {
		t.Error("scaled matrix reported as rotation")
	}
	reflect := Mat3{{-1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if isRotation(reflect, 1e-9) {
		t.Error("reflection reported as rotation (det = -1)")
	}
}
