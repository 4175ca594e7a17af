package geom

import (
	"fmt"
	"math"
)

// Mat3 is a 3×3 matrix in row-major order, used for the rotation part of
// rigid transforms.
type Mat3 [3][3]float64

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}
}

// RotZ returns the basic rotation matrix Rz(α): a rotation by α about the
// z axis (Eq. 1 of the paper).
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}
}

// RotY returns the basic rotation matrix Ry(β): a rotation by β about the
// y axis (Eq. 1 of the paper).
func RotY(b float64) Mat3 {
	c, s := math.Cos(b), math.Sin(b)
	return Mat3{
		{c, 0, s},
		{0, 1, 0},
		{-s, 0, c},
	}
}

// RotX returns the basic rotation matrix Rx(γ): a rotation by γ about the
// x axis (Eq. 1 of the paper).
func RotX(g float64) Mat3 {
	c, s := math.Cos(g), math.Sin(g)
	return Mat3{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}
}

// EulerZYX composes the paper's Eq. 1 rotation R = Rz(yaw)·Ry(pitch)·Rx(roll)
// from IMU angles.
func EulerZYX(yaw, pitch, roll float64) Mat3 {
	return RotZ(yaw).Mul(RotY(pitch)).Mul(RotX(roll))
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[i][0]*n[0][j] + m[i][1]*n[1][j] + m[i][2]*n[2][j]
		}
	}
	return out
}

// Apply returns m·v.
func (m Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		X: m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		Y: m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		Z: m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Transpose returns the transpose of m. For a rotation matrix this is the
// inverse.
func (m Mat3) Transpose() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}

// Yaw extracts the yaw angle (rotation about z) assuming m was built with
// EulerZYX and pitch is not at the ±π/2 gimbal singularity.
func (m Mat3) Yaw() float64 { return math.Atan2(m[1][0], m[0][0]) }

// Pitch extracts the pitch angle assuming a ZYX Euler composition.
func (m Mat3) Pitch() float64 { return math.Asin(Clamp(-m[2][0], -1, 1)) }

// Roll extracts the roll angle assuming a ZYX Euler composition.
func (m Mat3) Roll() float64 { return math.Atan2(m[2][1], m[2][2]) }

// String implements fmt.Stringer.
func (m Mat3) String() string {
	return fmt.Sprintf("[%v %v %v; %v %v %v; %v %v %v]",
		m[0][0], m[0][1], m[0][2],
		m[1][0], m[1][1], m[1][2],
		m[2][0], m[2][1], m[2][2])
}
