package geom

// Transform is a rigid transform: rotation followed by translation,
// p' = R·p + T. This is exactly Eq. 3 of the paper, the operation a
// receiving vehicle applies to a transmitter's point cloud before merging.
type Transform struct {
	R Mat3
	T Vec3
}

// IdentityTransform returns the identity rigid transform.
func IdentityTransform() Transform {
	return Transform{R: Identity3()}
}

// NewTransform builds a rigid transform from IMU Euler angles and a
// translation offset, mirroring Eq. 1 + Eq. 3.
func NewTransform(yaw, pitch, roll float64, t Vec3) Transform {
	return Transform{R: EulerZYX(yaw, pitch, roll), T: t}
}

// Apply maps a point from the source frame into the destination frame.
func (tr Transform) Apply(p Vec3) Vec3 {
	return tr.R.Apply(p).Add(tr.T)
}

// ApplyDir rotates a direction vector without translating it.
func (tr Transform) ApplyDir(d Vec3) Vec3 { return tr.R.Apply(d) }

// Compose returns the transform equivalent to applying other first and then
// tr: (tr ∘ other)(p) = tr(other(p)).
func (tr Transform) Compose(other Transform) Transform {
	return Transform{
		R: tr.R.Mul(other.R),
		T: tr.R.Apply(other.T).Add(tr.T),
	}
}

// Inverse returns the transform that undoes tr.
func (tr Transform) Inverse() Transform {
	rt := tr.R.Transpose()
	return Transform{R: rt, T: rt.Apply(tr.T).Neg()}
}

// AlmostEqual reports whether two transforms agree within eps in every
// rotation entry and translation component.
//
//cooper:deadexport test fixture: the fusion, scene and sim tests compare poses with it
func (tr Transform) AlmostEqual(other Transform, eps float64) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := tr.R[i][j] - other.R[i][j]
			if d < -eps || d > eps {
				return false
			}
		}
	}
	return tr.T.AlmostEqual(other.T, eps)
}
