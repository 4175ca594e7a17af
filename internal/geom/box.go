package geom

import (
	"fmt"
	"math"
)

// Box is an oriented 3D bounding box: a centre, full edge lengths and a yaw
// rotation about the vertical axis. This is the box parameterisation used
// by KITTI-style 3D object detection (boxes stay upright).
type Box struct {
	Center Vec3 // geometric centre of the box
	// Length is the extent along the box's forward (heading) axis,
	// Width across it, Height vertically. All in metres.
	Length, Width, Height float64
	// Yaw is the heading of the box around the vertical axis, radians.
	Yaw float64
}

// NewBox constructs an oriented box.
func NewBox(center Vec3, length, width, height, yaw float64) Box {
	return Box{Center: center, Length: length, Width: width, Height: height, Yaw: yaw}
}

// BottomZ returns the z coordinate of the box floor.
func (b Box) BottomZ() float64 { return b.Center.Z - b.Height/2 }

// TopZ returns the z coordinate of the box roof.
func (b Box) TopZ() float64 { return b.Center.Z + b.Height/2 }

// CornersBEV returns the box's four ground-plane corners in counterclockwise
// order.
func (b Box) CornersBEV() [4]Vec2 {
	c, s := math.Cos(b.Yaw), math.Sin(b.Yaw)
	hl, hw := b.Length/2, b.Width/2
	// Local corners (forward-left, back-left, back-right, forward-right)
	// chosen so the returned order is counterclockwise for yaw = 0.
	local := [4]Vec2{{hl, hw}, {-hl, hw}, {-hl, -hw}, {hl, -hw}}
	var out [4]Vec2
	for i, p := range local {
		out[i] = Vec2{
			X: b.Center.X + c*p.X - s*p.Y,
			Y: b.Center.Y + s*p.X + c*p.Y,
		}
	}
	return out
}

// Contains reports whether p lies inside the oriented box.
func (b Box) Contains(p Vec3) bool {
	if p.Z < b.BottomZ() || p.Z > b.TopZ() {
		return false
	}
	return b.ContainsBEV(p.XY())
}

// ContainsBEV reports whether the ground-plane projection of the box
// contains q.
func (b Box) ContainsBEV(q Vec2) bool {
	c, s := math.Cos(-b.Yaw), math.Sin(-b.Yaw)
	dx, dy := q.X-b.Center.X, q.Y-b.Center.Y
	lx := c*dx - s*dy
	ly := s*dx + c*dy
	return math.Abs(lx) <= b.Length/2 && math.Abs(ly) <= b.Width/2
}

// Transformed returns the box mapped through a rigid transform. Only the
// yaw component of the rotation is retained (boxes stay upright), which is
// exact for the planar vehicle motions used in the paper.
func (b Box) Transformed(tr Transform) Box {
	out := b
	out.Center = tr.Apply(b.Center)
	out.Yaw = WrapAngle(b.Yaw + tr.R.Yaw())
	return out
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("Box(center=%v lwh=%.2fx%.2fx%.2f yaw=%.1f°)",
		b.Center, b.Length, b.Width, b.Height, Rad2Deg(b.Yaw))
}
