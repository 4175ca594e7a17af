package geom

import "math"

// Geometry the tests use as oracles and fixtures. No production path
// needs these, so they live beside the tests rather than in the API.

// aabb is an axis-aligned bounding box described by its two extreme
// corners.
type aabb struct {
	Min, Max Vec3
}

// newAABB returns the axis-aligned box spanning the two given corners,
// normalising the component order.
func newAABB(a, b Vec3) aabb {
	return aabb{
		Min: Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)},
		Max: Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)},
	}
}

func (b aabb) center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

func (b aabb) size() Vec3 { return b.Max.Sub(b.Min) }

func (b aabb) volume() float64 {
	s := b.size()
	if s.X <= 0 || s.Y <= 0 || s.Z <= 0 {
		return 0
	}
	return s.X * s.Y * s.Z
}

func (b aabb) contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

func (b aabb) expand(m float64) aabb {
	d := Vec3{m, m, m}
	return aabb{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

func (b aabb) union(other aabb) aabb {
	return aabb{
		Min: Vec3{math.Min(b.Min.X, other.Min.X), math.Min(b.Min.Y, other.Min.Y), math.Min(b.Min.Z, other.Min.Z)},
		Max: Vec3{math.Max(b.Max.X, other.Max.X), math.Max(b.Max.Y, other.Max.Y), math.Max(b.Max.Z, other.Max.Z)},
	}
}

func (b aabb) intersects(other aabb) bool {
	return b.Min.X <= other.Max.X && b.Max.X >= other.Min.X &&
		b.Min.Y <= other.Max.Y && b.Max.Y >= other.Min.Y &&
		b.Min.Z <= other.Max.Z && b.Max.Z >= other.Min.Z
}

// boxAABB returns the axis-aligned bounding box enclosing an oriented
// box.
func boxAABB(b Box) aabb {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range b.CornersBEV() {
		minX = math.Min(minX, c.X)
		minY = math.Min(minY, c.Y)
		maxX = math.Max(maxX, c.X)
		maxY = math.Max(maxY, c.Y)
	}
	return aabb{
		Min: Vec3{minX, minY, b.BottomZ()},
		Max: Vec3{maxX, maxY, b.TopZ()},
	}
}

// boxCorners returns the eight 3D corners of a box: the four BEV
// corners at the floor height followed by the same four at the roof.
func boxCorners(b Box) [8]Vec3 {
	var out [8]Vec3
	for i, p := range b.CornersBEV() {
		out[i] = Vec3{p.X, p.Y, b.BottomZ()}
		out[i+4] = Vec3{p.X, p.Y, b.TopZ()}
	}
	return out
}

// iou3D is the volumetric intersection-over-union of two upright
// oriented boxes: the BEV overlap times the vertical overlap, divided
// by the union volume. Degenerate boxes yield exactly 0, mirroring
// IoUBEV.
func iou3D(a, b Box) float64 {
	if boxVolume(a) <= 0 || boxVolume(b) <= 0 {
		return 0
	}
	interBEV := IntersectionAreaBEV(a, b)
	if interBEV <= 0 {
		return 0
	}
	dz := math.Min(a.TopZ(), b.TopZ()) - math.Max(a.BottomZ(), b.BottomZ())
	if dz <= 0 {
		return 0
	}
	inter := interBEV * dz
	union := boxVolume(a) + boxVolume(b) - inter
	if union <= 0 {
		return 0
	}
	return Clamp(inter/union, 0, 1)
}

// isRotation reports whether m is orthonormal with determinant +1 up
// to eps.
func isRotation(m Mat3, eps float64) bool {
	p := m.Mul(m.Transpose())
	id := Identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(p[i][j]-id[i][j]) > eps {
				return false
			}
		}
	}
	return math.Abs(det(m)-1) <= eps
}

// cross returns the cross product v × w.
func cross(v, w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// unit returns v normalised to length 1; the zero vector is returned
// unchanged.
func unit(v Vec3) Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// polygonCentroid returns the area centroid of a polygon, falling back
// to the vertex mean for degenerate polygons.
func polygonCentroid(p Polygon) Vec2 {
	if len(p) == 0 {
		return Vec2{}
	}
	var cx, cy, a float64
	for i := 0; i < len(p); i++ {
		j := (i + 1) % len(p)
		cr := p[i].Cross(p[j])
		cx += (p[i].X + p[j].X) * cr
		cy += (p[i].Y + p[j].Y) * cr
		a += cr
	}
	if a == 0 {
		var m Vec2
		for _, v := range p {
			m = m.Add(v)
		}
		return m.Scale(1 / float64(len(p)))
	}
	inv := 1 / (3 * a)
	return Vec2{cx * inv, cy * inv}
}

// boxVolume returns the volume of an oriented box.
func boxVolume(b Box) float64 { return b.Length * b.Width * b.Height }

// det returns the determinant of m.
func det(m Mat3) float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// IntersectConvex returns the intersection of two convex counterclockwise
// polygons by Sutherland–Hodgman clipping, the loop IntersectionAreaBEV
// runs on its fixed buffers.
func IntersectConvex(subject, clip Polygon) Polygon {
	out := subject
	for i := 0; i < len(clip) && len(out) > 0; i++ {
		out = clipAgainstEdge(nil, out, clip[i], clip[(i+1)%len(clip)])
	}
	return out
}
