package geom

import "slices"

// Polygon is a simple 2D polygon with vertices in counterclockwise order.
type Polygon []Vec2

// Area returns the (positive) area of the polygon via the shoelace formula.
// Polygons with clockwise winding yield the same positive area.
func (p Polygon) Area() float64 {
	if len(p) < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < len(p); i++ {
		j := (i + 1) % len(p)
		sum += p[i].Cross(p[j])
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

// clipAgainstEdge appends to dst the subject polygon clipped by the
// half-plane to the left of the directed edge a→b (Sutherland–Hodgman
// step), and returns the extended dst. The clip polygon must be convex
// and counterclockwise for the full algorithm to be correct.
func clipAgainstEdge(dst, subject Polygon, a, b Vec2) Polygon {
	edge := b.Sub(a)
	inside := func(p Vec2) bool { return edge.Cross(p.Sub(a)) >= 0 }
	intersect := func(p, q Vec2) Vec2 {
		// Solve cross(e, p + t·(q-p) - a) = 0 for t along segment p→q.
		d := q.Sub(p)
		denom := edge.Cross(d)
		if denom == 0 {
			return p
		}
		t := Clamp(edge.Cross(a.Sub(p))/denom, 0, 1)
		return p.Add(d.Scale(t))
	}

	out := dst
	for i := 0; i < len(subject); i++ {
		cur := subject[i]
		prev := subject[(i+len(subject)-1)%len(subject)]
		curIn, prevIn := inside(cur), inside(prev)
		switch {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, intersect(prev, cur), cur)
		case !curIn && prevIn:
			out = append(out, intersect(prev, cur))
		}
	}
	return out
}

// makeCCW gives p counterclockwise winding, reversing it in place unless
// its signed area is non-negative (a NaN area reverses it too).
func makeCCW(p Polygon) {
	sum := 0.0
	for i := 0; i < len(p); i++ {
		j := (i + 1) % len(p)
		sum += p[i].Cross(p[j])
	}
	if sum >= 0 {
		return
	}
	slices.Reverse(p)
}
