package geom

// maxClipVertices bounds the vertex count of a quadrilateral clipped by
// four half-planes. A Sutherland–Hodgman step keeps an n-gon's inside
// vertices and adds two edge crossings per run of outside ones; with I
// inside vertices there are at most min(I, n−I) runs, so a step yields at
// most ⌊3n/2⌋ vertices even when rounding breaks convexity:
// 4 → 6 → 9 → 13 → 19.
const maxClipVertices = 19

// IntersectionAreaBEV returns the ground-plane overlap area of two oriented
// boxes. It clips one footprint by the other's four edges, alternating
// between two fixed buffers, so it allocates nothing.
func IntersectionAreaBEV(a, b Box) float64 {
	ca, cb := a.CornersBEV(), b.CornersBEV()
	var bufA, bufB [maxClipVertices]Vec2
	out, next := append(Polygon(bufA[:0]), ca[:]...), Polygon(bufB[:0])
	clip := Polygon(cb[:])
	makeCCW(out)
	makeCCW(clip)
	for i := 0; i < len(clip) && len(out) > 0; i++ {
		next = clipAgainstEdge(next[:0], out, clip[i], clip[(i+1)%len(clip)])
		out, next = next, out
	}
	return out.Area()
}

// IoUBEV returns the bird's-eye-view intersection-over-union of two
// oriented boxes. The result is in [0, 1]. A degenerate (zero-area) box
// overlaps nothing: its IoU is exactly 0, even though polygon clipping
// against its collapsed footprint can report a float-noise sliver.
func IoUBEV(a, b Box) float64 {
	areaA := a.Length * a.Width
	areaB := b.Length * b.Width
	if areaA <= 0 || areaB <= 0 {
		return 0
	}
	inter := IntersectionAreaBEV(a, b)
	if inter <= 0 {
		return 0
	}
	union := areaA + areaB - inter
	if union <= 0 {
		return 0
	}
	return Clamp(inter/union, 0, 1)
}
