package geom

// IntersectionAreaBEV returns the ground-plane overlap area of two oriented
// boxes.
func IntersectionAreaBEV(a, b Box) float64 {
	ca := a.CornersBEV()
	cb := b.CornersBEV()
	pa := ensureCCW(Polygon(ca[:]))
	pb := ensureCCW(Polygon(cb[:]))
	inter := IntersectConvex(pa, pb)
	return inter.Area()
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
