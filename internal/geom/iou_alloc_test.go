package geom

import (
	"math"
	"math/rand"
	"testing"
)

// heapIntersectionAreaBEV is IntersectionAreaBEV as it stood when every
// clip step allocated its output polygon: the footprints copied, wound
// counterclockwise, and clipped through IntersectConvex.
func heapIntersectionAreaBEV(a, b Box) float64 {
	ca, cb := a.CornersBEV(), b.CornersBEV()
	pa, pb := append(Polygon(nil), ca[:]...), append(Polygon(nil), cb[:]...)
	makeCCW(pa)
	makeCCW(pb)
	return IntersectConvex(pa, pb).Area()
}

// iouTestBoxes returns box pairs covering overlap, containment,
// disjointness, shared edges, mirrored (clockwise) footprints, zero-area
// boxes and non-finite parameters.
func iouTestBoxes(rng *rand.Rand) [][2]Box {
	pairs := [][2]Box{
		{NewBox(V3(0, 0, 1), 3.9, 1.6, 1.5, 0), NewBox(V3(0, 0, 1), 3.9, 1.6, 1.5, 0)},
		{NewBox(V3(0, 0, 1), 4, 4, 1.5, 0), NewBox(V3(0, 0, 1), 4, 4, 1.5, math.Pi/4)},
		{NewBox(V3(0, 0, 1), 2, 2, 1.5, 0), NewBox(V3(2, 0, 1), 2, 2, 1.5, 0)},
		{NewBox(V3(0, 0, 1), 2, 2, 1.5, 0), NewBox(V3(9, 9, 1), 2, 2, 1.5, 0.3)},
		{NewBox(V3(0, 0, 1), 0, 1.6, 1.5, 0.2), NewBox(V3(0, 0, 1), 3.9, 1.6, 1.5, 0)},
		{NewBox(V3(0, 0, 1), -3.9, 1.6, 1.5, 0.2), NewBox(V3(0.5, 0, 1), 3.9, 1.6, 1.5, 0)},
		{NewBox(V3(math.NaN(), 0, 1), 3.9, 1.6, 1.5, 0), NewBox(V3(0, 0, 1), 3.9, 1.6, 1.5, 0)},
		{NewBox(V3(0, 0, 1), math.Inf(1), 1.6, 1.5, 0), NewBox(V3(0, 0, 1), 3.9, 1.6, 1.5, 0.1)},
	}
	for i := 0; i < 500; i++ {
		box := func() Box {
			return NewBox(V3(rng.Float64()*6-3, rng.Float64()*6-3, 1),
				0.5+rng.Float64()*5, 0.5+rng.Float64()*2, 1.5, rng.Float64()*2*math.Pi)
		}
		a, b := box(), box()
		if i%5 == 0 { // nearly parallel, nearly coincident edges
			b = a
			b.Yaw += (rng.Float64() - 0.5) * 1e-9
			b.Center.X += (rng.Float64() - 0.5) * 1e-9
		}
		pairs = append(pairs, [2]Box{a, b})
	}
	return pairs
}

// TestIntersectionAreaBEVMatchesHeapClip pins IntersectionAreaBEV bit
// for bit to the allocating clip loop, in both argument orders.
func TestIntersectionAreaBEVMatchesHeapClip(t *testing.T) {
	for i, p := range iouTestBoxes(rand.New(rand.NewSource(3))) {
		for _, ab := range [][2]Box{p, {p[1], p[0]}} {
			got, want := IntersectionAreaBEV(ab[0], ab[1]), heapIntersectionAreaBEV(ab[0], ab[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %d: area %v, heap clip %v", i, got, want)
			}
		}
	}
}

// TestIntersectionAreaBEVAllocatesNothing checks that the BEV
// intersection behind every NMS, tracker and evaluation IoU clips on the
// stack.
func TestIntersectionAreaBEVAllocatesNothing(t *testing.T) {
	pairs := iouTestBoxes(rand.New(rand.NewSource(5)))
	sink := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range pairs {
			sink += IntersectionAreaBEV(p[0], p[1]) + IoUBEV(p[1], p[0])
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d intersections, want 0", allocs, 2*len(pairs))
	}
	_ = sink
}
