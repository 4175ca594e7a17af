package pointcloud

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cooper/internal/geom"
)

func TestGridIndexRadius(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: 0.5, Y: 0, Z: 0},
		{X: 2, Y: 0, Z: 0},
		{X: 0, Y: 0.9, Z: 0},
	})
	idx := NewGridIndex(c, 1)
	got := idx.Radius(geom.V3(0, 0, 0), 1)
	sort.Ints(got)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Radius = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Radius = %v, want %v", got, want)
		}
	}
}

func TestGridIndexRadiusMatchesBruteForce(t *testing.T) {
	c := randomCloud(500, 42)
	idx := NewGridIndex(c, 2)
	queries := []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 10, Y: -20, Z: 1}, {X: -49, Y: 49, Z: 0}}
	for _, q := range queries {
		for _, r := range []float64{0.5, 3, 10} {
			got := idx.Radius(q, r)
			var want []int
			for i := 0; i < c.Len(); i++ {
				if c.At(i).Pos().Dist(q) <= r {
					want = append(want, i)
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("Radius(%v, %v): got %d hits, brute force %d", q, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Radius(%v, %v) mismatch at %d", q, r, i)
				}
			}
		}
	}
}

func TestGridIndexNearest(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: 10, Y: 0, Z: 0},
		{X: 0, Y: 10, Z: 0},
	})
	idx := NewGridIndex(c, 1)
	i, d := idx.Nearest(geom.V3(9, 0.5, 0))
	if i != 1 {
		t.Errorf("Nearest index = %d, want 1", i)
	}
	if math.Abs(d-math.Hypot(1, 0.5)) > 1e-12 {
		t.Errorf("Nearest dist = %v", d)
	}
}

func TestGridIndexNearestMatchesBruteForce(t *testing.T) {
	c := randomCloud(300, 43)
	idx := NewGridIndex(c, 1.5)
	queries := []geom.Vec3{{X: 1, Y: 2, Z: 0}, {X: -30, Y: 45, Z: 2}, {X: 60, Y: 60, Z: 0}}
	for _, q := range queries {
		gi, gd := idx.Nearest(q)
		bi, bd := -1, math.Inf(1)
		for i := 0; i < c.Len(); i++ {
			if d := c.At(i).Pos().Dist(q); d < bd {
				bd, bi = d, i
			}
		}
		if gi != bi && math.Abs(gd-bd) > 1e-9 {
			t.Errorf("Nearest(%v) = (%d, %v), brute force (%d, %v)", q, gi, gd, bi, bd)
		}
	}
}

func TestGridIndexNearestWithinMatchesBruteForce(t *testing.T) {
	c := randomCloud(300, 43)
	idx := NewGridIndex(c, 1.5)
	queries := []geom.Vec3{{X: 1, Y: 2, Z: 0}, {X: -30, Y: 45, Z: 2}, {X: 60, Y: 60, Z: 0}, {X: 500, Y: 500, Z: 0}}
	for _, q := range queries {
		for _, r := range []float64{0.5, 1.5, 4} {
			gi, gd := idx.NearestWithin(q, r)
			bi, bd := -1, math.Inf(1)
			for i := 0; i < c.Len(); i++ {
				if d := c.At(i).Pos().Dist(q); d < bd {
					bd, bi = d, i
				}
			}
			if bd <= r {
				// The true nearest is in range: the bounded query must
				// agree with the unbounded answer.
				if gi != bi && math.Abs(gd-bd) > 1e-9 {
					t.Errorf("NearestWithin(%v, %v) = (%d, %v), brute force (%d, %v)", q, r, gi, gd, bi, bd)
				}
			} else if gi >= 0 && gd <= r {
				// Nothing lies within r; cell granularity may surface a
				// slightly farther point but never one claiming d <= r.
				t.Errorf("NearestWithin(%v, %v) = (%d, %v) inside an empty radius", q, r, gi, gd)
			}
		}
	}
}

func TestGridIndexNearestWithinFarQueryReturnsNone(t *testing.T) {
	c := randomCloud(300, 45)
	idx := NewGridIndex(c, 1)
	if i, d := idx.NearestWithin(geom.V3(1e6, 1e6, 1e6), 2); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("far NearestWithin = (%d, %v), want (-1, +Inf)", i, d)
	}
	if i, d := idx.NearestWithin(geom.V3(0, 0, 0), 0); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("zero-radius NearestWithin = (%d, %v), want (-1, +Inf)", i, d)
	}
}

func TestGridIndexEmpty(t *testing.T) {
	idx := NewGridIndex(&Cloud{}, 1)
	if got := idx.Radius(geom.V3(0, 0, 0), 5); got != nil {
		t.Errorf("Radius on empty index = %v", got)
	}
	i, d := idx.Nearest(geom.V3(0, 0, 0))
	if i != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty index = (%d, %v)", i, d)
	}
}

func TestGridIndexZeroRadius(t *testing.T) {
	c := randomCloud(10, 44)
	idx := NewGridIndex(c, 1)
	if got := idx.Radius(geom.V3(0, 0, 0), 0); got != nil {
		t.Errorf("zero radius returned %v", got)
	}
}

// bruteNearest returns the lowest index at the smallest distance from q,
// with the distance computed the way the index computes it.
func bruteNearest(c *Cloud, q geom.Vec3) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range c.pts {
		dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
		if d2 := dx*dx + dy*dy + dz*dz; d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, math.Sqrt(bestD2)
}

// A hit in ring k can lie up to (k+1)·√3 cells away while ring k+2 starts
// (k+1) cells away, so stopping one ring after the first hit misses
// closer points straight along an axis.
func TestGridIndexNearestPastFirstHitRing(t *testing.T) {
	c := FromPoints([]Point{{X: 1.99, Y: 1.99, Z: 1.99}, {X: 0.5, Y: 0.5, Z: 3.0}})
	idx := NewGridIndex(c, 1)
	q := geom.V3(0.5, 0.5, 0.5)
	if i, d := idx.Nearest(q); i != 1 || d != 2.5 {
		t.Errorf("Nearest = (%d, %v), want (1, 2.5)", i, d)
	}
	if i, d := idx.NearestWithin(q, 3); i != 1 || d != 2.5 {
		t.Errorf("NearestWithin(q, 3) = (%d, %v), want (1, 2.5)", i, d)
	}
}

func TestGridIndexNearestExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 20; trial++ {
		// Sparse clouds, small cells: the nearest point is typically
		// several rings out, where the old early stop went wrong.
		c := New(0)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			c.AppendXYZR(rng.Float64()*40-20, rng.Float64()*40-20, rng.Float64()*10-5, 0)
		}
		cell := []float64{0.3, 0.5, 1, 2.5}[trial%4]
		idx := NewGridIndex(c, cell)
		for k := 0; k < 200; k++ {
			q := geom.V3(rng.Float64()*50-25, rng.Float64()*50-25, rng.Float64()*14-7)
			bi, bd := bruteNearest(c, q)
			if gi, gd := idx.Nearest(q); gd != bd || !sameDist(c, gi, q, bd) {
				t.Fatalf("cell %v: Nearest(%v) = (%d, %v), brute force (%d, %v)", cell, q, gi, gd, bi, bd)
			}
			r := rng.Float64() * 6
			gi, gd := idx.NearestWithin(q, r)
			if bd <= r && (gd != bd || !sameDist(c, gi, q, bd)) {
				t.Fatalf("cell %v: NearestWithin(%v, %v) = (%d, %v), brute force (%d, %v)", cell, q, r, gi, gd, bi, bd)
			}
			if bd > r && gi >= 0 && gd <= r {
				t.Fatalf("cell %v: NearestWithin(%v, %v) = (%d, %v) inside an empty radius", cell, q, r, gi, gd)
			}
		}
	}
}

// sameDist reports whether point i lies exactly d from q.
func sameDist(c *Cloud, i int, q geom.Vec3, d float64) bool {
	if i < 0 {
		return false
	}
	p := c.pts[i]
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx+dy*dy+dz*dz) == d
}

// TestGridIndexMatchesMapIndex pins the column layout to the per-cell map
// layout it replaced: same Radius indices in the same order, and the same
// NearestWithin answer bit for bit wherever the map layout was exact.
// Coordinates on a 0.25 m lattice share cells and produce exact ties.
func TestGridIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	coord := func(quantized bool, span float64) float64 {
		v := rng.Float64()*2*span - span
		if quantized {
			v = math.Round(v*4) / 4
		}
		return v
	}
	for trial := 0; trial < 24; trial++ {
		quantized := trial%2 == 0
		n := 50 + rng.Intn(400)
		switch {
		case trial < 2:
			n = 0
		case trial < 4:
			n = 1
		}
		c := New(n)
		for i := 0; i < n; i++ {
			c.AppendXYZR(coord(quantized, 6), coord(quantized, 6), coord(quantized, 2), 0)
		}
		for _, cell := range []float64{0.3, 1, 2.5} {
			got, want := NewGridIndex(c, cell), newMapGridIndex(c, cell)
			for k := 0; k < 100; k++ {
				var q geom.Vec3
				if n > 0 && k%4 == 0 {
					q = c.At(rng.Intn(n)).Pos() // exact hit, distance 0
				} else {
					q = geom.V3(coord(quantized, 7), coord(quantized, 7), coord(quantized, 3))
				}
				for _, r := range []float64{0.25 * cell, 0.5, cell, 2 * cell, 3.7} {
					g, w := got.Radius(q, r), want.Radius(q, r)
					if !slices.Equal(g, w) {
						t.Fatalf("n=%d cell %v: Radius(%v, %v) = %v, map index %v", n, cell, q, r, g, w)
					}
				}
				for _, r := range []float64{0.01 * cell, 0.5 * cell, cell} {
					gi, gd := got.NearestWithin(q, r)
					wi, wd := want.NearestWithin(q, r)
					if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
						t.Fatalf("n=%d cell %v: NearestWithin(%v, %v) = (%d, %v), map index (%d, %v)", n, cell, q, r, gi, gd, wi, wd)
					}
				}
			}
		}
	}
}
