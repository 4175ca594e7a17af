package pointcloud

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

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
				if c.At(i).Pos().Sub(q).Norm() <= r {
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
	i, d := idx.nearestUnbounded(geom.V3(9, 0.5, 0))
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
		gi, gd := idx.nearestUnbounded(q)
		bi, bd := -1, math.Inf(1)
		for i := 0; i < c.Len(); i++ {
			if d := c.At(i).Pos().Sub(q).Norm(); d < bd {
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
				if d := c.At(i).Pos().Sub(q).Norm(); d < bd {
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
	i, d := idx.nearestUnbounded(geom.V3(0, 0, 0))
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
		if d2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz); d2 < bestD2 {
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
	if i, d := idx.nearestUnbounded(q); i != 1 || d != 2.5 {
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
			if gi, gd := idx.nearestUnbounded(q); gd != bd || !sameDist(c, gi, q, bd) {
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
	return math.Sqrt(float64(dx*dx)+float64(dy*dy)+float64(dz*dz)) == d
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

// nearestUnbounded returns the index of the point closest to q and its
// distance, or (-1, +Inf) for an empty index. Among points at the same
// distance it returns the one in the innermost ring of cells around q,
// then the first in x→y→z cell order, then the lowest index.
func (g *GridIndex) nearestUnbounded(q geom.Vec3) (int, float64) {
	// A sparse index can still force thousands of empty ring scans
	// before the first hit.
	const maxRings = 1 << 12
	best, d2, _ := g.nearest(q, KeyFor(q.X, q.Y, q.Z, g.cellSize), maxRings)
	if best < 0 {
		return -1, math.Inf(1)
	}
	return int(g.entries[best].i), math.Sqrt(d2)
}

// wallCloud is n points of two walls over scattered clutter, the shape
// of an NLOS reference cloud.
func wallCloud(rng *rand.Rand, n int) *Cloud {
	c := New(n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			c.AppendXYZR(rng.Float64()*30-15, 6+rng.NormFloat64()*0.03, rng.Float64()*3-1, 0)
		case 1:
			c.AppendXYZR(-10+rng.NormFloat64()*0.03, rng.Float64()*30-15, rng.Float64()*3-1, 0)
		default:
			c.AppendXYZR(rng.Float64()*30-15, rng.Float64()*30-15, rng.Float64()*2-1, 0)
		}
	}
	return c
}

// latticeCloud is n points on a 0.25 m lattice, every tenth a duplicate
// of an earlier point, so distances tie exactly.
func latticeCloud(rng *rand.Rand, n int) *Cloud {
	c := New(n)
	q := func(span float64) float64 { return math.Round((rng.Float64()*2*span-span)*4) / 4 }
	for i := 0; i < n; i++ {
		if i > 0 && i%10 == 0 {
			p := c.At(rng.Intn(i))
			c.AppendXYZR(p.X, p.Y, p.Z, 0)
			continue
		}
		c.AppendXYZR(q(5), q(5), q(2), 0)
	}
	return c
}

// withNonFinite returns c with NaN and ±Inf points spliced in.
func withNonFinite(c *Cloud) *Cloud {
	nan, inf := math.NaN(), math.Inf(1)
	out := New(c.Len() + 6)
	for i := 0; i < c.Len(); i++ {
		if i%40 == 3 {
			out.AppendXYZR(nan, 0, 0, 0)
			out.AppendXYZR(1, -inf, 0.5, 0)
			out.AppendXYZR(inf, inf, nan, 0)
		}
		p := c.At(i)
		out.AppendXYZR(p.X, p.Y, p.Z, 0)
	}
	return out
}

// TestGridIndexMatchesRingScan pins NearestWithin to the ring-by-ring
// scan it replaced, bit for bit: the same index and the same distance on
// wall-and-clutter clouds, lattice ties and duplicates, NaN and ±Inf
// points and queries, and radii well under, at and over the cell size.
// The build must also lay entries out in the same (column, z cell,
// index) order.
func TestGridIndexMatchesRingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	nan, inf := math.NaN(), math.Inf(1)
	odd := []geom.Vec3{
		{X: nan, Y: 0, Z: 0}, {X: 0, Y: nan, Z: 0}, {X: 0, Y: 0, Z: nan},
		{X: inf, Y: 0, Z: 0}, {X: -inf, Y: 1, Z: 0}, {X: 1, Y: 1, Z: inf},
		{X: 0.2, Y: -inf, Z: -inf},
	}
	for trial := 0; trial < 18; trial++ {
		var c *Cloud
		switch trial % 3 {
		case 0:
			c = wallCloud(rng, 200+rng.Intn(800))
		case 1:
			c = latticeCloud(rng, 50+rng.Intn(400))
		default:
			c = withNonFinite(latticeCloud(rng, 100+rng.Intn(200)))
		}
		for _, cell := range []float64{0.25, 0.3, 1, 2.5} {
			got, want := NewGridIndex(c, cell), newRingGridIndex(c, cell)
			if len(got.spans) != len(want.spans) || len(got.entries) != len(want.entries) {
				t.Fatalf("trial %d cell %v: %d columns %d entries, ring scan %d %d", trial, cell, len(got.spans), len(got.entries), len(want.spans), len(want.entries))
			}
			for k, s := range got.spans {
				if s.lo != want.spans[k].lo || s.hi != want.spans[k].hi {
					t.Fatalf("trial %d cell %v: column %d spans [%d, %d), ring scan %v", trial, cell, k, s.lo, s.hi, want.spans[k])
				}
			}
			for k, e := range got.entries {
				if w := want.entries[k]; e.zc != w.zc || e.i != w.i {
					t.Fatalf("trial %d cell %v: entry %d is (z cell %d, point %d), ring scan (%d, %d)", trial, cell, k, e.zc, e.i, w.zc, w.i)
				}
			}
			for k := 0; k < 150; k++ {
				var q geom.Vec3
				switch {
				case k < len(odd):
					q = odd[k]
				case k%3 == 0:
					q = c.At(rng.Intn(c.Len())).Pos() // exact hit or non-finite point
				case trial%3 == 0:
					p := c.At(rng.Intn(c.Len())).Pos()
					q = geom.V3(p.X+rng.Float64()-0.5, p.Y+rng.Float64()-0.5, p.Z+rng.Float64()-0.5)
				default:
					l := func(span float64) float64 { return math.Round((rng.Float64()*2*span-span)*4) / 4 }
					q = geom.V3(l(6), l(6), l(3))
				}
				// Where the int32 conversion of an infinite coordinate
				// saturates, the query lands on key math.MaxInt32, which the
				// ring scan never returns from; a query with an infinite
				// coordinate has no nearest point.
				k := KeyFor(q.X, q.Y, q.Z, cell)
				wrap := k.X == math.MaxInt32 || k.Y == math.MaxInt32
				for _, f := range []float64{0.01, 0.5, 1, 2.5} {
					r := f * cell
					gi, gd := got.NearestWithin(q, r)
					wi, wd := -1, math.Inf(1)
					if !wrap {
						wi, wd = want.NearestWithin(q, r)
					}
					if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
						t.Fatalf("trial %d cell %v: NearestWithin(%v, %v) = (%d, %v), ring scan (%d, %v)", trial, cell, q, r, gi, gd, wi, wd)
					}
				}
			}
		}
	}
}

// TestGridIndexNearestTieOrder pins the pruned scan to the ring scan's
// tie order on hand-built ties at cell 1: a point in the query's own
// cell beats an equally close point in a neighbouring cell, and a
// neighbour column earlier in x→y order beats an equally close point in
// the query's column that ring 0 did not reach.
func TestGridIndexNearestTieOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    geom.Vec3
		pts  []Point
		want int
	}{
		{"own cell beats the cell below it", geom.V3(0.5, 0.5, 0.25), []Point{{X: 0.5, Y: 0.5, Z: -0.25}, {X: 0.5, Y: 0.5, Z: 0.75}}, 1},
		{"earlier column beats the query's column", geom.V3(0.5, 0.5, 0.5), []Point{{X: 0.5, Y: 0.5, Z: 1.5}, {X: -0.5, Y: 0.5, Z: 0.5}}, 1},
		{"earlier column beats the query's column, box corner", geom.V3(0.5, 0.5, 0.5), []Point{{X: 0.5, Y: 0.5, Z: 1.5}, {X: -0.5, Y: 1.5, Z: 1.5}, {X: -0.5, Y: 0.5, Z: 0.5}}, 2},
		{"own cell beats an earlier column", geom.V3(0.25, 0.5, 0.5), []Point{{X: -0.25, Y: 0.5, Z: 0.5}, {X: 0.75, Y: 0.5, Z: 0.5}}, 1},
		{"first of duplicates", geom.V3(0.5, 0.5, 0.5), []Point{{X: 1.5, Y: 0.5, Z: 0.5}, {X: 0.5, Y: 1.5, Z: 0.5}, {X: 0.5, Y: 1.5, Z: 0.5}}, 1},
	} {
		q := tc.q
		c := FromPoints(tc.pts)
		wi, wd := newRingGridIndex(c, 1).NearestWithin(q, 1)
		if wi != tc.want {
			t.Fatalf("%s: ring scan picks %d, the case expects %d", tc.name, wi, tc.want)
		}
		if gi, gd := NewGridIndex(c, 1).NearestWithin(q, 1); gi != wi || gd != wd {
			t.Errorf("%s: NearestWithin = (%d, %v), ring scan (%d, %v)", tc.name, gi, gd, wi, wd)
		}
	}
}

// TestGridIndexPruneUsesPointBounds builds a column whose nearest point
// lies one ulp below the cell's lower x edge as computed in floats
// (x/cell still floors into the cell). A bound taken from the cell edge
// instead of the stored points would put the column exactly at the best
// distance and skip it, returning the farther point.
func TestGridIndexPruneUsesPointBounds(t *testing.T) {
	const cell = 0.1
	var edge, x float64
	for k := 1; k < 1000; k++ {
		edge = float64(k) * cell
		if x = math.Nextafter(edge, 0); math.Floor(x/cell) == float64(k) {
			break
		}
		x = 0
	}
	if x == 0 {
		t.Fatal("no coordinate floors into a cell below its edge")
	}
	const h = 1.0 / 1024
	qx := x - h // the query sits in the next cell down; x is h away
	u := edge - x
	far := qx - (h + u) // in the query's cell, as far as the cell edge
	c := FromPoints([]Point{{X: far, Y: 0.05, Z: 0.05}, {X: x, Y: 0.05, Z: 0.05}})
	q := geom.V3(qx, 0.05, 0.05)
	if KeyFor(far, 0, 0, cell).X != KeyFor(qx, 0, 0, cell).X || KeyFor(x, 0, 0, cell).X != KeyFor(qx, 0, 0, cell).X+1 {
		t.Fatalf("construction: cells %v %v %v", KeyFor(far, 0, 0, cell), KeyFor(qx, 0, 0, cell), KeyFor(x, 0, 0, cell))
	}
	wi, wd := newRingGridIndex(c, cell).NearestWithin(q, cell)
	if wi != 1 {
		t.Fatalf("ring scan picks %d at %v; the case needs the point past the edge", wi, wd)
	}
	if gi, gd := NewGridIndex(c, cell).NearestWithin(q, cell); gi != wi || gd != wd {
		t.Errorf("NearestWithin = (%d, %v), ring scan (%d, %v)", gi, gd, wi, wd)
	}
}

// TestGridIndexKeyLimits queries at the int32 key limits, where int32
// ring loops wrap and never end: every query must return and match
// brute force. Each query also fills a Match and moves by up to 5 cm,
// so answers reused in cells keyed math.MaxInt32 and math.MinInt32 must
// equal the full scan's.
func TestGridIndexKeyLimits(t *testing.T) {
	const top, bot = float64(math.MaxInt32), float64(math.MinInt32)
	pts := []Point{
		{X: top - 0.5, Y: 0.5, Z: 0.5},             // key MaxInt32−1
		{X: top + 0.75, Y: 0.25, Z: 0.6},           // key MaxInt32
		{X: top + 0.1, Y: top + 0.9, Z: top + 0.3}, // MaxInt32 on every axis
		{X: bot + 0.5, Y: bot + 0.5, Z: bot + 0.5}, // key MinInt32
		{X: bot + 1.2, Y: 0.5, Z: 0.5},             // key MinInt32+1
		{X: 0.5, Y: top - 0.2, Z: bot + 0.9},
	}
	c := FromPoints(pts)
	queries := []geom.Vec3{
		{X: top + 0.25, Y: 0.5, Z: 0},
		{X: top - 0.5, Y: 0.5, Z: 0.5},
		{X: top + 0.5, Y: top + 0.5, Z: top + 0.5},
		{X: bot + 0.25, Y: bot + 0.75, Z: bot + 0.1},
		{X: bot + 0.9, Y: 0.5, Z: 0.5},
		{X: 0.5, Y: top + 0.6, Z: bot + 0.2},
	}
	limitReuses := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, cell := range []float64{1, 2.5} {
			idx := NewGridIndex(c, cell)
			for _, q := range queries {
				bi, bd := bruteNearest(c, q)
				for _, r := range []float64{0.5, 1, 2.5, 4} {
					gi, gd := idx.NearestWithin(q, r)
					if bd <= r && (gd != bd || !sameDist(c, gi, q, bd)) {
						t.Errorf("cell %v: NearestWithin(%v, %v) = (%d, %v), brute force (%d, %v)", cell, q, r, gi, gd, bi, bd)
					}
					if bd > r && gi >= 0 && gd <= r {
						t.Errorf("cell %v: NearestWithin(%v, %v) = (%d, %v) inside an empty radius", cell, q, r, gi, gd)
					}
					var want []int
					for i, p := range pts {
						if dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z; dx*dx+dy*dy+dz*dz <= r*r {
							want = append(want, i)
						}
					}
					got := idx.Radius(q, r)
					sort.Ints(got)
					if !slices.Equal(got, want) {
						t.Errorf("cell %v: Radius(%v, %v) = %v, brute force %v", cell, q, r, got, want)
					}
					var m Match
					idx.NearestWithinFrom(q, r, &m)
					for _, s := range []float64{1e-3, -2e-3, 0.01, -0.05} {
						q2 := geom.V3(q.X+s, q.Y-s/2, q.Z+s/3)
						gi, gd, reused := idx.NearestWithinFrom(q2, r, &m)
						wi, wd := idx.NearestWithin(q2, r)
						if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
							t.Errorf("cell %v r %v: NearestWithinFrom(%v) after %v = (%d, %v, reused %v), NearestWithin (%d, %v)", cell, r, q2, q, gi, gd, reused, wi, wd)
						}
						k := KeyFor(q2.X, q2.Y, q2.Z, cell)
						if reused && (k.X == math.MaxInt32 || k.X == math.MinInt32 || k.Y == math.MaxInt32 || k.Y == math.MinInt32) {
							limitReuses++
						}
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a query at the int32 key limit did not return")
	}
	if limitReuses == 0 {
		t.Error("no answer was reused at a key limit; the reuse half tests nothing")
	}
}
