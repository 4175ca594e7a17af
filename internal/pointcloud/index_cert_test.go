package pointcloud

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
)

// inDomain reports whether point p lies in the cells a scan of rings
// rings around cell c covers.
func inDomain(p Point, c VoxelKey, rings int32, cell float64) bool {
	k := KeyFor(p.X, p.Y, p.Z, cell)
	near := func(a, b int32) bool { return max(int64(a)-int64(b), int64(b)-int64(a)) < int64(rings) }
	return near(k.X, c.X) && near(k.Y, c.Y) && near(k.Z, c.Z)
}

// mixedCloud cycles through the index tests' cloud shapes: walls over
// clutter, 0.25 m lattice ties with duplicates, and a lattice with NaN
// and ±Inf points spliced in.
func mixedCloud(rng *rand.Rand, trial int) *Cloud {
	switch trial % 3 {
	case 0:
		return wallCloud(rng, 300+rng.Intn(700))
	case 1:
		return latticeCloud(rng, 100+rng.Intn(400))
	default:
		return withNonFinite(latticeCloud(rng, 100+rng.Intn(200)))
	}
}

// TestNearestCertificateBound checks the certificate a search leaves in
// its Match: no point the scan covers other than the answer computes a
// squared distance below lb2, on wall-and-clutter clouds, lattice ties
// with duplicates and clouds with non-finite points, at radii under, at
// and over the cell size. The search must still give NearestWithin's
// answer, and at least a quarter of the answers must carry a
// certificate (an exact hit stops the scan early and gets none, and so
// does a tie with a duplicate or an answer past ring 1).
func TestNearestCertificateBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	answered, certified := 0, 0
	for trial := 0; trial < 12; trial++ {
		c := mixedCloud(rng, trial)
		for _, cell := range []float64{0.25, 1} {
			idx := NewGridIndex(c, cell)
			for k := 0; k < 100; k++ {
				var q geom.Vec3
				if k%4 == 0 {
					q = c.At(rng.Intn(c.Len())).Pos() // an exact hit
				} else {
					p := c.At(rng.Intn(c.Len())).Pos()
					q = geom.V3(p.X+(rng.Float64()-0.5)*cell, p.Y+(rng.Float64()-0.5)*cell, p.Z+(rng.Float64()-0.5)*cell)
				}
				for _, f := range []float64{0.5, 1, 2.5} {
					r := f * cell
					var m Match
					gi, gd, reused := idx.NearestWithinFrom(q, r, &m)
					wi, wd := idx.NearestWithin(q, r)
					if reused || gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
						t.Fatalf("trial %d cell %v: NearestWithinFrom(%v, %v) on a zero Match = (%d, %v, %v), NearestWithin (%d, %v)", trial, cell, q, r, gi, gd, reused, wi, wd)
					}
					if gi < 0 {
						continue
					}
					answered++
					if m.lb2 > 0 {
						certified++
					}
					for i := 0; i < c.Len(); i++ {
						p := c.At(i)
						if i == gi || !inDomain(p, m.key, m.rings, cell) {
							continue
						}
						dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
						if d2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz); d2 < m.lb2 {
							t.Fatalf("trial %d cell %v: query %v r %v answers %d with lb2 %v, but point %d computes %v", trial, cell, q, r, gi, m.lb2, i, d2)
						}
					}
				}
			}
		}
	}
	if certified*4 < answered {
		t.Errorf("only %d of %d answers carry a certificate", certified, answered)
	}
}

// TestNearestWithinFromMatchesSearch walks queries through wall,
// lattice and non-finite clouds in steps from a micrometre to half a
// metre, each query passing the slot's Match on, as ICP does: every
// answer must equal NearestWithin's bit for bit, and some must be
// reused.
func TestNearestWithinFromMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	queries, reused := 0, 0
	for trial := 0; trial < 9; trial++ {
		c := mixedCloud(rng, trial)
		for _, cell := range []float64{0.25, 1} {
			idx := NewGridIndex(c, cell)
			for _, f := range []float64{0.5, 1, 2.5} {
				r := f * cell
				for walk := 0; walk < 20; walk++ {
					var m Match
					q := c.At(rng.Intn(c.Len())).Pos()
					for step := 0; step < 30; step++ {
						s := math.Pow(10, -6+rng.Float64()*5.7)
						q = geom.V3(q.X+s*rng.NormFloat64(), q.Y+s*rng.NormFloat64(), q.Z+s*rng.NormFloat64())
						gi, gd, hit := idx.NearestWithinFrom(q, r, &m)
						wi, wd := idx.NearestWithin(q, r)
						if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
							t.Fatalf("trial %d cell %v r %v: NearestWithinFrom(%v) = (%d, %v, reused %v), NearestWithin (%d, %v)", trial, cell, r, q, gi, gd, hit, wi, wd)
						}
						queries++
						if hit {
							reused++
						}
					}
				}
			}
		}
	}
	if reused == 0 {
		t.Fatalf("none of %d queries reused an answer; the walk tests nothing", queries)
	}
}

// TestNearestWithinFromReuseRule runs one reuse step per hand-built case
// at cell 1 and r 1: a first query fills the Match, a second must match
// NearestWithin, and reuse (or not) as the case expects. Each case
// defeats the rule with one of its parts left out: the move |q − q0|,
// the certificate's share from a column the scan skipped on its box, and
// the cell check.
func TestNearestWithinFromReuseRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pts    []Point
		q0, q  geom.Vec3
		reused bool
	}{
		{"small move keeps the answer", []Point{{X: 0.9, Y: 0.5, Z: 0.5}, {X: 0.1, Y: 0.5, Z: 0.5}},
			geom.V3(0.15, 0.5, 0.5), geom.V3(0.16, 0.5, 0.5), true},
		{"a move past the runner-up's reach", []Point{{X: 0.9, Y: 0.5, Z: 0.5}, {X: 0.1, Y: 0.5, Z: 0.5}},
			geom.V3(0.15, 0.5, 0.5), geom.V3(0.8, 0.5, 0.5), false},
		{"a skipped column's point comes closer", []Point{{X: 0.5, Y: 0.5, Z: 0.6}, {X: 1.05, Y: 0.5, Z: 0.5}},
			geom.V3(0.5, 0.5, 0.5), geom.V3(0.95, 0.5, 0.5), false},
		{"a new cell brings a new point in", []Point{{X: 0.5, Y: 0.5, Z: 0.6}, {X: 2.6, Y: 0.5, Z: 0.5}},
			geom.V3(0.4, 0.5, 0.5), geom.V3(2.4, 0.5, 0.5), false},
	} {
		idx := NewGridIndex(FromPoints(tc.pts), 1)
		var m Match
		idx.NearestWithinFrom(tc.q0, 1, &m)
		gi, gd, reused := idx.NearestWithinFrom(tc.q, 1, &m)
		wi, wd := idx.NearestWithin(tc.q, 1)
		if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Errorf("%s: NearestWithinFrom = (%d, %v), NearestWithin (%d, %v)", tc.name, gi, gd, wi, wd)
		}
		if reused != tc.reused {
			t.Errorf("%s: reused %v, want %v", tc.name, reused, tc.reused)
		}
	}
}

// TestNearestWithinFromMargin finds a move that ties the answer with the
// runner-up to within rounding: two points in one cell along a line, the
// query moving from beside the second toward the first, which the scan
// reaches first, so a tie goes to it. In exact arithmetic the move
// equals the certificate; in floats the sum of the answer's distance and
// the move rounds below it, so only the margin keeps the stale answer
// out.
func TestNearestWithinFromMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const y, z = 0.5, 0.5
	d2 := func(a, b float64) float64 { d := a - b; return float64(d * d) }
	for try := 0; try < 200000; try++ {
		xk := 0.6 + 0.35*rng.Float64() // index 0: first in scan order
		xj := 0.05 + 0.3*rng.Float64() // index 1: the first answer
		x0 := xj + 0.1*rng.Float64()
		mid := (xj + xk) / 2
		for _, x := range []float64{mid, math.Nextafter(mid, 1), math.Nextafter(mid, 0)} {
			// The unguarded rule would reuse j, yet the scan returns k.
			if !(math.Sqrt(d2(x, xj))+math.Sqrt(d2(x, x0)) < math.Sqrt(d2(xk, x0))) || d2(x, xk) > d2(x, xj) {
				continue
			}
			idx := NewGridIndex(FromPoints([]Point{{X: xk, Y: y, Z: z}, {X: xj, Y: y, Z: z}}), 1)
			var m Match
			if j, _, _ := idx.NearestWithinFrom(geom.V3(x0, y, z), 1, &m); j != 1 {
				t.Fatalf("construction: the first query answers %d", j)
			}
			q := geom.V3(x, y, z)
			gi, gd, reused := idx.NearestWithinFrom(q, 1, &m)
			wi, wd := idx.NearestWithin(q, 1)
			if wi != 0 {
				t.Fatalf("construction: the scan answers %d at %v", wi, x)
			}
			if gi != wi || gd != wd || reused {
				t.Fatalf("k %v j %v: query %v then %v gives (%d, %v, reused %v), NearestWithin (%d, %v)", xk, xj, x0, x, gi, gd, reused, wi, wd)
			}
			return
		}
	}
	t.Fatal("no rounding tie found; the case tests nothing")
}
