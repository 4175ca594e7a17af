package pointcloud

import (
	"math"

	"cooper/internal/geom"
)

// GridIndex is a uniform-grid spatial index over a cloud, supporting
// radius and nearest-neighbour queries. The ICP refinement uses it to
// avoid quadratic neighbour scans.
//
// Cells are cubes of the given size, grouped into XY columns: one voxel
// table probe, keyed VoxelKey{X, Y, 0}, serves a whole column, whose
// points sit contiguously in one shared slice sorted by (z cell, point
// index), each stored with its coordinates so a scan reads memory in
// order. Each column also records the XY bounding box of its points, so
// a nearest query skips a column that cannot hold a point closer than
// the best found so far without walking it. Answers are those of a scan
// that visits cells ring by ring in x→y→z order and points in index
// order.
type GridIndex struct {
	cellSize float64
	cols     voxelTable // XY column → column id
	spans    []colSpan  // column id → its entries
	entries  []gridEntry
}

// colSpan is a column's [lo, hi) range in GridIndex.entries and the
// exact bounding box of the X and Y coordinates stored there. NaN
// coordinates are left out of the box: a NaN point is never nearest.
type colSpan struct {
	lo, hi                 int32
	minX, maxX, minY, maxY float64
}

// gap2 is a lower bound on the squared distance the query computes for
// any non-NaN point of the column. The gaps are differences of stored
// coordinates, and float subtraction and squaring are monotone, so no
// point's dx·dx + dy·dy + dz·dz rounds below it.
func (s *colSpan) gap2(q geom.Vec3) float64 {
	gx, gy := 0.0, 0.0
	if d := s.minX - q.X; d > 0 {
		gx = d
	} else if d := q.X - s.maxX; d > 0 {
		gx = d
	}
	if d := s.minY - q.Y; d > 0 {
		gy = d
	} else if d := q.Y - s.maxY; d > 0 {
		gy = d
	}
	return float64(gx*gx) + float64(gy*gy)
}

// gridEntry is one indexed point: its coordinates, z cell and index.
type gridEntry struct {
	x, y, z float64
	zc      int32
	i       int32
}

// dist2 is the squared distance from e to q. The explicit conversions
// round every product, so no fused multiply-add can take the sum below
// colSpan.gap2.
func (e *gridEntry) dist2(q geom.Vec3) float64 {
	dx, dy, dz := e.x-q.X, e.y-q.Y, e.z-q.Z
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// NewGridIndex indexes the cloud with the given cell size. Choose the cell
// size close to the typical query radius for best performance.
func NewGridIndex(c *Cloud, cellSize float64) *GridIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	n := len(c.pts)
	g := &GridIndex{
		cellSize: cellSize,
		entries:  make([]gridEntry, n),
	}
	g.cols.reset(n/4 + 1)
	// A stable LSD radix sort on (column, z cell): order the point
	// indices by z cell, a byte at a time, then scatter them in that
	// order to their columns, ids in order of first appearance.
	buf := make([]int32, 4*n)
	colOf, zcOf, order, tmp := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	zmin, zmax := int32(math.MaxInt32), int32(math.MinInt32)
	for i, p := range c.pts {
		k := KeyFor(p.X, p.Y, p.Z, cellSize)
		id := g.cols.add(VoxelKey{X: k.X, Y: k.Y})
		if int(id) == len(g.spans) {
			inf := math.Inf(1)
			g.spans = append(g.spans, colSpan{minX: inf, maxX: -inf, minY: inf, maxY: -inf})
		}
		s := &g.spans[id]
		s.hi++
		if p.X < s.minX {
			s.minX = p.X
		}
		if p.X > s.maxX {
			s.maxX = p.X
		}
		if p.Y < s.minY {
			s.minY = p.Y
		}
		if p.Y > s.maxY {
			s.maxY = p.Y
		}
		colOf[i], zcOf[i], order[i] = id, k.Z, int32(i)
		zmin, zmax = min(zmin, k.Z), max(zmax, k.Z)
	}
	span := uint32(int64(zmax) - int64(zmin))
	for shift := uint(0); shift < 32 && span>>shift != 0; shift += 8 {
		var start [257]int32
		for _, i := range order {
			start[(uint32(int64(zcOf[i])-int64(zmin))>>shift)&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, i := range order {
			d := (uint32(int64(zcOf[i])-int64(zmin)) >> shift) & 0xff
			tmp[start[d]] = i
			start[d]++
		}
		order, tmp = tmp, order
	}
	pos := int32(0)
	for id := range g.spans {
		s := &g.spans[id]
		s.lo, s.hi, pos = pos, pos, pos+s.hi
	}
	for _, i := range order {
		p, s := c.pts[i], &g.spans[colOf[i]]
		g.entries[s.hi] = gridEntry{x: p.X, y: p.Y, z: p.Z, zc: zcOf[i], i: i}
		s.hi++
	}
	return g
}

// column returns the span of the XY column (x, y), nil if it is empty or
// lies outside the int32 key range.
func (g *GridIndex) column(x, y int64) *colSpan {
	if x != int64(int32(x)) || y != int64(int32(y)) {
		return nil
	}
	id, ok := g.cols.find(VoxelKey{X: int32(x), Y: int32(y)})
	if !ok {
		return nil
	}
	return &g.spans[id]
}

// from returns the position in g.entries of the column's first entry
// whose z cell is at least zlo.
func (g *GridIndex) from(s *colSpan, zlo int64) int32 {
	lo := s.lo
	for lo < s.hi && int64(g.entries[lo].zc) < zlo {
		lo++
	}
	return lo
}

// Radius returns the indices of all points within r of q.
//
//cooper:deadexport test fixture: the spod clustering baseline (cluster_test.go) gathers neighbours with it
func (g *GridIndex) Radius(q geom.Vec3, r float64) []int {
	if r <= 0 {
		return nil
	}
	var out []int
	r2 := r * r
	x0, x1 := g.cells(q.X, r)
	y0, y1 := g.cells(q.Y, r)
	z0, z1 := g.cells(q.Z, r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			s := g.column(x, y)
			if s == nil {
				continue
			}
			for _, e := range g.entries[g.from(s, z0):s.hi] {
				if int64(e.zc) > z1 {
					break
				}
				dx, dy, dz := e.x-q.X, e.y-q.Y, e.z-q.Z
				if dx*dx+dy*dy+dz*dz <= r2 {
					out = append(out, int(e.i))
				}
			}
		}
	}
	return out
}

// cells returns the cells [lo, hi] that [v−r, v+r] overlaps, clipped to
// the int32 key range (an empty range for NaN). The int64 bounds keep a
// loop over them from wrapping at math.MaxInt32.
func (g *GridIndex) cells(v, r float64) (lo, hi int64) {
	l, h := math.Floor((v-r)/g.cellSize), math.Floor((v+r)/g.cellSize)
	if !(l <= h) {
		return 0, -1
	}
	return int64(max(l, math.MinInt32)), int64(min(h, math.MaxInt32))
}

// NearestWithin returns the closest indexed point whenever one lies
// within r, or (-1, +Inf) when no point lies within the scanned rings.
// Cell granularity can also admit a best that lies farther than r, so
// callers enforcing a strict cutoff must still check the returned
// distance. The scan never expands past the cells that can hold a point within r, so queries far
// from any point cost O(r³/cell³) instead of crawling the whole grid.
//
//cooper:deadexport test fixture: the always-search ICP refinement (fusion's reuse tests) and spod's reprojection test query with it
func (g *GridIndex) NearestWithin(q geom.Vec3, r float64) (int, float64) {
	var m Match
	j, d, _ := g.NearestWithinFrom(q, r, &m)
	return j, d
}

// Match is a NearestWithin answer kept with a certificate, so that a
// later query near it can take the answer without a search. It records
// the query, its cell, the scan's ring count, the answer and lb2: a lower
// bound on the squared distance the scan computed from the query to
// every point it covered other than the answer. The points the scan
// covers depend only on the cell and the ring count. The zero Match
// certifies nothing. A Match belongs to the index that filled it.
type Match struct {
	q     geom.Vec3
	key   VoxelKey
	rings int32
	e     int32   // the answer's position in GridIndex.entries
	lb2   float64 // 0: no certificate
}

// certMargin is the relative slack NearestWithinFrom leaves on a
// certificate. It dwarfs the rounding of every distance involved (a few
// ulps), as CropFOV's prefilter margin does.
const certMargin = 1e-9

// NearestWithinFrom is NearestWithin with m, the previous answer kept for
// the same query slot. When q lies in m's cell, r spans the same rings,
// and the answer j is closer to q than the certificate allows any other
// point to come,
//
//	√dist2(q, j) + |q − m.q| < √lb2 · (1 − certMargin),
//
// it returns j and reports reused: every other point the scan covers
// computed at least lb2 from m.q, so by the triangle inequality it lies
// farther from q than j with room to spare for rounding, and the scan
// would return j, with the same distance bits. Otherwise it searches and
// stores the new answer in m.
func (g *GridIndex) NearestWithinFrom(q geom.Vec3, r float64, m *Match) (j int, d float64, reused bool) {
	if r <= 0 {
		return -1, math.Inf(1), false
	}
	c := KeyFor(q.X, q.Y, q.Z, g.cellSize)
	rings := int32(math.Ceil(r/g.cellSize)) + 1
	if m.lb2 > 0 && c == m.key && rings == m.rings {
		e := &g.entries[m.e]
		dj := e.dist2(q)
		dx, dy, dz := q.X-m.q.X, q.Y-m.q.Y, q.Z-m.q.Z
		if math.Sqrt(dj)+math.Sqrt(dx*dx+dy*dy+dz*dz) < math.Sqrt(m.lb2)*(1-certMargin) {
			return int(e.i), math.Sqrt(dj), true
		}
	}
	best, bestD2, lb2 := g.nearest(q, c, rings)
	*m = Match{q: q, key: c, rings: rings, e: best, lb2: lb2}
	if best < 0 {
		return -1, math.Inf(1), false
	}
	return int(g.entries[best].i), math.Sqrt(bestD2), false
}

// minCert and maxCert clamp a certificate to the range where its error
// analysis holds. Below minCert the squares it vouches for may be
// subnormal, so their rounding is no longer relative; a +Inf bound (every
// other point's square overflowed) vouches only for math.MaxFloat64.
const (
	minCert = 0x1p-900
	maxCert = math.MaxFloat64
)

// nearest expands ring by ring from c, q's cell, up to maxRings
// (exclusive). Every point in ring j lies at least (j-1) cells from q, so
// the scan stops at the first ring that cannot hold a point closer than
// the best found so far. It returns the answer's position in g.entries
// (-1 for none), its squared distance, and the certificate lb2 a Match
// keeps (0 for none).
//
// A scan that stops early leaves rings unscanned, and an answer found
// past ring 1 could be missed by a moved query's scan, whose ring cut-off
// compares cell geometry rather than the computed distances the
// certificate bounds: neither gets a certificate. Below ring 2 the
// cut-off never fires before the answer's ring, since ring 1 stops only
// on a zero best distance and every other point computes farther.
func (g *GridIndex) nearest(q geom.Vec3, c VoxelKey, maxRings int32) (best int32, bestD2, lb2 float64) {
	if len(g.entries) == 0 {
		return -1, math.Inf(1), 0
	}
	best, bestD2, lb2 = -1, math.Inf(1), math.Inf(1)
	at := int32(0) // the ring the answer came from
	for ring := int32(0); ring < maxRings; ring++ {
		if float64(ring-1)*g.cellSize >= math.Sqrt(bestD2) {
			return best, bestD2, 0
		}
		prev := best
		best, bestD2, lb2 = g.scanShell(q, c, ring, best, bestD2, lb2)
		if best != prev {
			at = ring
		}
	}
	if best < 0 || at > 1 || !(lb2 >= minCert) {
		return best, bestD2, 0
	}
	return best, bestD2, min(lb2, maxCert)
}

// scanShell scans the cells exactly ring cells from c (in the Chebyshev
// sense) in x→y→z order and returns the closer of (best, bestD2) and
// the nearest point found there; an equal distance keeps the old best,
// so a column whose bounding box puts it at or past bestD2 is skipped.
// It lowers lb2 to every squared distance it computes or replaces that is
// not the best's, and to the box bound of every column it skips.
func (g *GridIndex) scanShell(q geom.Vec3, c VoxelKey, ring int32, best int32, bestD2, lb2 float64) (int32, float64, float64) {
	r := int64(ring)
	cx, cy, cz := int64(c.X), int64(c.Y), int64(c.Z)
	zlo, zhi := cz-r, cz+r
	// int64 loop variables: an int32 one would wrap at math.MaxInt32.
	for x := cx - r; x <= cx+r; x++ {
		xEdge := x == cx-r || x == cx+r
		for y := cy - r; y <= cy+r; y++ {
			s := g.column(x, y)
			if s == nil {
				continue
			}
			if gap := s.gap2(q); gap >= bestD2 {
				if gap < lb2 {
					lb2 = gap
				}
				continue
			}
			// Columns on the XY boundary of the shell contribute every z
			// cell in range; interior columns only the top and bottom.
			edge := xEdge || y == cy-r || y == cy+r
			lo := g.from(s, zlo)
			es := g.entries[lo:s.hi]
			for k := range es {
				e := &es[k]
				zc := int64(e.zc)
				if zc > zhi {
					break
				}
				if !edge && zc != zlo && zc != zhi {
					continue
				}
				// lb2 never drops below bestD2: every value it takes was
				// at or past the best of its time.
				if d2 := e.dist2(q); d2 < bestD2 {
					lb2, best, bestD2 = bestD2, lo+int32(k), d2
				} else if d2 < lb2 {
					lb2 = d2
				}
			}
		}
	}
	return best, bestD2, lb2
}
