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

// from returns the column's entries from the first whose z cell is at
// least zlo.
func (g *GridIndex) from(s *colSpan, zlo int64) []gridEntry {
	lo := s.lo
	for lo < s.hi && int64(g.entries[lo].zc) < zlo {
		lo++
	}
	return g.entries[lo:s.hi]
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
			for _, e := range g.from(s, z0) {
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
func (g *GridIndex) NearestWithin(q geom.Vec3, r float64) (int, float64) {
	if r <= 0 {
		return -1, math.Inf(1)
	}
	maxRings := int32(math.Ceil(r/g.cellSize)) + 1
	return g.nearest(q, maxRings)
}

// nearest expands ring by ring up to maxRings (exclusive). Every point in
// ring j lies at least (j-1) cells from q, so the scan stops at the first
// ring that cannot hold a point closer than the best found so far.
func (g *GridIndex) nearest(q geom.Vec3, maxRings int32) (int, float64) {
	if len(g.entries) == 0 {
		return -1, math.Inf(1)
	}
	c := KeyFor(q.X, q.Y, q.Z, g.cellSize)
	best, bestD2 := -1, math.Inf(1)
	for ring := int32(0); ring < maxRings; ring++ {
		if float64(ring-1)*g.cellSize >= math.Sqrt(bestD2) {
			break
		}
		best, bestD2 = g.scanShell(q, c, ring, best, bestD2)
	}
	return best, math.Sqrt(bestD2)
}

// scanShell scans the cells exactly ring cells from c (in the Chebyshev
// sense) in x→y→z order and returns the closer of (best, bestD2) and
// the nearest point found there; an equal distance keeps the old best,
// so a column whose bounding box puts it at or past bestD2 is skipped.
func (g *GridIndex) scanShell(q geom.Vec3, c VoxelKey, ring int32, best int, bestD2 float64) (int, float64) {
	r := int64(ring)
	cx, cy, cz := int64(c.X), int64(c.Y), int64(c.Z)
	zlo, zhi := cz-r, cz+r
	// int64 loop variables: an int32 one would wrap at math.MaxInt32.
	for x := cx - r; x <= cx+r; x++ {
		xEdge := x == cx-r || x == cx+r
		for y := cy - r; y <= cy+r; y++ {
			s := g.column(x, y)
			if s == nil || s.gap2(q) >= bestD2 {
				continue
			}
			// Columns on the XY boundary of the shell contribute every z
			// cell in range; interior columns only the top and bottom.
			edge := xEdge || y == cy-r || y == cy+r
			for _, e := range g.from(s, zlo) {
				zc := int64(e.zc)
				if zc > zhi {
					break
				}
				if !edge && zc != zlo && zc != zhi {
					continue
				}
				if d2 := e.dist2(q); d2 < bestD2 {
					best, bestD2 = int(e.i), d2
				}
			}
		}
	}
	return best, bestD2
}
