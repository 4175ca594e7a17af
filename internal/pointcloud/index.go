package pointcloud

import (
	"math"
	"slices"

	"cooper/internal/geom"
)

// GridIndex is a uniform-grid spatial index over a cloud, supporting
// radius and nearest-neighbour queries. The clustering detector baseline
// and the ICP refinement both use it to avoid quadratic neighbour scans.
//
// Cells are cubes of the given size, grouped into XY columns: one voxel
// table probe, keyed VoxelKey{X, Y, 0}, serves a whole column, whose
// points sit contiguously in one shared slice sorted by (z cell, point
// index), each stored with its coordinates so a scan reads memory in
// order. Queries visit cells in x→y→z order and points in index order.
type GridIndex struct {
	cellSize float64
	cols     voxelTable // XY column → column id
	spans    []colSpan  // column id → its entries
	entries  []gridEntry
	cloud    *Cloud
}

// colSpan is a column's [lo, hi) range in GridIndex.entries.
type colSpan struct{ lo, hi int32 }

// gridEntry is one indexed point: its coordinates, z cell and index.
type gridEntry struct {
	x, y, z float64
	zc      int32
	i       int32
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
		cloud:    c,
	}
	// Counting sort by column, ids in order of first appearance: count,
	// then scatter each point to its column's next free slot.
	g.cols.reset(n/4 + 1)
	colOf := make([]int32, n)
	for i, p := range c.pts {
		k := KeyFor(p.X, p.Y, p.Z, cellSize)
		id := g.cols.add(VoxelKey{X: k.X, Y: k.Y})
		if int(id) == len(g.spans) {
			g.spans = append(g.spans, colSpan{})
		}
		g.spans[id].hi++
		colOf[i] = id
	}
	pos := int32(0)
	for id := range g.spans {
		cnt := g.spans[id].hi
		g.spans[id] = colSpan{lo: pos, hi: pos}
		pos += cnt
	}
	for i, p := range c.pts {
		s := &g.spans[colOf[i]]
		g.entries[s.hi] = gridEntry{x: p.X, y: p.Y, z: p.Z, zc: KeyFor(p.X, p.Y, p.Z, cellSize).Z, i: int32(i)}
		s.hi++
	}
	// Entries landed in index order within each column; order them by z
	// cell, keeping index order inside a cell.
	for _, s := range g.spans {
		slices.SortFunc(g.entries[s.lo:s.hi], func(a, b gridEntry) int {
			if a.zc != b.zc {
				return int(a.zc) - int(b.zc)
			}
			return int(a.i) - int(b.i)
		})
	}
	return g
}

// column returns the entries of the XY column (x, y), nil if it is empty.
func (g *GridIndex) column(x, y int32) []gridEntry {
	id, ok := g.cols.find(VoxelKey{X: x, Y: y})
	if !ok {
		return nil
	}
	s := g.spans[id]
	return g.entries[s.lo:s.hi]
}

// Radius returns the indices of all points within r of q.
func (g *GridIndex) Radius(q geom.Vec3, r float64) []int {
	if r <= 0 {
		return nil
	}
	var out []int
	r2 := r * r
	lo := KeyFor(q.X-r, q.Y-r, q.Z-r, g.cellSize)
	hi := KeyFor(q.X+r, q.Y+r, q.Z+r, g.cellSize)
	for x := lo.X; x <= hi.X; x++ {
		for y := lo.Y; y <= hi.Y; y++ {
			for _, e := range g.column(x, y) {
				if e.zc < lo.Z {
					continue
				}
				if e.zc > hi.Z {
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

// Nearest returns the index of the point closest to q and its distance.
// It returns (-1, +Inf) for an empty index. Among points at the same
// distance it returns the one in the innermost ring of cells around q,
// then the first in x→y→z cell order, then the lowest index.
func (g *GridIndex) Nearest(q geom.Vec3) (int, float64) {
	// A sparse index can still force thousands of empty ring scans before
	// the first hit; callers that only care about bounded matches should
	// use NearestWithin instead.
	const maxRings = 1 << 12
	return g.nearest(q, maxRings)
}

// NearestWithin is Nearest restricted to a search radius: it returns the
// closest indexed point whenever one lies within r, or (-1, +Inf) when no
// point lies within the scanned rings. Cell granularity can also admit a
// best that lies farther than r, so callers enforcing a strict cutoff
// must still check the returned distance. Unlike Nearest, the scan never
// expands past the cells that can hold a point within r, so queries far
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
// the nearest point found there; an equal distance keeps the old best.
func (g *GridIndex) scanShell(q geom.Vec3, c VoxelKey, ring int32, best int, bestD2 float64) (int, float64) {
	zlo, zhi := c.Z-ring, c.Z+ring
	for x := c.X - ring; x <= c.X+ring; x++ {
		xEdge := x == c.X-ring || x == c.X+ring
		for y := c.Y - ring; y <= c.Y+ring; y++ {
			// Columns on the XY boundary of the shell contribute every z
			// cell in range; interior columns only the top and bottom.
			edge := xEdge || y == c.Y-ring || y == c.Y+ring
			for _, e := range g.column(x, y) {
				if e.zc < zlo {
					continue
				}
				if e.zc > zhi {
					break
				}
				if !edge && e.zc != zlo && e.zc != zhi {
					continue
				}
				dx, dy, dz := e.x-q.X, e.y-q.Y, e.z-q.Z
				if d2 := dx*dx + dy*dy + dz*dz; d2 < bestD2 {
					best, bestD2 = int(e.i), d2
				}
			}
		}
	}
	return best, bestD2
}

// Cloud returns the indexed cloud.
func (g *GridIndex) Cloud() *Cloud { return g.cloud }
