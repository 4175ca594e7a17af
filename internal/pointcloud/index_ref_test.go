package pointcloud

import (
	"math"
	"slices"

	"cooper/internal/geom"
)

// mapGridIndex is the GridIndex layout GridIndex replaced, kept as the
// reference its tests compare against: one map entry per occupied cubic
// cell, holding that cell's point indices in index order. Its nearest
// search stops one ring after the first hit, which is exact only while
// the scan covers rings 0 and 1 alone (NearestWithin with r ≤ cell).
type mapGridIndex struct {
	cellSize float64
	cells    map[VoxelKey][]int
	cloud    *Cloud
}

func newMapGridIndex(c *Cloud, cellSize float64) *mapGridIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	idx := &mapGridIndex{cellSize: cellSize, cells: make(map[VoxelKey][]int), cloud: c}
	for i, p := range c.pts {
		k := KeyFor(p.X, p.Y, p.Z, cellSize)
		idx.cells[k] = append(idx.cells[k], i)
	}
	return idx
}

func (g *mapGridIndex) Radius(q geom.Vec3, r float64) []int {
	if r <= 0 {
		return nil
	}
	var out []int
	r2 := r * r
	lo := KeyFor(q.X-r, q.Y-r, q.Z-r, g.cellSize)
	hi := KeyFor(q.X+r, q.Y+r, q.Z+r, g.cellSize)
	for x := lo.X; x <= hi.X; x++ {
		for y := lo.Y; y <= hi.Y; y++ {
			for z := lo.Z; z <= hi.Z; z++ {
				for _, i := range g.cells[VoxelKey{x, y, z}] {
					p := g.cloud.pts[i]
					dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
					if dx*dx+dy*dy+dz*dz <= r2 {
						out = append(out, i)
					}
				}
			}
		}
	}
	return out
}

func (g *mapGridIndex) NearestWithin(q geom.Vec3, r float64) (int, float64) {
	if r <= 0 {
		return -1, math.Inf(1)
	}
	maxRings := int32(math.Ceil(r/g.cellSize)) + 1
	if g.cloud.Len() == 0 {
		return -1, math.Inf(1)
	}
	center := KeyFor(q.X, q.Y, q.Z, g.cellSize)
	best := -1
	bestD2 := math.Inf(1)
	scanRing := func(ring int32) {
		for x := center.X - ring; x <= center.X+ring; x++ {
			for y := center.Y - ring; y <= center.Y+ring; y++ {
				for z := center.Z - ring; z <= center.Z+ring; z++ {
					onShell := x == center.X-ring || x == center.X+ring ||
						y == center.Y-ring || y == center.Y+ring ||
						z == center.Z-ring || z == center.Z+ring
					if ring > 0 && !onShell {
						continue
					}
					for _, i := range g.cells[VoxelKey{x, y, z}] {
						p := g.cloud.pts[i]
						dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
						d2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
						if d2 < bestD2 {
							bestD2 = d2
							best = i
						}
					}
				}
			}
		}
	}
	foundAt := int32(-1)
	for ring := int32(0); ring < maxRings; ring++ {
		scanRing(ring)
		if best >= 0 {
			foundAt = ring
			break
		}
	}
	if foundAt >= 0 && foundAt+1 < maxRings {
		scanRing(foundAt + 1)
	}
	return best, math.Sqrt(bestD2)
}

// ringGridIndex is GridIndex as it was before the column bounding
// boxes and the int64 loops: a copy kept as the reference NearestWithin
// must match bit for bit. Its int32 ring loops wrap at math.MaxInt32, so
// tests keep its queries away from that key. Its squared distance rounds
// each product the way gridEntry.dist2 does, so the comparison pins the
// search order even where the compiler would fuse a multiply-add.
type ringGridIndex struct {
	cellSize float64
	cols     voxelTable // XY column → column id
	spans    []ringSpan // column id → its entries
	entries  []ringEntry
}

// ringSpan is a column's [lo, hi) range in ringGridIndex.entries.
type ringSpan struct{ lo, hi int32 }

// ringEntry is one indexed point: its coordinates, z cell and index.
type ringEntry struct {
	x, y, z float64
	zc      int32
	i       int32
}

// newRingGridIndex indexes the cloud with the given cell size. Choose the cell
// size close to the typical query radius for best performance.
func newRingGridIndex(c *Cloud, cellSize float64) *ringGridIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	n := len(c.pts)
	g := &ringGridIndex{
		cellSize: cellSize,
		entries:  make([]ringEntry, n),
	}
	// Counting sort by column, ids in order of first appearance: count,
	// then scatter each point to its column's next free slot.
	g.cols.reset(n/4 + 1)
	colOf := make([]int32, n)
	for i, p := range c.pts {
		k := KeyFor(p.X, p.Y, p.Z, cellSize)
		id := g.cols.add(VoxelKey{X: k.X, Y: k.Y})
		if int(id) == len(g.spans) {
			g.spans = append(g.spans, ringSpan{})
		}
		g.spans[id].hi++
		colOf[i] = id
	}
	pos := int32(0)
	for id := range g.spans {
		cnt := g.spans[id].hi
		g.spans[id] = ringSpan{lo: pos, hi: pos}
		pos += cnt
	}
	for i, p := range c.pts {
		s := &g.spans[colOf[i]]
		g.entries[s.hi] = ringEntry{x: p.X, y: p.Y, z: p.Z, zc: KeyFor(p.X, p.Y, p.Z, cellSize).Z, i: int32(i)}
		s.hi++
	}
	// Entries landed in index order within each column; order them by z
	// cell, keeping index order inside a cell.
	for _, s := range g.spans {
		slices.SortFunc(g.entries[s.lo:s.hi], func(a, b ringEntry) int {
			if a.zc != b.zc {
				return int(a.zc) - int(b.zc)
			}
			return int(a.i) - int(b.i)
		})
	}
	return g
}

// column returns the entries of the XY column (x, y), nil if it is empty.
func (g *ringGridIndex) column(x, y int32) []ringEntry {
	id, ok := g.cols.find(VoxelKey{X: x, Y: y})
	if !ok {
		return nil
	}
	s := g.spans[id]
	return g.entries[s.lo:s.hi]
}

// NearestWithin returns the closest indexed point whenever one lies
// within r, or (-1, +Inf) when no point lies within the scanned rings.
// Cell granularity can also admit a best that lies farther than r, so
// callers enforcing a strict cutoff must still check the returned
// distance. The scan never expands past the cells that can hold a point within r, so queries far
// from any point cost O(r³/cell³) instead of crawling the whole grid.
func (g *ringGridIndex) NearestWithin(q geom.Vec3, r float64) (int, float64) {
	if r <= 0 {
		return -1, math.Inf(1)
	}
	maxRings := int32(math.Ceil(r/g.cellSize)) + 1
	return g.nearest(q, maxRings)
}

// nearest expands ring by ring up to maxRings (exclusive). Every point in
// ring j lies at least (j-1) cells from q, so the scan stops at the first
// ring that cannot hold a point closer than the best found so far.
func (g *ringGridIndex) nearest(q geom.Vec3, maxRings int32) (int, float64) {
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
func (g *ringGridIndex) scanShell(q geom.Vec3, c VoxelKey, ring int32, best int, bestD2 float64) (int, float64) {
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
				if d2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz); d2 < bestD2 {
					best, bestD2 = int(e.i), d2
				}
			}
		}
	}
	return best, bestD2
}
