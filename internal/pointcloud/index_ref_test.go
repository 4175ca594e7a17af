package pointcloud

import (
	"math"

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
						d2 := dx*dx + dy*dy + dz*dz
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
