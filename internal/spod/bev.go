package spod

import (
	"slices"

	"cooper/internal/pointcloud"
)

// BEVMap is a sparse bird's-eye-view feature map over the occupied
// columns, in the grid's fixed ascending column order: column i carries
// Objectness[i] (the vertically summed smoothed density — the RPN's
// per-location confidence input) and TopZ[i] (the highest occupied voxel
// top, metres above ground). Cols aliases the source tensor's columns.
type BEVMap struct {
	SizeXY     float64
	Cols       []colKey
	Objectness []float64
	TopZ       []float64
}

// projectBEV collapses a sparse tensor to the BEV map, reading voxel tops
// from the grid.
func projectBEV(t *SparseTensor, g *VoxelGrid) *BEVMap {
	return projectBEVInto(t, g, make([]float64, len(t.Cols)), make([]float64, len(t.Cols)))
}

// projectBEVInto is projectBEV writing into the given column buffers.
// Each column's objectness sums its sites bottom-up (z ascending) — a
// fixed order, so the float accumulation is identical on every run. The
// map-keyed predecessor summed in map iteration order, which made the
// low bits of Objectness depend on Go's randomised map walk.
func projectBEVInto(t *SparseTensor, g *VoxelGrid, obj, top []float64) *BEVMap {
	m := &BEVMap{SizeXY: g.SizeXY, Cols: t.Cols, Objectness: obj[:len(t.Cols)], TopZ: top[:len(t.Cols)]}
	for ci := range t.Cols {
		objSum, topZ := 0.0, 0.0
		for s := t.ColOff[ci]; s < t.ColOff[ci+1]; s++ {
			objSum += t.Feats[int(s)*convChannels]
			if zTop := (float64(t.Zs[s]) + 1) * g.SizeZ; zTop > topZ {
				topZ = zTop
			}
		}
		m.Objectness[ci] = objSum
		m.TopZ[ci] = topZ
	}
	return m
}

// proposalSet is the region-proposal stage's answer: the dilated
// candidate columns (keys, ascending) grouped into 8-connected
// components. Component c owns cells[off[c]:off[c+1]], each an index
// into keys, in DFS visit order from the lowest unvisited seed.
type proposalSet struct {
	keys  []colKey
	cells []int32
	off   []int32
}

// Len returns the number of components.
func (p *proposalSet) Len() int { return len(p.off) - 1 }

// Component returns the candidate-key indices of component i.
func (p *proposalSet) Component(i int) []int32 { return p.cells[p.off[i]:p.off[i+1]] }

// Key returns the BEV column key of candidate index idx.
func (p *proposalSet) Key(idx int32) pointcloud.VoxelKey {
	x, y := unpackXY(p.keys[idx])
	return pointcloud.VoxelKey{X: x, Y: y}
}

// proposalComponents thresholds the BEV objectness and groups the
// surviving cells into 8-connected components — the region proposal
// stage. The candidate set is a sorted key slice, components emerge from
// a DFS over it seeded in ascending key order, and membership tests are
// binary searches: the whole pass is deterministic with no map in sight.
func proposalComponents(m *BEVMap, threshold float64) *proposalSet {
	return proposalComponentsScratch(m, threshold, NewScratch())
}

// proposalComponentsScratch is proposalComponents on the scratch's
// buffers; the returned set aliases them.
func proposalComponentsScratch(m *BEVMap, threshold float64, s *DetectorScratch) *proposalSet {
	// Collect candidate cells, dilated by two cells so that evidence
	// separated by small gaps (glancing-incidence returns along a car
	// side) groups into one proposal — the analogue of the RPN's wide
	// receptive field.
	const dilate = 2
	s.cand = s.cand[:0]
	for ci, o := range m.Objectness {
		if o < threshold {
			continue
		}
		x, y := unpackXY(m.Cols[ci])
		for dx := int32(-dilate); dx <= dilate; dx++ {
			for dy := int32(-dilate); dy <= dilate; dy++ {
				s.cand = append(s.cand, packXY(x+dx, y+dy))
			}
		}
	}
	slices.Sort(s.cand)
	s.cand = slices.Compact(s.cand)
	cand := s.cand

	p := &proposalSet{keys: cand, cells: s.compCells[:0], off: append(s.compOff[:0], 0)}
	s.visited = grow(s.visited, len(cand))
	visited := s.visited
	for i := range visited {
		visited[i] = false
	}
	stack := s.stack[:0]
	for seed := range cand {
		if visited[seed] {
			continue
		}
		stack = append(stack[:0], int32(seed))
		visited[seed] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.cells = append(p.cells, cur)
			x, y := unpackXY(cand[cur])
			for dx := int32(-1); dx <= 1; dx++ {
				for dy := int32(-1); dy <= 1; dy++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nb := findCol(cand, packXY(x+dx, y+dy))
					if nb >= 0 && !visited[nb] {
						visited[nb] = true
						stack = append(stack, int32(nb))
					}
				}
			}
		}
		p.off = append(p.off, int32(len(p.cells)))
	}
	s.compCells, s.compOff, s.stack = p.cells, p.off, stack
	return p
}
