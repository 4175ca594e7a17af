package spod

import "math"

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

// projectBEVInto collapses a sparse tensor to the scratch's BEV map and
// column buffers (grown as needed), reading voxel tops from the grid.
// Each column's objectness sums its sites bottom-up (z ascending) — a
// fixed order, so the float accumulation is identical on every run. The
// map-keyed predecessor summed in map iteration order, which made the
// low bits of Objectness depend on Go's randomised map walk.
func projectBEVInto(t *SparseTensor, g *VoxelGrid, s *DetectorScratch) *BEVMap {
	s.bevObj = grow(s.bevObj, len(t.Cols))
	s.bevTop = grow(s.bevTop, len(t.Cols))
	s.bev = BEVMap{SizeXY: g.SizeXY, Cols: t.Cols, Objectness: s.bevObj[:len(t.Cols)], TopZ: s.bevTop[:len(t.Cols)]}
	m := &s.bev
	for ci := range t.Cols {
		objSum, topZ := 0.0, 0.0
		for site := t.ColOff[ci]; site < t.ColOff[ci+1]; site++ {
			objSum += t.Feats[int(site)*convChannels]
			if zTop := (float64(t.Zs[site]) + 1) * g.SizeZ; zTop > topZ {
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
// links[i] locates candidate i's neighbours and its columns elsewhere.
type proposalSet struct {
	keys  []colKey
	links []candLinks
	cells []int32
	off   []int32
}

// candLinks ties one proposal candidate to the rest of the frame. down
// and up are the first candidate indices at or past (x−1, y−1) and
// (x+1, y−1): the candidate's neighbours in rows x∓1 follow them, y
// ascending. grid and pseudo are its column's index in the voxel grid
// and in the remote pseudo-point set, -1 where the column is absent.
type candLinks struct {
	down, up     int32
	grid, pseudo int32
}

// Len returns the number of components.
func (p *proposalSet) Len() int { return len(p.off) - 1 }

// Component returns the candidate-key indices of component i.
func (p *proposalSet) Component(i int) []int32 { return p.cells[p.off[i]:p.off[i+1]] }

// dilate is the proposal dilation radius in cells: evidence separated by
// small gaps (glancing-incidence returns along a car side) groups into
// one proposal — the analogue of the RPN's wide receptive field.
const dilate = 2

// proposalComponentsScratch thresholds the BEV objectness, dilates the
// surviving cells by dilate and groups the candidates into 8-connected
// components — the region proposal stage — on the scratch's buffers; the
// returned set is the scratch's and aliases them. gridCols and psCols
// are the voxel grid's and the pseudo set's columns (ascending; psCols
// may be nil), which the set's links index. The pass is linear in its
// input:
//
//   - the thresholded columns are already sorted, so candidate row X is
//     the union of the [y−2, y+2] intervals of source rows X−2…X+2, a
//     merge of at most five sorted runs, and rows come out in key order;
//   - each candidate's grid and pseudo column is found by a forward
//     cursor through gridCols and psCols as candidates are emitted;
//   - its neighbour rows' starts by one forward cursor per row, since
//     (x±1, y−1) ascends with (x, y);
//   - the DFS then reads each cell's 8 neighbours in the fixed (dx, dy)
//     push order without a search.
//
// Coordinates run in int64 and clip at the int32 limits: the dilation
// and the adjacency never wrap to the far end of the key space.
func proposalComponentsScratch(m *BEVMap, threshold float64, gridCols, psCols []colKey, s *DetectorScratch) *proposalSet {
	// The thresholded source columns and the starts of their x rows.
	src, rows := s.propSrc[:0], s.propRows[:0]
	for ci, o := range m.Objectness {
		if o < threshold {
			continue
		}
		k := m.Cols[ci]
		if len(src) == 0 || k>>32 != src[len(src)-1]>>32 {
			rows = append(rows, int32(len(src)))
		}
		src = append(src, k)
	}
	rows = append(rows, int32(len(src)))
	s.propSrc, s.propRows = src, rows
	rowX := func(r int) int64 {
		x, _ := unpackXY(src[rows[r]])
		return int64(x)
	}

	cand, links := s.cand[:0], s.candLinks[:0]
	gi, pi := 0, 0
	emit := func(k colKey) {
		l := candLinks{grid: -1, pseudo: -1}
		for gi < len(gridCols) && gridCols[gi] < k {
			gi++
		}
		if gi < len(gridCols) && gridCols[gi] == k {
			l.grid = int32(gi)
		}
		for pi < len(psCols) && psCols[pi] < k {
			pi++
		}
		if pi < len(psCols) && psCols[pi] == k {
			l.pseudo = int32(pi)
		}
		cand = append(cand, k)
		links = append(links, l)
	}
	nRows := len(rows) - 1
	var cur [2*dilate + 1]int32 // read position in each window row
	for lo, x := 0, int64(math.MinInt32); ; x++ {
		// Slide the window [x−2, x+2] over the source rows, jumping gaps.
		for lo < nRows && rowX(lo) < x-dilate {
			lo++
		}
		if lo == nRows {
			break
		}
		x = max(x, rowX(lo)-dilate)
		hi := lo
		for hi < nRows && rowX(hi) <= x+dilate {
			cur[hi-lo] = rows[hi]
			hi++
		}
		// Merge the window rows' y runs, emitting each source's
		// [y−2, y+2] past what the row already covers.
		covered := int64(math.MinInt32) - 1
		for {
			best, by := -1, int64(0)
			for w := 0; w < hi-lo; w++ {
				if cur[w] == rows[lo+w+1] {
					continue
				}
				if _, y := unpackXY(src[cur[w]]); best < 0 || int64(y) < by {
					best, by = w, int64(y)
				}
			}
			if best < 0 {
				break
			}
			cur[best]++
			end := min(by+dilate, math.MaxInt32)
			for y := max(by-dilate, covered+1, math.MinInt32); y <= end; y++ {
				emit(packXY(int32(x), int32(y)))
			}
			covered = max(covered, end)
		}
		if x == math.MaxInt32 {
			break
		}
	}

	// Neighbour-row starts: (x−1, y−1) and (x+1, y−1) ascend with the
	// candidate key, so each is one forward cursor over cand.
	down, up := 0, 0
	for i, k := range cand {
		x, y := unpackXY(k)
		ylo := clipInt32(int64(y) - 1)
		if x > math.MinInt32 {
			for b := packXY(x-1, ylo); down < len(cand) && cand[down] < b; {
				down++
			}
		}
		if x < math.MaxInt32 {
			for b := packXY(x+1, ylo); up < len(cand) && cand[up] < b; {
				up++
			}
		}
		links[i].down, links[i].up = int32(down), int32(up)
	}
	s.cand, s.candLinks = cand, links

	p := &s.props
	*p = proposalSet{keys: cand, links: links, cells: s.compCells[:0], off: append(s.compOff[:0], 0)}
	s.visited = grow(s.visited, len(cand))
	visited := s.visited
	clear(visited)
	stack := s.stack[:0]
	push := func(nb int) {
		if !visited[nb] {
			visited[nb] = true
			stack = append(stack, int32(nb))
		}
	}
	// pushRow pushes the candidates from start up to key last: the
	// neighbours (x±1, y−1…y+1) of one adjacent row, y ascending.
	pushRow := func(start int32, last colKey) {
		for j := int(start); j < len(cand) && cand[j] <= last; j++ {
			push(j)
		}
	}
	for seed := range cand {
		if visited[seed] {
			continue
		}
		stack = append(stack[:0], int32(seed))
		visited[seed] = true
		for len(stack) > 0 {
			c := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			p.cells = append(p.cells, int32(c))
			x, y := unpackXY(cand[c])
			yhi := clipInt32(int64(y) + 1)
			// Push order (dx, dy) = (−1, −1…1), (0, −1), (0, 1), (1, −1…1).
			if x > math.MinInt32 {
				pushRow(links[c].down, packXY(x-1, yhi))
			}
			if y > math.MinInt32 && c > 0 && cand[c-1] == packXY(x, y-1) {
				push(c - 1)
			}
			if y < math.MaxInt32 && c+1 < len(cand) && cand[c+1] == packXY(x, y+1) {
				push(c + 1)
			}
			if x < math.MaxInt32 {
				pushRow(links[c].up, packXY(x+1, yhi))
			}
		}
		p.off = append(p.off, int32(len(p.cells)))
	}
	s.compCells, s.compOff, s.stack = p.cells, p.off, stack
	return p
}
