package spod

import (
	"math"
	"slices"

	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
)

// VoxelFeature is the encoded feature vector of one occupied voxel — the
// analogue of VoxelNet's voxel feature encoding (VFE) layer output. The
// channels are fixed statistics rather than learned embeddings.
type VoxelFeature struct {
	// Count is the number of points in the voxel.
	Count int
	// Density is log1p(Count), the channel the convolution smooths.
	Density float64
	// MeanZ and SpanZ summarise the voxel's height content (metres,
	// relative to the estimated ground).
	MeanZ, SpanZ float64
	// MeanIntensity is the mean reflectance.
	MeanIntensity float64
}

// VoxelGrid is the sparse voxelised representation of a (ground-removed)
// cloud, stored column-major in one fixed sorted order: Cols lists the
// occupied BEV columns ascending by packed (x, y); column c owns the
// voxel sites ColOff[c]..ColOff[c+1] (z ascending, one VoxelFeature each)
// and the raw point indices PtOff[c]..PtOff[c+1] (in cloud point order).
// The layout makes every traversal of the grid deterministic by
// construction — there is no map to iterate — and lets a DetectorScratch
// reuse all five slices across frames.
type VoxelGrid struct {
	// SizeXY and SizeZ are the voxel edge lengths.
	SizeXY, SizeZ float64
	// GroundZ is the ground height subtracted from height features.
	GroundZ float64

	// Cols holds the occupied BEV columns, ascending (see packXY).
	Cols []colKey
	// ColOff offsets Zs/Feats per column: len(Cols)+1 entries.
	ColOff []int32
	// Zs is each site's z layer, ascending within its column.
	Zs []int32
	// Feats is each site's feature vector, parallel to Zs.
	Feats []VoxelFeature
	// PtOff offsets PtIdx per column: len(Cols)+1 entries.
	PtOff []int32
	// PtIdx holds raw point indices grouped by column, each group in
	// cloud point order (the box-fitting stage consumes these).
	PtIdx []int32
}

// OccupiedVoxels returns the number of occupied voxels.
func (g *VoxelGrid) OccupiedVoxels() int { return len(g.Zs) }

// Feature returns the feature of the voxel at k, if occupied.
func (g *VoxelGrid) Feature(k pointcloud.VoxelKey) (VoxelFeature, bool) {
	c := findCol(g.Cols, packXY(k.X, k.Y))
	if c < 0 {
		return VoxelFeature{}, false
	}
	for i := g.ColOff[c]; i < g.ColOff[c+1]; i++ {
		if g.Zs[i] == k.Z {
			return g.Feats[i], true
		}
	}
	return VoxelFeature{}, false
}

// ColumnPoints returns the raw point indices of BEV column (x, y), in
// cloud point order. The slice aliases the grid; callers must not mutate
// or retain it past the grid's lifetime.
func (g *VoxelGrid) ColumnPoints(x, y int32) []int32 {
	c := findCol(g.Cols, packXY(x, y))
	if c < 0 {
		return nil
	}
	return g.PtIdx[g.PtOff[c]:g.PtOff[c+1]]
}

// voxAcc accumulates one voxel's feature statistics.
type voxAcc struct {
	z                      int32
	sumZ, minZ, maxZ, sumI float64
	n                      int
}

// Voxelize encodes a cloud into the sparse voxel grid. Points are assumed
// ground-removed; groundZ anchors the height features. The per-point
// voxel-key computation fans out over at most workers goroutines (< 1
// selects one per CPU). Points are then sorted by (column, point index),
// so every voxel accumulates its features in cloud point order —
// floating-point sums are order-sensitive — and the grid is identical at
// any worker count.
func Voxelize(c *pointcloud.Cloud, sizeXY, sizeZ, groundZ float64, workers int) *VoxelGrid {
	return voxelize(c, sizeXY, sizeZ, groundZ, workers, NewScratch())
}

// voxelize builds the grid inside the scratch's buffers. The returned
// grid is &s.grid: valid until the scratch's next frame.
func voxelize(c *pointcloud.Cloud, sizeXY, sizeZ, groundZ float64, workers int, s *DetectorScratch) *VoxelGrid {
	g := &s.grid
	g.SizeXY, g.SizeZ, g.GroundZ = sizeXY, sizeZ, groundZ
	g.Cols = g.Cols[:0]
	g.ColOff = append(g.ColOff[:0], 0)
	g.Zs = g.Zs[:0]
	g.Feats = g.Feats[:0]
	g.PtOff = append(g.PtOff[:0], 0)
	g.PtIdx = g.PtIdx[:0]

	n := c.Len()
	if n == 0 {
		return g
	}
	entry := func(i int) voxEntry {
		p := c.At(i)
		return voxEntry{
			col: packXY(
				int32(math.Floor(p.X/sizeXY)),
				int32(math.Floor(p.Y/sizeXY)),
			),
			z:   int32(math.Floor((p.Z - groundZ) / sizeZ)),
			idx: int32(i),
		}
	}
	s.entries = grow(s.entries, n)
	entries := s.entries
	if parallel.Normalize(workers) > 1 {
		const chunk = 8192
		nChunks := (n + chunk - 1) / chunk
		parallel.For(workers, nChunks, func(ci int) {
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				entries[i] = entry(i)
			}
		})
	} else {
		for i := 0; i < n; i++ {
			entries[i] = entry(i)
		}
	}
	// Group by column, keeping cloud point order within each column: the
	// per-voxel accumulation below then adds point contributions in the
	// same order a sequential scan over the cloud would.
	slices.SortFunc(entries, func(a, b voxEntry) int {
		switch {
		case a.col != b.col:
			if a.col < b.col {
				return -1
			}
			return 1
		default:
			return int(a.idx - b.idx)
		}
	})

	for lo := 0; lo < n; {
		hi := lo
		col := entries[lo].col
		for hi < n && entries[hi].col == col {
			hi++
		}
		// Accumulate this column's voxels. Each point lands in its z
		// layer's accumulator in point order; layers appear in first-hit
		// order and are sorted by z before emission.
		s.zvals = s.zvals[:0]
		s.zaccs = s.zaccs[:0]
		for _, e := range entries[lo:hi] {
			p := c.At(int(e.idx))
			slot := -1
			for si, z := range s.zvals {
				if z == e.z {
					slot = si
					break
				}
			}
			if slot < 0 {
				s.zvals = append(s.zvals, e.z)
				s.zaccs = append(s.zaccs, voxAcc{z: e.z, minZ: math.Inf(1), maxZ: math.Inf(-1)})
				slot = len(s.zaccs) - 1
			}
			a := &s.zaccs[slot]
			a.sumZ += p.Z - groundZ
			a.minZ = math.Min(a.minZ, p.Z-groundZ)
			a.maxZ = math.Max(a.maxZ, p.Z-groundZ)
			a.sumI += p.Reflectance
			a.n++
			g.PtIdx = append(g.PtIdx, e.idx)
		}
		// Emit sites z-ascending (insertion sort: columns hold few layers).
		for i := 1; i < len(s.zaccs); i++ {
			for j := i; j > 0 && s.zaccs[j-1].z > s.zaccs[j].z; j-- {
				s.zaccs[j-1], s.zaccs[j] = s.zaccs[j], s.zaccs[j-1]
			}
		}
		for _, a := range s.zaccs {
			g.Zs = append(g.Zs, a.z)
			g.Feats = append(g.Feats, VoxelFeature{
				Count:         a.n,
				Density:       math.Log1p(float64(a.n)),
				MeanZ:         a.sumZ / float64(a.n),
				SpanZ:         a.maxZ - a.minZ,
				MeanIntensity: a.sumI / float64(a.n),
			})
		}
		g.Cols = append(g.Cols, col)
		g.ColOff = append(g.ColOff, int32(len(g.Zs)))
		g.PtOff = append(g.PtOff, int32(len(g.PtIdx)))
		lo = hi
	}
	return g
}
