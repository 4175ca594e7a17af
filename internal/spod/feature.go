package spod

import (
	"math"
	"slices"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// FeatureFrame is the detector's post-convolution seam made portable: the
// sparse feature tensor of one sensor frame, snapshotted out of the
// scratch buffers into caller-owned storage. It is what a feature-level
// (F-Cooper style) cooperative exchange transmits instead of the raw
// cloud — the same CSR layout the pipeline computes anyway, so exporting
// it costs one copy and re-ingesting it skips stages 1–3 entirely.
//
// Sites live in the pipeline's fixed order: Cols ascending by packed
// (x, y), z ascending within each column, and site i owning the three
// smoothed channels (density, height span, mean intensity) at
// Feats[3i : 3i+3]. All coordinates are
// in the producing sensor's frame; GroundZ anchors the z indices.
type FeatureFrame struct {
	// SizeXY and SizeZ are the voxel edge lengths, metres.
	SizeXY, SizeZ float64
	// GroundZ is the producing frame's estimated ground height.
	GroundZ float64
	// Cols holds the occupied BEV columns, ascending (see packXY).
	Cols []colKey
	// ColOff offsets Zs/Feats per column: len(Cols)+1 entries.
	ColOff []int32
	// Zs is each site's z layer, ascending within its column.
	Zs []int32
	// Feats holds three channel values per site, parallel to Zs.
	Feats []float64
}

// Sites returns the number of occupied voxel sites.
func (f *FeatureFrame) Sites() int { return len(f.Zs) }

// columnDensity returns the channel-0 (density) sum of column c — the
// column's eventual contribution to BEV objectness.
func (f *FeatureFrame) columnDensity(c int) float64 {
	sum := 0.0
	for s := f.ColOff[c]; s < f.ColOff[c+1]; s++ {
		sum += f.Feats[int(s)*convChannels]
	}
	return sum
}

// Prune returns a frame keeping only columns whose summed density channel
// reaches floor — the transmit floor that drops clutter columns which
// could never clear the proposal threshold on their own. floor <= 0
// returns the frame unchanged. The kept columns preserve their order, so
// the result is as deterministic as the input.
func (f *FeatureFrame) Prune(floor float64) *FeatureFrame {
	if floor <= 0 {
		return f
	}
	out := &FeatureFrame{
		SizeXY:  f.SizeXY,
		SizeZ:   f.SizeZ,
		GroundZ: f.GroundZ,
		ColOff:  []int32{0},
	}
	for c := range f.Cols {
		if f.columnDensity(c) < floor {
			continue
		}
		lo, hi := f.ColOff[c], f.ColOff[c+1]
		out.Cols = append(out.Cols, f.Cols[c])
		out.Zs = append(out.Zs, f.Zs[lo:hi]...)
		out.Feats = append(out.Feats, f.Feats[lo*convChannels:hi*convChannels]...)
		out.ColOff = append(out.ColOff, int32(len(out.Zs)))
	}
	return out
}

// EncodeFeatureFrame runs stages 1–3 of the pipeline (preprocessing,
// voxel feature encoding, sparse convolution) on a single-origin sensor
// cloud and snapshots the smoothed tensor into a caller-owned
// FeatureFrame. This is the transmit half of feature-level fusion: the
// sender does its share of the compute and ships the much smaller
// post-convolution planes. A nil scratch draws from the shared pool.
func (d *Detector) EncodeFeatureFrame(cloud *pointcloud.Cloud, s *DetectorScratch) *FeatureFrame {
	if s == nil {
		s = scratchPool.Get().(*DetectorScratch)
		defer scratchPool.Put(s)
	}
	var st Stats
	tensor, grid, _, groundZ := d.frontHalf(cloud, s, &st)
	return &FeatureFrame{
		SizeXY:  grid.SizeXY,
		SizeZ:   grid.SizeZ,
		GroundZ: groundZ,
		Cols:    slices.Clone(tensor.Cols),
		ColOff:  slices.Clone(tensor.ColOff),
		Zs:      slices.Clone(tensor.Zs),
		Feats:   slices.Clone(tensor.Feats),
	}
}

// RemoteFeatures is one cooperating sender's contribution to a
// feature-level fusion: its exported frame plus the rigid transform from
// its sensor frame into the receiver's (fusion.AlignTransform).
type RemoteFeatures struct {
	Frame     *FeatureFrame
	Transform geom.Transform
}

// FeatureCoopConfig derives the feature-fusion detection configuration:
// unlike raw-cloud merging, the receiver still preprocesses only its own
// single-origin cloud, so the spherical projection stays on; only the
// range gate widens by the inter-vehicle distance so remote evidence
// beyond the receiver's own horizon survives the fit stage.
func FeatureCoopConfig(base Config, interVehicleDist float64) Config {
	base.MaxDetectionRange += interVehicleDist
	return base
}

// fuseEntry stages one voxel site for the max-merge: its receiver-frame
// column and z layer, its feature vector, and — for remote sites — the
// aligned centre position that becomes a pseudo-point. seq is the
// creation order, the deterministic tie-break for equal (col, z).
type fuseEntry struct {
	col        colKey
	z, seq     int32
	remote     bool
	f          [convChannels]float64
	px, py, pz float64
}

// pseudoSet indexes the remote pseudo-points by receiver BEV column
// (CSR, columns ascending): column cols[c] owns points off[c]..off[c+1].
type pseudoSet struct {
	cols       []colKey
	off        []int32
	xs, ys, zs []float64
}

// column returns the pseudo-point index range [lo, hi) of column key.
func (ps *pseudoSet) column(key colKey) (lo, hi int32) {
	if ps == nil {
		return 0, 0
	}
	c := findCol(ps.cols, key)
	if c < 0 {
		return 0, 0
	}
	return ps.off[c], ps.off[c+1]
}

// fuseFeatureTensors merges the receiver's own tensor with every remote
// frame re-binned into the receiver's voxel coordinates. The merge is a
// sort + fold: all sites (own and aligned remote) are staged as entries,
// sorted by (column, z, creation order), and runs of equal (column, z)
// fold by element-wise max. Max is order-insensitive, so the fused tensor
// is identical however the payloads were produced. The returned tensor
// and pseudo set alias the scratch.
func fuseFeatureTensors(own *SparseTensor, grid *VoxelGrid, groundZ float64, remotes []RemoteFeatures, s *DetectorScratch) (*SparseTensor, *pseudoSet) {
	entries := s.fuseEntries[:0]
	for ci := range own.Cols {
		for site := own.ColOff[ci]; site < own.ColOff[ci+1]; site++ {
			e := fuseEntry{col: own.Cols[ci], z: own.Zs[site], seq: int32(len(entries))}
			copy(e.f[:], own.Feats[int(site)*convChannels:int(site+1)*convChannels])
			entries = append(entries, e)
		}
	}
	sizeXY, sizeZ := grid.SizeXY, grid.SizeZ
	for _, r := range remotes {
		f := r.Frame
		if f == nil {
			continue
		}
		for ci := range f.Cols {
			x, y := unpackXY(f.Cols[ci])
			cx := (float64(x) + 0.5) * f.SizeXY
			cy := (float64(y) + 0.5) * f.SizeXY
			for site := f.ColOff[ci]; site < f.ColOff[ci+1]; site++ {
				cz := f.GroundZ + (float64(f.Zs[site])+0.5)*f.SizeZ
				p := r.Transform.Apply(geom.V3(cx, cy, cz))
				e := fuseEntry{
					col:    packXY(int32(math.Floor(p.X/sizeXY)), int32(math.Floor(p.Y/sizeXY))),
					z:      int32(math.Floor((p.Z - groundZ) / sizeZ)),
					seq:    int32(len(entries)),
					remote: true,
					px:     p.X, py: p.Y, pz: p.Z,
				}
				copy(e.f[:], f.Feats[int(site)*convChannels:int(site+1)*convChannels])
				entries = append(entries, e)
			}
		}
	}
	slices.SortFunc(entries, func(a, b fuseEntry) int {
		switch {
		case a.col != b.col:
			if a.col < b.col {
				return -1
			}
			return 1
		case a.z != b.z:
			return int(a.z - b.z)
		default:
			return int(a.seq - b.seq)
		}
	})
	s.fuseEntries = entries

	s.fuseCols = s.fuseCols[:0]
	s.fuseOff = append(s.fuseOff[:0], 0)
	s.fuseZs = s.fuseZs[:0]
	s.fuseFeats = s.fuseFeats[:0]
	s.psCols = s.psCols[:0]
	s.psOff = append(s.psOff[:0], 0)
	s.psXs, s.psYs, s.psZs = s.psXs[:0], s.psYs[:0], s.psZs[:0]

	for lo := 0; lo < len(entries); {
		col := entries[lo].col
		hi := lo
		for hi < len(entries) && entries[hi].col == col {
			hi++
		}
		for i := lo; i < hi; {
			z := entries[i].z
			var f [convChannels]float64
			for ; i < hi && entries[i].z == z; i++ {
				for c := 0; c < convChannels; c++ {
					if entries[i].f[c] > f[c] {
						f[c] = entries[i].f[c]
					}
				}
			}
			s.fuseZs = append(s.fuseZs, z)
			s.fuseFeats = append(s.fuseFeats, f[:]...)
		}
		for i := lo; i < hi; i++ {
			if !entries[i].remote {
				continue
			}
			s.psXs = append(s.psXs, entries[i].px)
			s.psYs = append(s.psYs, entries[i].py)
			s.psZs = append(s.psZs, entries[i].pz)
		}
		if n := int32(len(s.psXs)); n > s.psOff[len(s.psOff)-1] {
			s.psCols = append(s.psCols, col)
			s.psOff = append(s.psOff, n)
		}
		s.fuseCols = append(s.fuseCols, col)
		s.fuseOff = append(s.fuseOff, int32(len(s.fuseZs)))
		lo = hi
	}
	fused := &SparseTensor{Cols: s.fuseCols, ColOff: s.fuseOff, Zs: s.fuseZs, Feats: s.fuseFeats}
	ps := &pseudoSet{cols: s.psCols, off: s.psOff, xs: s.psXs, ys: s.psYs, zs: s.psZs}
	return fused, ps
}
