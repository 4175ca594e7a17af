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

// fuseSite stages one remote site for the merge: its aligned centre
// (which becomes a pseudo-point) and its feature vector. The sort moves
// only the site's 16-byte voxEntry record, whose idx points here.
type fuseSite struct {
	p [3]float64
	f [convChannels]float64
}

// pseudoSet indexes the remote pseudo-points by receiver BEV column
// (CSR, columns ascending): column cols[c] owns points off[c]..off[c+1].
type pseudoSet struct {
	cols       []colKey
	off        []int32
	xs, ys, zs []float64
}

// column returns the pseudo-point index range [lo, hi) of column index
// c; a nil set or c < 0 (no pseudo column) has none.
func (ps *pseudoSet) column(c int32) (lo, hi int32) {
	if ps == nil || c < 0 {
		return 0, 0
	}
	return ps.off[c], ps.off[c+1]
}

// fuseFeatureTensors merges the receiver's own tensor with every remote
// frame re-binned into the receiver's voxel coordinates, and runs of
// equal (column, z) fold by element-wise max. Own sites are already in
// (column, z) order, so only the remote sites are sorted: staged as
// voxEntry records in creation order and ordered by sortByColumnZ, a
// stable radix sort (a z pass, then the column passes) that is exact
// over the whole int32 range. A merge then walks both lists, own sites
// first on a (column, z) tie, remote sites in creation order. Max is
// order-insensitive, so the fused tensor is identical however the
// payloads were produced. The returned tensor and pseudo set alias the
// scratch.
func fuseFeatureTensors(own *SparseTensor, grid *VoxelGrid, groundZ float64, remotes []RemoteFeatures, s *DetectorScratch) (*SparseTensor, *pseudoSet) {
	n := 0
	for _, r := range remotes {
		if r.Frame != nil {
			n += len(r.Frame.Zs)
		}
	}
	// voxelize is done with the entry table: the records and the sort's
	// second buffer reuse it.
	s.entries = grow(s.entries, 2*n)
	s.fuseSites = grow(s.fuseSites, n)
	recs, sites := s.entries[:n], s.fuseSites
	i := 0
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
				recs[i] = voxEntry{
					x:   int32(math.Floor(p.X / sizeXY)),
					y:   int32(math.Floor(p.Y / sizeXY)),
					z:   int32(math.Floor((p.Z - groundZ) / sizeZ)),
					idx: int32(i),
				}
				sites[i].p = [3]float64{p.X, p.Y, p.Z}
				copy(sites[i].f[:], f.Feats[int(site)*convChannels:int(site+1)*convChannels])
				i++
			}
		}
	}
	recs = sortByColumnZ(recs, s.entries[n:2*n], &s.radixCount)

	s.fuseCols = s.fuseCols[:0]
	s.fuseOff = append(s.fuseOff[:0], 0)
	s.fuseZs = s.fuseZs[:0]
	s.fuseFeats = s.fuseFeats[:0]
	s.psCols = s.psCols[:0]
	s.psOff = append(s.psOff[:0], 0)
	s.psXs, s.psYs, s.psZs = s.psXs[:0], s.psYs[:0], s.psZs[:0]

	oc, ri := 0, 0
	for oc < len(own.Cols) || ri < len(recs) {
		// The next column of either list.
		var col colKey
		switch {
		case ri == len(recs):
			col = own.Cols[oc]
		case oc == len(own.Cols):
			col = packXY(recs[ri].x, recs[ri].y)
		default:
			col = min(own.Cols[oc], packXY(recs[ri].x, recs[ri].y))
		}
		o, oEnd := int32(0), int32(0)
		if oc < len(own.Cols) && own.Cols[oc] == col {
			o, oEnd = own.ColOff[oc], own.ColOff[oc+1]
			oc++
		}
		rStart := ri
		for ri < len(recs) && packXY(recs[ri].x, recs[ri].y) == col {
			ri++
		}
		run := recs[rStart:ri]
		for r := 0; o < oEnd || r < len(run); {
			var z int32
			if r == len(run) || (o < oEnd && own.Zs[o] <= run[r].z) {
				z = own.Zs[o]
			} else {
				z = run[r].z
			}
			var f [convChannels]float64
			for ; o < oEnd && own.Zs[o] == z; o++ {
				maxInto(&f, own.Feats[int(o)*convChannels:])
			}
			for ; r < len(run) && run[r].z == z; r++ {
				maxInto(&f, sites[run[r].idx].f[:])
			}
			s.fuseZs = append(s.fuseZs, z)
			s.fuseFeats = append(s.fuseFeats, f[:]...)
		}
		if len(run) > 0 {
			for _, e := range run {
				p := &sites[e.idx].p
				s.psXs = append(s.psXs, p[0])
				s.psYs = append(s.psYs, p[1])
				s.psZs = append(s.psZs, p[2])
			}
			s.psCols = append(s.psCols, col)
			s.psOff = append(s.psOff, int32(len(s.psXs)))
		}
		s.fuseCols = append(s.fuseCols, col)
		s.fuseOff = append(s.fuseOff, int32(len(s.fuseZs)))
	}
	fused := &SparseTensor{Cols: s.fuseCols, ColOff: s.fuseOff, Zs: s.fuseZs, Feats: s.fuseFeats}
	ps := &pseudoSet{cols: s.psCols, off: s.psOff, xs: s.psXs, ys: s.psYs, zs: s.psZs}
	return fused, ps
}

// maxInto folds the feature vector v into f by element-wise max.
func maxInto(f *[convChannels]float64, v []float64) {
	for c := range f {
		if v[c] > f[c] {
			f[c] = v[c]
		}
	}
}
