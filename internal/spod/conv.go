package spod

import (
	"math"
	"math/bits"
)

// convChannels is the width of the sparse feature maps: density, height
// span and mean intensity.
const convChannels = 3

// SparseTensor is a sparse 3D feature map: only voxels with data carry a
// feature vector. This mirrors the sparse convolutional middle layers of
// SECOND/SPOD, where "output points are not computed if there is no
// related input points". Sites are stored in the voxel grid's fixed
// column-major order (Cols ascending, z ascending within a column), with
// the convChannels feature planes flattened into Feats: site i owns
// Feats[i*convChannels : (i+1)*convChannels]. A convolution's output
// sites equal its input sites, so layers share Cols/ColOff/Zs and only
// exchange feature planes — the double buffer a DetectorScratch reuses.
type SparseTensor struct {
	Cols   []colKey
	ColOff []int32
	Zs     []int32
	Feats  []float64
}

// toSparseTensor lifts a voxel grid into the initial feature tensor, the
// scratch's tensorA, writing the feature planes into featA (grown as
// needed).
func toSparseTensor(g *VoxelGrid, s *DetectorScratch) *SparseTensor {
	s.featA = grow(s.featA, len(g.Feats)*convChannels)
	feats := s.featA
	for i, f := range g.Feats {
		feats[i*convChannels+0] = f.Density
		feats[i*convChannels+1] = f.SpanZ
		feats[i*convChannels+2] = f.MeanIntensity
	}
	s.tensorA = SparseTensor{Cols: g.Cols, ColOff: g.ColOff, Zs: g.Zs, Feats: feats}
	return &s.tensorA
}

// ConvWeights parameterises one sparse convolution layer: a 3×3×3
// depthwise spatial kernel shared across channels plus a channel-mixing
// matrix, followed by ReLU.
type ConvWeights struct {
	// Spatial holds the 27 kernel taps indexed [dz+1][dy+1][dx+1].
	Spatial [3][3][3]float64
	// Mix is the channels×channels pointwise matrix applied after the
	// spatial pass.
	Mix [convChannels][convChannels]float64
	// Bias is added per channel before ReLU.
	Bias [convChannels]float64
}

// gaussianKernel returns a normalised 3×3×3 blur: centre-weighted so
// isolated voxels keep most of their signal while neighbourhood evidence
// reinforces.
func gaussianKernel() [3][3][3]float64 {
	var k [3][3][3]float64
	sum := 0.0
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				w := 1.0
				for _, d := range []int{dx, dy, dz} {
					if d == 0 {
						w *= 2
					}
				}
				k[dz+1][dy+1][dx+1] = w
				sum += w
			}
		}
	}
	for dz := 0; dz < 3; dz++ {
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				k[dz][dy][dx] /= sum
			}
		}
	}
	return k
}

// DefaultMiddleLayers returns the two fixed sparse convolution layers of
// the middle network: both smooth spatially; the channel mix keeps the
// three feature channels mostly independent with slight density↔span
// coupling so structured (tall, dense) evidence reinforces itself.
func DefaultMiddleLayers() []ConvWeights {
	blur := gaussianKernel()
	layer := ConvWeights{
		Spatial: blur,
		Mix: [convChannels][convChannels]float64{
			{0.9, 0.1, 0.0},
			{0.1, 0.9, 0.0},
			{0.0, 0.0, 1.0},
		},
	}
	return []ConvWeights{layer, layer}
}

// rulebook lists every site's occupied 3×3×3 neighbourhood. Bit k of
// taps[i] is set when site i's kernel tap k = (dz+1)·9 + (dy+1)·3 +
// (dx+1) lands on an occupied site; nbs holds those neighbour sites, site
// after site and ascending tap within a site, so reading the set bits
// upward walks nbs in the fixed (dz, dy, dx) kernel order. It depends
// only on the site layout, so the middle layers, which share one layout,
// share one rulebook, as SECOND reuses its submanifold indices across
// layers.
type rulebook struct {
	taps []uint32
	nbs  []int32
}

// build resolves the rulebook of t's layout, reusing rb's storage. The
// neighbour columns come from a row walk: for each dx, the lowest column
// at or past (x+dx, y−1) only moves forward as ci ascends, so one cursor
// per dx finds every column's occupied 3×3 neighbourhood in a single
// pass. Inside a neighbour column a z cursor likewise only moves forward
// as the site's z ascends. z and coordinate offsets run in int64 and
// clip, so a site at an int32 limit keeps every tap it has.
func (rb *rulebook) build(t *SparseTensor) {
	rb.taps = rb.taps[:0]
	rb.nbs = rb.nbs[:0]
	cols, zs := t.Cols, t.Zs
	// nbCol is one occupied neighbour column: its z cursor, its end and
	// its in-plane tap offset (dy+1)·3 + (dx+1).
	type nbCol struct{ cur, end, tap int32 }
	var nbCols [9]nbCol
	var nbSite [27]int32 // valid where the site's mask bit is set
	var rowCur [3]int    // [dx+1] → first column at or past (x+dx, y−1)
	for ci, key := range cols {
		x, y := unpackXY(key)
		ylo, yhi := clipInt32(int64(y)-1), clipInt32(int64(y)+1)
		n := 0
		for dxi := range rowCur {
			nx := int64(x) + int64(dxi) - 1
			if nx < math.MinInt32 || nx > math.MaxInt32 {
				continue
			}
			lo, hi := packXY(int32(nx), ylo), packXY(int32(nx), yhi)
			j := rowCur[dxi]
			for j < len(cols) && cols[j] < lo {
				j++
			}
			rowCur[dxi] = j
			for ; j < len(cols) && cols[j] <= hi; j++ {
				_, ny := unpackXY(cols[j])
				nbCols[n] = nbCol{cur: t.ColOff[j], end: t.ColOff[j+1], tap: int32(int64(ny)-int64(y)+1)*3 + int32(dxi)}
				n++
			}
		}
		for s := t.ColOff[ci]; s < t.ColOff[ci+1]; s++ {
			// The occupied neighbours of (x, y, z): in each neighbour
			// column, the sites with z-1 ≤ Z ≤ z+1.
			z := int64(zs[s])
			var mask uint32
			for k := range nbCols[:n] {
				c := &nbCols[k]
				for c.cur < c.end && int64(zs[c.cur]) < z-1 {
					c.cur++ // z ascends with s: the cursor never backs up
				}
				for j := c.cur; j < c.end && int64(zs[j]) <= z+1; j++ {
					tap := int32(int64(zs[j])-z+1)*9 + c.tap
					nbSite[tap] = j
					mask |= 1 << tap
				}
			}
			rb.taps = append(rb.taps, mask)
			for ; mask != 0; mask &= mask - 1 {
				rb.nbs = append(rb.nbs, nbSite[bits.TrailingZeros32(mask)])
			}
		}
	}
}

// applyInto writes the sparse convolution of in to the feature plane
// outFeats (len(in.Feats)), reading each site's neighbourhood from rb,
// the rulebook of in's layout. Output sites are exactly the occupied
// input sites: the "submanifold" sparse convolution that keeps compute
// proportional to occupancy. Within a site, taps accumulate in the fixed
// (dz, dy, dx) kernel order the rulebook lists, skipping unoccupied
// neighbours — the order is a constant of the layout, so the
// floating-point sums are identical on every run.
func (w ConvWeights) applyInto(in *SparseTensor, rb *rulebook, outFeats []float64) {
	var taps [27]float64
	for dzi := range w.Spatial {
		for dyi := range w.Spatial[dzi] {
			for dxi, v := range w.Spatial[dzi][dyi] {
				taps[dzi*9+dyi*3+dxi] = v
			}
		}
	}
	k := 0 // next neighbour in rb.nbs
	for s, mask := range rb.taps {
		var s0, s1, s2 float64 // the spatial pass, one sum per channel
		for ; mask != 0; mask &= mask - 1 {
			tap := taps[bits.TrailingZeros32(mask)]
			i := int(rb.nbs[k]) * convChannels
			k++
			f := in.Feats[i : i+convChannels : i+convChannels]
			s0 += tap * f[0]
			s1 += tap * f[1]
			s2 += tap * f[2]
		}
		spatial := [convChannels]float64{s0, s1, s2}
		o0 := s * convChannels
		for o := 0; o < convChannels; o++ {
			v := w.Bias[o]
			for c := 0; c < convChannels; c++ {
				v += w.Mix[o][c] * spatial[c]
			}
			if v < 0 { // ReLU
				v = 0
			}
			outFeats[o0+o] = v
		}
	}
}

// runMiddleLayers resolves the tensor's rulebook once and applies the
// layer stack in order, ping-ponging between the scratch's two feature
// planes so the whole stack allocates nothing.
func runMiddleLayers(t *SparseTensor, layers []ConvWeights, s *DetectorScratch) *SparseTensor {
	if len(layers) == 0 {
		return t
	}
	s.rules.build(t)
	s.featB = grow(s.featB, len(t.Feats))
	s.tensorB = SparseTensor{Cols: t.Cols, ColOff: t.ColOff, Zs: t.Zs, Feats: s.featB}
	cur, next := t, &s.tensorB
	for _, l := range layers {
		l.applyInto(cur, &s.rules, next.Feats)
		cur, next = next, cur
	}
	return cur
}
