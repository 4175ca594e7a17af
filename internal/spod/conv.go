package spod

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

// toSparseTensor lifts a voxel grid into the initial feature tensor,
// writing the feature planes into feats (grown as needed).
func toSparseTensor(g *VoxelGrid, feats []float64) (*SparseTensor, []float64) {
	feats = grow(feats, len(g.Feats)*convChannels)
	for i, f := range g.Feats {
		feats[i*convChannels+0] = f.Density
		feats[i*convChannels+1] = f.SpanZ
		feats[i*convChannels+2] = f.MeanIntensity
	}
	return &SparseTensor{Cols: g.Cols, ColOff: g.ColOff, Zs: g.Zs, Feats: feats}, feats
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

// applyInto writes the sparse convolution of in to the feature plane
// outFeats (len(in.Feats)). Output sites are exactly the occupied input
// sites: the "submanifold" sparse convolution that keeps compute
// proportional to occupancy. Sites are processed column by column; within a site,
// taps accumulate in the fixed (dz, dy, dx) kernel order, skipping
// unoccupied neighbours — the order is a constant of the layout, so the
// floating-point sums are identical on every run.
func (w ConvWeights) applyInto(in *SparseTensor, outFeats []float64) {
	for ci := range in.Cols {
		x, y := unpackXY(in.Cols[ci])
		// Resolve the 3×3 neighbourhood's columns once per column; each
		// holds a short ascending z run.
		var nbCol [3][3]int32    // [dy+1][dx+1] → column index, -1 if empty
		var nbCursor [3][3]int32 // scan position, advances with z
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				nc := int32(findCol(in.Cols, packXY(x+dx, y+dy)))
				nbCol[dy+1][dx+1] = nc
				if nc >= 0 {
					nbCursor[dy+1][dx+1] = in.ColOff[nc]
				}
			}
		}
		for s := in.ColOff[ci]; s < in.ColOff[ci+1]; s++ {
			z := in.Zs[s]
			// Locate the up-to-27 occupied neighbours of (x, y, z): for
			// each neighbour column, the sites with z-1 ≤ Z ≤ z+1.
			var nbSite [3][3][3]int32 // [dy+1][dx+1][dz+1] → site index
			for dyi := 0; dyi < 3; dyi++ {
				for dxi := 0; dxi < 3; dxi++ {
					nbSite[dyi][dxi] = [3]int32{-1, -1, -1}
					nc := nbCol[dyi][dxi]
					if nc < 0 {
						continue
					}
					hi := in.ColOff[nc+1]
					cur := nbCursor[dyi][dxi]
					for cur < hi && in.Zs[cur] < z-1 {
						cur++
					}
					nbCursor[dyi][dxi] = cur // z ascends with s: resume here
					for j := cur; j < hi && in.Zs[j] <= z+1; j++ {
						nbSite[dyi][dxi][in.Zs[j]-z+1] = j
					}
				}
			}
			var spatial [convChannels]float64
			for dzi := 0; dzi < 3; dzi++ {
				for dyi := 0; dyi < 3; dyi++ {
					for dxi := 0; dxi < 3; dxi++ {
						nb := nbSite[dyi][dxi][dzi]
						if nb < 0 {
							continue
						}
						tap := w.Spatial[dzi][dyi][dxi]
						f := in.Feats[int(nb)*convChannels:]
						for c := 0; c < convChannels; c++ {
							spatial[c] += tap * f[c]
						}
					}
				}
			}
			o0 := int(s) * convChannels
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
}

// runMiddleLayers applies the layer stack in order, ping-ponging between
// the scratch's two feature planes so the whole stack allocates nothing.
func runMiddleLayers(t *SparseTensor, layers []ConvWeights, s *DetectorScratch) *SparseTensor {
	if len(layers) == 0 {
		return t
	}
	s.featB = grow(s.featB, len(t.Feats))
	cur, next := t, &SparseTensor{Cols: t.Cols, ColOff: t.ColOff, Zs: t.Zs, Feats: s.featB}
	for _, l := range layers {
		l.applyInto(cur, next.Feats)
		cur, next = next, cur
	}
	return cur
}
