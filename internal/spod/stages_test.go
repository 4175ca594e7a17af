package spod

import (
	"math/bits"
	"slices"

	"cooper/internal/pointcloud"
)

// Stage views the tests read the pipeline through. The detector never
// needs them: it runs each stage inside its scratch and reads the
// compressed layouts directly.

// voxelizeFresh runs the voxel stage into a fresh scratch, so the grid
// outlives later calls.
func voxelizeFresh(c *pointcloud.Cloud, sizeXY, sizeZ, groundZ float64) *VoxelGrid {
	return voxelize(c, sizeXY, sizeZ, groundZ, NewScratch())
}

// feature returns the feature of the voxel at k, if occupied.
func (g *VoxelGrid) feature(k pointcloud.VoxelKey) (VoxelFeature, bool) {
	c, ok := slices.BinarySearch(g.Cols, packXY(k.X, k.Y))
	if !ok {
		return VoxelFeature{}, false
	}
	for i := g.ColOff[c]; i < g.ColOff[c+1]; i++ {
		if g.Zs[i] == k.Z {
			return g.Feats[i], true
		}
	}
	return VoxelFeature{}, false
}

// featureAt returns the feature vector of the site at k, if occupied.
// The slice aliases the tensor.
func (t *SparseTensor) featureAt(k pointcloud.VoxelKey) ([]float64, bool) {
	c, ok := slices.BinarySearch(t.Cols, packXY(k.X, k.Y))
	if !ok {
		return nil, false
	}
	for i := t.ColOff[c]; i < t.ColOff[c+1]; i++ {
		if t.Zs[i] == k.Z {
			return t.Feats[int(i)*convChannels : int(i+1)*convChannels], true
		}
	}
	return nil, false
}

// apply runs the sparse convolution into a fresh feature plane that
// shares the input's site layout.
func (w ConvWeights) apply(in *SparseTensor) *SparseTensor {
	out := &SparseTensor{Cols: in.Cols, ColOff: in.ColOff, Zs: in.Zs, Feats: make([]float64, len(in.Feats))}
	var rb rulebook
	rb.build(in)
	w.applyInto(in, &rb, out.Feats)
	return out
}

// projectBEV collapses a sparse tensor to a fresh BEV map, reading voxel
// tops from the grid.
func projectBEV(t *SparseTensor, g *VoxelGrid) *BEVMap {
	return projectBEVInto(t, g, make([]float64, len(t.Cols)), make([]float64, len(t.Cols)))
}

// proposalComponents runs the region proposal stage on a fresh scratch,
// with no grid or pseudo columns to link.
func proposalComponents(m *BEVMap, threshold float64) *proposalSet {
	return proposalComponentsScratch(m, threshold, nil, nil, NewScratch())
}

// cellAt returns the (objectness, topZ) of the BEV column at k, if
// occupied.
func (m *BEVMap) cellAt(k pointcloud.VoxelKey) (objectness, topZ float64, ok bool) {
	c, ok := slices.BinarySearch(m.Cols, packXY(k.X, k.Y))
	if !ok {
		return 0, 0, false
	}
	return m.Objectness[c], m.TopZ[c], true
}

// toCloud reconstructs the range image into a fresh cloud.
func (img *RangeImage) toCloud() *pointcloud.Cloud {
	return img.ToCloudInto(pointcloud.New(img.occupied()))
}

// occupied returns the number of cells holding at least one echo.
func (img *RangeImage) occupied() int {
	n := 0
	for _, word := range img.nearOcc {
		n += bits.OnesCount64(word)
	}
	return n
}
