package spod

import (
	"math/bits"

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

// featureAt returns the feature vector of the site at k, if occupied.
// The slice aliases the tensor.
func (t *SparseTensor) featureAt(k pointcloud.VoxelKey) ([]float64, bool) {
	c := findCol(t.Cols, packXY(k.X, k.Y))
	if c < 0 {
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
	w.applyInto(in, out.Feats)
	return out
}

// cellAt returns the (objectness, topZ) of the BEV column at k, if
// occupied.
func (m *BEVMap) cellAt(k pointcloud.VoxelKey) (objectness, topZ float64, ok bool) {
	c := findCol(m.Cols, packXY(k.X, k.Y))
	if c < 0 {
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
