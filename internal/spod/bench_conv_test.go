package spod

import (
	"math"
	"testing"

	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// --- Ablation: sparse vs dense convolution over realistic occupancy ---

// middleGrid voxelizes one 16-beam TJ-Scenario frame, the middle layers'
// input, and returns it with the extent of the non-ground points. The
// frame is cropped to 40 m so the dense-equivalent grid stays tractable.
func middleGrid(b *testing.B) (*VoxelGrid, [3]float64) {
	b.Helper()
	sc := scene.TJScenarios()[0]
	cloud := lidar.NewScanner(sc.LiDAR, 1).ScanFrom(sc.Poses[0], sc.Scene.Targets(), sc.Scene.GroundZ).Cloud
	cloud = cloud.Filter(func(p pointcloud.Point) bool { return p.Range() <= 40 })
	ground := cloud.EstimateGroundZ()
	nonGround := cloud.RemoveGroundPlaneInto(pointcloud.New(0), ground, 0.25)
	grid := voxelize(nonGround, 0.2, 0.25, ground, NewScratch())
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i < nonGround.Len(); i++ {
		p := nonGround.At(i)
		for d, v := range [3]float64{p.X, p.Y, p.Z} {
			lo[d], hi[d] = min(lo[d], v), max(hi[d], v)
		}
	}
	return grid, [3]float64{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}
}

// BenchmarkSpodConv measures the fusedbench span spod.conv on the
// middleGrid frame: lifting the grid to the feature tensor, building its
// rulebook and running both DefaultMiddleLayers, on a warmed scratch.
func BenchmarkSpodConv(b *testing.B) {
	grid, _ := middleGrid(b)
	layers := DefaultMiddleLayers()
	s := NewScratch()
	conv := func() *SparseTensor {
		t, featA := toSparseTensor(grid, s.featA)
		s.featA = featA
		return runMiddleLayers(t, layers, s)
	}
	conv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv()
	}
}

// BenchmarkProposalComponents measures the fusedbench span
// spod.proposal on the middleGrid frame: the BEV projection of the
// convolved tensor and the region proposal, on a warmed scratch.
func BenchmarkProposalComponents(b *testing.B) {
	grid, _ := middleGrid(b)
	s := NewScratch()
	t, featA := toSparseTensor(grid, s.featA)
	s.featA = featA
	t = runMiddleLayers(t, DefaultMiddleLayers(), s)
	thr := DefaultConfig().ObjectnessThreshold
	propose := func() *proposalSet {
		s.bevObj = grow(s.bevObj, len(t.Cols))
		s.bevTop = grow(s.bevTop, len(t.Cols))
		bev := projectBEVInto(t, grid, s.bevObj, s.bevTop)
		return proposalComponentsScratch(bev, thr, grid.Cols, nil, s)
	}
	if propose().Len() == 0 {
		b.Fatal("benchmark frame produced no proposals")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		propose()
	}
}

func BenchmarkDenseConvEquivalent(b *testing.B) {
	// One layer of the same convolution evaluated densely over the
	// tensor's bounding grid — what a non-sparse middle layer would pay,
	// against the two sparse layers BenchmarkSpodConv times. The paper
	// adopts sparse convolution precisely because LiDAR voxel grids are
	// mostly empty.
	grid, size := middleGrid(b)
	tensor, _ := toSparseTensor(grid, nil)
	layer := DefaultMiddleLayers()[0]
	nx := int(size[0]/0.2) + 1
	ny := int(size[1]/0.2) + 1
	nz := int(size[2]/0.25) + 1
	if nx*ny*nz > 40_000_000 {
		b.Skip("dense grid too large for this host")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Visit every dense site; reuse the sparse kernel at each.
		var sum float64
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					var acc [3]float64
					for dz := int32(-1); dz <= 1; dz++ {
						for dy := int32(-1); dy <= 1; dy++ {
							for dx := int32(-1); dx <= 1; dx++ {
								nb, ok := tensor.featureAt(pointcloud.VoxelKey{X: int32(x) + dx, Y: int32(y) + dy, Z: int32(z) + dz})
								if !ok {
									continue
								}
								tap := layer.Spatial[dz+1][dy+1][dx+1]
								for c := 0; c < 3; c++ {
									acc[c] += tap * nb[c]
								}
							}
						}
					}
					sum += acc[0]
				}
			}
		}
		_ = sum
	}
}
