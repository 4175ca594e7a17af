package spod

import (
	"reflect"
	"testing"

	"cooper/internal/pointcloud"
)

// noisyCloud builds a deterministic pseudo-random cloud large enough to
// span several parallel chunks.
func noisyCloud(n int) *pointcloud.Cloud {
	c := pointcloud.New(n)
	state := uint64(1)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		c.AppendXYZR(next()*80-40, next()*80-40, next()*3, next())
	}
	return c
}

// TestProjectSphericalWorkersIdentical checks that the parallel binning
// phase leaves the order-sensitive echo insertion untouched: range images
// are identical at every worker count.
func TestProjectSphericalWorkersIdentical(t *testing.T) {
	cloud := noisyCloud(20000)
	cfg := DefaultSphericalConfig()
	cfg.Workers = 1
	ref := projectSpherical(cloud, cfg, NewScratch())
	for _, workers := range []int{0, 3, 16} {
		cfg.Workers = workers
		got := projectSpherical(cloud, cfg, NewScratch())
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: range image differs from sequential", workers)
		}
	}
}

// TestVoxelizeWorkersIdentical checks the voxel feature build: key
// computation parallelizes, accumulation stays in point order, so grids
// are identical at every worker count. The grid is pure sorted slices,
// so DeepEqual compares the whole structure byte for byte.
func TestVoxelizeWorkersIdentical(t *testing.T) {
	cloud := noisyCloud(30000)
	ref := voxelizeFresh(cloud, 0.2, 0.25, 0, 1)
	for _, workers := range []int{0, 5} {
		got := voxelizeFresh(cloud, 0.2, 0.25, 0, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: voxel grid differs from sequential", workers)
		}
	}
	// The detector's in-scratch build must match too, on a scratch a
	// different cloud has already grown.
	s := NewScratch()
	voxelize(noisyCloud(5000), 0.2, 0.25, 0, 1, s)
	if !reflect.DeepEqual(voxelize(cloud, 0.2, 0.25, 0, 1, s), ref) {
		t.Fatal("voxelize on a reused scratch and Voxelize disagree")
	}
}

// TestDetectorWorkersIdentical runs the full pipeline at several worker
// counts and requires identical detections.
func TestDetectorWorkersIdentical(t *testing.T) {
	cloud := noisyCloud(15000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	ref, _ := New(cfg).Detect(cloud, nil, nil)
	for _, workers := range []int{0, 4} {
		cfg.Workers = workers
		got, _ := New(cfg).Detect(cloud, nil, nil)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: detections differ from sequential", workers)
		}
	}
}
