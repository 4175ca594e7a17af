package pointcloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKeyFor(t *testing.T) {
	k := KeyFor(0.25, -0.25, 1.9, 0.5)
	if k != (VoxelKey{0, -1, 3}) {
		t.Errorf("KeyFor = %+v", k)
	}
}

func TestVoxelDownsampleMergesCell(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0.1, Y: 0.1, Z: 0.1, Reflectance: 0.2},
		{X: 0.3, Y: 0.3, Z: 0.3, Reflectance: 0.6},
		{X: 5, Y: 5, Z: 5, Reflectance: 1},
	})
	got := c.VoxelDownsample(1.0)
	if got.Len() != 2 {
		t.Fatalf("downsample len = %d, want 2", got.Len())
	}
	// First output voxel holds the centroid of the two co-located points.
	p := got.At(0)
	if math.Abs(p.X-0.2) > 1e-12 || math.Abs(p.Reflectance-0.4) > 1e-12 {
		t.Errorf("voxel centroid = %+v", p)
	}
}

func TestVoxelDownsampleIdempotent(t *testing.T) {
	c := randomCloud(500, 20)
	once := c.VoxelDownsample(0.5)
	twice := once.VoxelDownsample(0.5)
	// Downsampling an already-downsampled cloud at the same size cannot
	// reduce further unless centroids hop cells; allow a tiny slack.
	if twice.Len() < once.Len()*95/100 {
		t.Errorf("second downsample collapsed %d -> %d", once.Len(), twice.Len())
	}
}

func TestVoxelDownsampleNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCloud(200, seed)
		return c.VoxelDownsample(0.3).Len() <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVoxelDownsampleNonPositiveSize(t *testing.T) {
	c := randomCloud(10, 1)
	got := c.VoxelDownsample(0)
	if got.Len() != c.Len() {
		t.Error("size<=0 should clone")
	}
}

func TestVoxelDownsampleBoundsDetectorInput(t *testing.T) {
	// Merging k copies of the same scene then downsampling yields roughly
	// the single-scan voxel count — the property Cooper relies on to keep
	// detector latency flat as more vehicles contribute (Fig. 9).
	base := randomCloud(1000, 30)
	merged := base.Merge(base.Clone(), base.Clone(), base.Clone())
	ds := merged.VoxelDownsample(0.4)
	single := base.VoxelDownsample(0.4)
	if ds.Len() > single.Len()*110/100 {
		t.Errorf("downsampled merge has %d voxels, single scan %d", ds.Len(), single.Len())
	}
}
