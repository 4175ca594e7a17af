package spod

import (
	"reflect"
	"testing"

	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// generatedFrameCloud senses pose 0 of a generated fleet scenario — the
// same detector input the evaluation engine produces, built here without
// importing core (which would cycle back into spod).
func generatedFrameCloud(t testing.TB) *pointcloud.Cloud {
	t.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: "intersection", Fleet: 4, Seed: 11, Traffic: 6})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	scan := lidar.NewScanner(sc.LiDAR, sc.Seed).SetWorkers(1).
		ScanFrom(sc.Poses[0], sc.Scene.Targets(), sc.Scene.GroundZ)
	return scan.Cloud
}

// stageOutputs captures the mid-pipeline state the map-keyed
// implementation left at the mercy of map iteration order: the voxel
// grid, the convolved features, the BEV map and the proposal grouping.
type stageOutputs struct {
	grid  VoxelGrid
	feats []float64
	bev   BEVMap
	comps proposalSet
}

// runStages executes voxelize → middle layers → BEV → proposals on a
// fresh scratch, deep-copying every output so runs can be compared.
func runStages(cloud *pointcloud.Cloud, cfg Config) stageOutputs {
	s := NewScratch()
	groundZ := cloud.EstimateGroundZ()
	nonGround := cloud.RemoveGroundPlaneInto(pointcloud.New(0), groundZ, cfg.GroundTolerance)
	grid := voxelize(nonGround, cfg.VoxelSizeXY, cfg.VoxelSizeZ, groundZ, s)
	tensor := runMiddleLayers(toSparseTensor(grid, s), cfg.MiddleLayers, s)
	bev := projectBEVInto(tensor, grid, s)
	comps := proposalComponentsScratch(bev, cfg.ObjectnessThreshold, grid.Cols, nil, s)

	var out stageOutputs
	out.grid = *grid
	out.grid.Cols = append([]colKey(nil), grid.Cols...)
	out.grid.ColOff = append([]int32(nil), grid.ColOff...)
	out.grid.Zs = append([]int32(nil), grid.Zs...)
	out.grid.Feats = append([]VoxelFeature(nil), grid.Feats...)
	out.grid.PtOff = append([]int32(nil), grid.PtOff...)
	out.grid.PtIdx = append([]int32(nil), grid.PtIdx...)
	out.feats = append([]float64(nil), tensor.Feats...)
	out.bev = BEVMap{
		SizeXY:     bev.SizeXY,
		Cols:       append([]colKey(nil), bev.Cols...),
		Objectness: append([]float64(nil), bev.Objectness...),
		TopZ:       append([]float64(nil), bev.TopZ...),
	}
	out.comps = proposalSet{
		keys:  append([]colKey(nil), comps.keys...),
		links: append([]candLinks(nil), comps.links...),
		cells: append([]int32(nil), comps.cells...),
		off:   append([]int32(nil), comps.off...),
	}
	return out
}

// TestStagesByteIdentical50x is the regression test for the map-order
// float accumulation bug (bev.go summed column objectness in map
// iteration order; conv.go and voxel.go were one map-range away from the
// same class): fifty fresh runs over a generated scenario must produce
// byte-identical grids, features, BEV maps and proposal groupings.
func TestStagesByteIdentical50x(t *testing.T) {
	cloud := generatedFrameCloud(t)
	cfg := DefaultConfig()
	ref := runStages(cloud, cfg)
	if ref.grid.OccupiedVoxels() == 0 || ref.comps.Len() == 0 {
		t.Fatalf("degenerate reference: %d voxels, %d proposals",
			ref.grid.OccupiedVoxels(), ref.comps.Len())
	}
	for run := 0; run < 50; run++ {
		got := runStages(cloud, cfg)
		if !reflect.DeepEqual(got.grid, ref.grid) {
			t.Fatalf("run %d: voxel grid differs", run)
		}
		if !reflect.DeepEqual(got.feats, ref.feats) {
			t.Fatalf("run %d: convolved features differ", run)
		}
		if !reflect.DeepEqual(got.bev, ref.bev) {
			t.Fatalf("run %d: BEV map differs", run)
		}
		if !reflect.DeepEqual(got.comps, ref.comps) {
			t.Fatalf("run %d: proposal components differ", run)
		}
	}
}

// TestDetectByteIdentical50x runs the full detector fifty times on a
// generated scenario — cycling a reused scratch against fresh ones — and
// requires identical detections every time: scratch reuse must leave no
// state behind.
func TestDetectByteIdentical50x(t *testing.T) {
	cloud := generatedFrameCloud(t)
	det := New(DefaultConfig())
	ref, _ := det.Detect(cloud, nil, nil)
	if len(ref) == 0 {
		t.Fatal("reference run found no cars; scenario too sparse for the stress test")
	}
	reused := NewScratch()
	for run := 0; run < 50; run++ {
		var got []Detection
		if run%3 == 0 {
			got, _ = det.Detect(cloud, nil, reused)
		} else {
			got, _ = det.Detect(cloud, nil, nil)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d (reused=%v): detections differ\n got: %v\nwant: %v",
				run, run%3 == 0, got, ref)
		}
	}
}

// TestCoopDetectByteIdentical compares the merged-cloud (dedup) path the
// cooperative passes use: same guarantee, different preprocessing.
func TestCoopDetectByteIdentical(t *testing.T) {
	cloud := generatedFrameCloud(t)
	det := New(CoopConfig(DefaultConfig(), 15))
	ref, _ := det.Detect(cloud, nil, nil)
	reused := NewScratch()
	for run := 0; run < 10; run++ {
		got, _ := det.Detect(cloud, nil, reused)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d: cooperative detections differ", run)
		}
	}
}
