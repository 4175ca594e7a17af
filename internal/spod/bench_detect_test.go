package spod

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// BenchmarkDetectFrame measures one full SPOD pass — the per-frame hot
// path of every evaluation figure, episode frame and hub fusion round.
// CI records it (with -benchmem) as BENCH_detect.json; the tracked
// numbers are allocs/op and B/op, the detector's allocation budget.
//
// Every DetectFrame benchmark holds its own warmed DetectorScratch, as a
// long-lived receiver does: the package pool behind a nil scratch is
// emptied by the GC and is per-P, so drawing from it makes B/op depend
// on GC timing.
func BenchmarkDetectFrame(b *testing.B) {
	cloud := sceneWithCars(1, 120,
		[3]float64{12, 3, 0.4},
		[3]float64{22, -6, 1.0},
		[3]float64{-15, 8, 2.2},
	)
	det := NewDefault()
	s := warmScratch(det, cloud)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dets, _ := det.Detect(cloud, nil, s); len(dets) == 0 {
			b.Fatal("benchmark frame produced no detections")
		}
	}
}

// BenchmarkDetectFrameCoop measures the cooperative-merge configuration
// (voxel dedup instead of spherical reprojection) on a two-view merge.
func BenchmarkDetectFrameCoop(b *testing.B) {
	viewA := sceneWithCars(5, 60, [3]float64{18, 2, 0.3}, [3]float64{9, -5, 1.1})
	viewB := sceneWithCars(6, 60, [3]float64{18, 2, 0.3}, [3]float64{30, 4, 0.0})
	merged := viewA.Merge(viewB)
	det := New(CoopConfig(DefaultConfig(), 10))
	s := warmScratch(det, merged)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(merged, nil, s)
	}
}

// warmScratch returns a scratch that one detection of cloud has already
// grown, so B/op counts what each further frame allocates.
func warmScratch(det *Detector, cloud *pointcloud.Cloud) *DetectorScratch {
	s := NewScratch()
	det.Detect(cloud, nil, s)
	return s
}

// syntheticWall appends returns on a vertical wall face from (x0, y0) to
// (x1, y1), from the road up to height above it.
func syntheticWall(c *pointcloud.Cloud, rng *rand.Rand, x0, y0, x1, y1, height float64, n int) {
	for i := 0; i < n; i++ {
		t := rng.Float64()
		c.AppendXYZR(
			x0+t*(x1-x0)+rng.NormFloat64()*0.02,
			y0+t*(y1-y0)+rng.NormFloat64()*0.02,
			-1.73+0.3+rng.Float64()*(height-0.3),
			0.3,
		)
	}
}

// BenchmarkDetectFrameCanyon measures the fit stage's worst case, the
// fusedbench span spod.fit on an urban canyon: a two-view merge of cars
// parked beside long walls 5–6 m tall. Each wall is one oversized
// proposal that splitCluster tiles into car-length parts, and the fit
// stage rejects every one of them as too tall.
func BenchmarkDetectFrameCanyon(b *testing.B) {
	view := func(seed int64, cars ...[3]float64) *pointcloud.Cloud {
		c := sceneWithCars(seed, 60, cars...)
		rng := rand.New(rand.NewSource(seed + 100))
		syntheticWall(c, rng, -30, 9, 40, 9, 5+rng.Float64(), 12000)
		syntheticWall(c, rng, -30, -9, 40, -9, 5+rng.Float64(), 12000)
		syntheticWall(c, rng, 12, 14, 12, 40, 5+rng.Float64(), 5000)
		return c
	}
	viewA := view(7, [3]float64{14, 6.5, 0}, [3]float64{24, -6.5, math.Pi}, [3]float64{-8, 6.5, 0.05})
	viewB := view(8, [3]float64{14, 6.5, 0}, [3]float64{32, 6.5, 0}, [3]float64{4, -6.5, 0})
	merged := viewA.Merge(viewB)
	det := New(CoopConfig(DefaultConfig(), 10))
	s := warmScratch(det, merged)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dets, _ := det.Detect(merged, nil, s); len(dets) == 0 {
			b.Fatal("benchmark frame produced no detections")
		}
	}
}

// BenchmarkDetectFrameHDL64 measures the single-origin path, the
// micro-benchmark for the fusedbench spans spod.preprocess and
// spod.voxel: one ray-cast HDL-64E frame (0.2° azimuth step) of a
// generated intersection through DefaultConfig — spherical projection,
// inpainting, reconstruction and the column sort of the voxelizer — as
// every feature-level sender runs before it publishes.
func BenchmarkDetectFrameHDL64(b *testing.B) {
	sc, err := scene.Generate(scene.GenParams{Family: "intersection", Fleet: 4, Seed: 11, Traffic: 6})
	if err != nil {
		b.Fatal(err)
	}
	sensor := lidar.HDL64()
	cloud := lidar.NewScanner(sensor, sc.Seed).SetWorkers(1).
		ScanFrom(sc.Poses[0], sc.Scene.Targets(), sc.Scene.GroundZ).Cloud
	cfg := DefaultConfig()
	cfg.VerticalFOVTop = sensor.MaxElevation()
	det := New(cfg)
	s := warmScratch(det, cloud)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dets, _ := det.Detect(cloud, nil, s); len(dets) == 0 {
			b.Fatal("benchmark frame produced no detections")
		}
	}
}
