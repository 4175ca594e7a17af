package spod

import (
	"testing"
)

// BenchmarkDetectFrame measures one full SPOD pass — the per-frame hot
// path of every evaluation figure, episode frame and hub fusion round.
// CI records it (with -benchmem) as BENCH_detect.json; the tracked
// numbers are allocs/op and B/op, the detector's allocation budget.
func BenchmarkDetectFrame(b *testing.B) {
	cloud := sceneWithCars(1, 120,
		[3]float64{12, 3, 0.4},
		[3]float64{22, -6, 1.0},
		[3]float64{-15, 8, 2.2},
	)
	det := NewDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dets, _ := det.Detect(cloud, nil, nil); len(dets) == 0 {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(merged, nil, nil)
	}
}
