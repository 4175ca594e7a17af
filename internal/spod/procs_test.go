package spod

import (
	"math"
	"runtime"
	"testing"

	"cooper/internal/pointcloud"
)

// noisyCloud builds a deterministic pseudo-random cloud of n points
// scattered over an 80 m square, 0–3 m high.
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

// TestDetectAllocsIndependentOfProcs checks that a detection on a warmed
// scratch makes the same heap allocations whatever GOMAXPROCS is and
// however often the collector runs, on a single-sensor frame and on a
// cooperative merge through CoopConfig's voxel dedup. The pass runs on
// the caller's goroutine and starts none of its own, and every buffer it
// reuses, the dedup table included, lives in the scratch rather than in
// a per-P pool the GC empties, so an exact allocation count measured on
// one core holds on any. It counts with runtime.MemStats rather than
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 while it measures.
// MemStats counts the whole process, and the runtime itself now and then
// allocates (an M when it starts a thread, a goroutine, a wait-queue
// entry), so each batch starts after a collection and the test keeps the
// smallest of several batches.
func TestDetectAllocsIndependentOfProcs(t *testing.T) {
	cases := []struct {
		name  string
		det   *Detector
		cloud *pointcloud.Cloud
	}{
		{"single", NewDefault(), noisyCloud(20000)},
		{"coop", New(CoopConfig(DefaultConfig(), 10)), twoViewMerge()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScratch()
			tc.det.Detect(tc.cloud, nil, s) // grow the scratch to this frame
			const batches, runs = 3, 10
			// mallocs counts the allocations of runs detections. With
			// collect set, two collections precede each detection: they
			// empty every sync.Pool, victim cache included, so a buffer
			// drawn from a pool instead of the scratch is made anew.
			mallocs := func(procs int, collect bool) uint64 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				least := uint64(math.MaxUint64)
				for range batches {
					runtime.GC()
					total := uint64(0)
					for range runs {
						if collect {
							runtime.GC()
							runtime.GC()
						}
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						tc.det.Detect(tc.cloud, nil, s)
						runtime.ReadMemStats(&after)
						total += after.Mallocs - before.Mallocs
					}
					least = min(least, total)
				}
				return least
			}
			one, two, collected := mallocs(1, false), mallocs(2, false), mallocs(1, true)
			if one != two || one != collected {
				t.Fatalf("%d detections allocate %d objects at GOMAXPROCS 1, %d at GOMAXPROCS 2 and %d after collections (%.1f, %.1f and %.1f each)",
					runs, one, two, collected, float64(one)/runs, float64(two)/runs, float64(collected)/runs)
			}
			t.Logf("%.1f allocations per detection", float64(one)/runs)
		})
	}
}
