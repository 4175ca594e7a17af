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
// scratch makes the same heap allocations whatever GOMAXPROCS is: the
// pass runs on the caller's goroutine and starts none of its own, so an
// exact allocation count measured on one core holds on any. It counts
// with runtime.MemStats rather than testing.AllocsPerRun, which pins
// GOMAXPROCS to 1 while it measures. MemStats counts the whole process,
// and the runtime itself now and then allocates (an M when it starts a
// thread, a goroutine, a wait-queue entry), so each batch starts after a
// collection and the test keeps the smallest of several batches.
func TestDetectAllocsIndependentOfProcs(t *testing.T) {
	cloud := noisyCloud(20000)
	det := NewDefault()
	s := NewScratch()
	det.Detect(cloud, nil, s) // grow the scratch to this frame
	const batches, runs = 3, 10
	mallocs := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		least := uint64(math.MaxUint64)
		for range batches {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				det.Detect(cloud, nil, s)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	one, two := mallocs(1), mallocs(2)
	if one != two {
		t.Fatalf("%d detections allocate %d objects at GOMAXPROCS 1 but %d at GOMAXPROCS 2 (%.1f vs %.1f each)",
			runs, one, two, float64(one)/runs, float64(two)/runs)
	}
	t.Logf("%.1f allocations per detection", float64(one)/runs)
}
