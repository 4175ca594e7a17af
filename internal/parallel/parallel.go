// Package parallel provides the bounded fan-out/fan-in primitives the
// Cooper evaluation engine uses to spread independent work — pose
// sensing, cooperative cases, episode frames, figure generators, ray
// casting — across CPU cores while keeping outputs deterministic. The
// SPOD detector is not among them: each pass runs on its caller's
// goroutine, one pass per worker slot.
//
// Every primitive is ordered: work item i writes only slot i of its
// result slice, so results are positionally identical to a sequential
// loop no matter how goroutines interleave. Callers keep determinism by
// making each item's computation independent (own RNG, no shared mutable
// state); the package then guarantees the fan-in order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes 0 or a
// negative value: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a worker-count knob: values < 1 become
// DefaultWorkers(), everything else is returned unchanged.
func Normalize(workers int) int {
	if workers < 1 {
		return DefaultWorkers()
	}
	return workers
}

// WorkerCount returns the number of worker slots For/ForWorker will use
// for n items at the given workers knob — the size callers give
// per-worker state slices (scratch buffers, local accumulators).
func WorkerCount(workers, n int) int {
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines.
// Items are claimed dynamically (work stealing via a shared counter), so
// uneven item costs still balance. workers <= 1 (after normalising 0 and
// negatives to DefaultWorkers) runs the loop inline with no goroutines —
// the sequential path is literally a for loop.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// ForWorker is For where fn additionally receives the slot index of the
// goroutine running the item: 0 ≤ worker < WorkerCount(workers, n).
// Items claimed by the same slot run sequentially, so per-slot state —
// a detector scratch, a local accumulator — needs no locking. Which slot
// runs which item is scheduling-dependent; deterministic callers must
// keep per-slot state free of item-visible effects (reused buffers are
// fine, carried-over values are not).
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = WorkerCount(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// ForErr is For with error-returning work. Every item runs (there is no
// early cancellation, so side effects match the no-error case) and the
// error of the lowest-indexed failing item is returned — the same error
// a sequential loop would have hit first, keeping failure reporting
// deterministic.
func ForErr(workers, n int, fn func(i int) error) error {
	return ForErrWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForErrWorker is ForErr with the worker slot index (see ForWorker).
func ForErrWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForWorker(workers, n, func(w, i int) {
		errs[i] = fn(w, i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapErr applies fn to every index in [0, n) and returns the results in
// index order: out[i] = fn(i). The ordered fan-in makes a parallel map
// positionally indistinguishable from the sequential loop. On error it
// returns nil results and the lowest-indexed item's error.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapErrWorker(workers, n, func(_, i int) (T, error) { return fn(i) })
}

// MapErrWorker is MapErr where fn additionally receives the worker slot
// index (see ForWorker) — the hook for threading per-worker scratch
// state through a parallel map without locking.
func MapErrWorker[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForErrWorker(workers, n, func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
