package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cooper/internal/store"
)

// options are one benchmark invocation's knobs. The CLI sets seed,
// seconds and trace; the rest default to the benchmark's shape and are
// changed only by the smoke test.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workers is the goroutines per phase: 2, or fewer on a smaller host.
	workers int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// warmup is the number of untimed ticks each set-up drives.
	warmup int
	// minFrames keeps the timed loop going until this many ego frames
	// have completed, so p90 has at least ten samples beyond it.
	minFrames int
	// fleet and scenes, when > 0, override the workload's (smoke test).
	fleet, scenes int
}

func defaultOptions() options {
	return options{seed: 1, seconds: 15, workers: min(2, runtime.NumCPU()), setups: 5, warmup: 2, minFrames: 100}
}

// stealLimitS is the most CPU time, summed over CPUs, the hypervisor may
// take from this machine during a tick for the tick's timings to count:
// one 10 ms accounting tick. Another guest running on this machine's
// CPUs slows every wall-time (and CPU-time) number by far more than the
// time it is reported to steal, so ticks it touched are kept for the
// byte, quality and correctness metrics but left out of the timings.
const stealLimitS = 0.01

// maxWallFactor bounds a loop on a busy host: after this many times the
// requested seconds it stops even with fewer clean seconds measured.
const maxWallFactor = 1.75

func (t tickRec) clean() bool { return t.stealS <= stealLimitS }

// loopResult is one timed closed loop on a live rig.
type loopResult struct {
	ticks     []tickRec
	minFrames int
	warm      []tickRec
	wallS     float64
	capped    bool // the loop stopped at maxWallFactor, not on clean time
	spans     []span
	digest    string
	// counter deltas over the timed ticks, keyed by telemetry name.
	counters map[string]int64
	retries  int64
	mem      runtime.MemStats // deltas of TotalAlloc, Mallocs, PauseTotalNs
	logBytes int64
	replayed int
	badRepl  int
	// badServed describes first-pass frames whose served payloads did
	// not match their independent derivation.
	badServed []string
}

// counterNames are the hub telemetry counters the benchmark reads.
var counterNames = []string{
	"hub_publish_drops_total",
	"hub_keyframe_misses_total",
	"hub_round_stale_senders_total",
	"hub_round_payload_bytes_cat1_total",
	"hub_round_payload_bytes_cat2_total",
	"hub_round_payload_bytes_cat3_total",
	"hub_round_payload_bytes_cat4_total",
}

// setUp starts a rig and drives its warm-up ticks; it returns the rig,
// the warm-up records and the set-up wall time in seconds, less the
// rig's off-clock work.
func setUp(w workload, in *inputs, o options) (*rig, []tickRec, float64, error) {
	start := time.Now()
	r, err := newRig(w, in, o.workers)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := make([]tickRec, 0, o.warmup)
	for g := 0; g < o.warmup; g++ {
		warm = append(warm, r.tick(g))
	}
	return r, warm, time.Since(start).Seconds() - r.off.s, nil
}

// timedLoop drives ticks on a warmed rig until it has measured the
// requested seconds of clean ticks (or run maxWallFactor times that long),
// done at least one full pass over the inputs (the digest's domain) and
// completed enough ego frames for the tail percentile. The rig's
// off-clock work between ticks counts in neither its wall time nor its
// allocations.
func timedLoop(r *rig, warm []tickRec, o options, traced bool) (*loopResult, error) {
	res := &loopResult{warm: warm, minFrames: o.minFrames, counters: make(map[string]int64)}
	before := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		before[n] = r.reg.Counter(n).Value()
	}
	retries0 := r.keyframeRetries()
	log0 := r.logSize()
	off0 := r.off
	r.tr = newTracer(traced)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	onClock := func() float64 { return time.Since(start).Seconds() - r.off.minus(off0).s }
	var cleanS float64
	cleanFrames := 0
	for g := len(warm); ; g++ {
		t := r.tick(g)
		res.ticks = append(res.ticks, t)
		if t.clean() {
			cleanS += t.ms / 1000
			cleanFrames += egos
		}
		if g+1 < len(r.in.ticks) || len(res.ticks)*egos < o.minFrames {
			continue // the digest's pass and the tail percentile come first
		}
		if cleanS >= o.seconds && cleanFrames >= o.minFrames {
			break
		}
		if onClock() >= o.seconds*maxWallFactor {
			res.capped = true
			break
		}
	}
	res.wallS = onClock()
	runtime.ReadMemStats(&m1)

	off := r.off.minus(off0)
	res.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc - off.alloc
	res.mem.Mallocs = m1.Mallocs - m0.Mallocs - off.mallocs
	res.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs - off.pauseNs
	for _, n := range counterNames {
		res.counters[n] = r.reg.Counter(n).Value() - before[n]
	}
	res.retries = r.keyframeRetries() - retries0
	res.logBytes = r.logSize() - log0
	res.spans = r.tr.all
	r.tr = newTracer(false)
	all := append(append([]tickRec(nil), warm...), res.ticks...)
	res.digest = digest(r, all)
	res.badServed = r.verifyServed(all)

	if r.ew != nil {
		r.sealSegment() // the last, partial pass
	}
	res.replayed, res.badRepl = r.replayed, r.badRepl
	return res, r.replayErr
}

// keyframeRetries sums the egos' in-band CPD1 recoveries and the
// in-process publishers' mirrored ones.
func (r *rig) keyframeRetries() int64 {
	var n int64
	for _, cl := range r.clients {
		n += int64(cl.KeyframeRetries())
	}
	for _, v := range r.retries {
		n += int64(v)
	}
	return n
}

// logSize is the episode log's encoded size so far.
func (r *rig) logSize() int64 {
	if r.ew == nil {
		return r.logBytes
	}
	return r.logBytes + r.ew.Bytes()
}

// digest hashes the fused detections of every ego frame in the first
// pass over the inputs, in (tick, ego) order. It depends only on the
// seed and the workload, never on timing or the worker count, so a
// traced and an untraced run, or runs at 1 and 2 workers, must agree.
func digest(r *rig, ticks []tickRec) string {
	var recs []frameRec
	for _, t := range ticks {
		if t.g < len(r.in.ticks) {
			recs = append(recs, t.frames[:]...)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].g != recs[j].g {
			return recs[i].g < recs[j].g
		}
		return recs[i].ego < recs[j].ego
	})
	h := sha256.New()
	var buf [8]byte
	for _, f := range recs {
		binary.LittleEndian.PutUint64(buf[:], uint64(f.g*egos+f.ego))
		h.Write(buf[:])
		h.Write(store.EncodeDetections(store.Detections{Frame: f.g, Receiver: r.in.labels[f.ego], Dets: f.dets}))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runOutcome is everything one invocation measured.
type runOutcome struct {
	w       workload
	in      *inputs
	setupS  []float64
	plain   *loopResult // untraced
	traced  *loopResult // nil unless tracing
	workers int
	// attempted and failed count ego frames over every loop run.
	attempted, failed int
	failures          []string
}

// run executes one benchmark invocation: generate the inputs, set up
// o.setups times (keeping the last rig), run the untraced timed loop and,
// when tracing, a traced loop on a fresh rig.
func run(w workload, o options) (*runOutcome, error) {
	if o.fleet > 0 {
		w.fleet = o.fleet
	}
	if o.scenes > 0 {
		w.scenes = o.scenes
	}
	in, err := generate(w, o.seed, o.workers)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	out := &runOutcome{w: w, in: in, workers: o.workers}

	var r *rig
	var warm []tickRec
	for s := 0; s < max(o.setups, 1); s++ {
		if r != nil {
			r.close()
		}
		var secs float64
		if r, warm, secs, err = setUp(w, in, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, secs)
	}
	out.plain, err = timedLoop(r, warm, o, false)
	r.close()
	if err != nil {
		return nil, err
	}
	out.check(out.plain)

	if o.trace {
		if r, warm, _, err = setUp(w, in, o); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		out.traced, err = timedLoop(r, warm, o, true)
		r.close()
		if err != nil {
			return nil, err
		}
		out.check(out.traced)
		if out.traced.digest != out.plain.digest {
			out.failed += len(in.ticks) * egos
			out.failures = append(out.failures, fmt.Sprintf("traced fused-detection digest %s differs from untraced %s",
				out.traced.digest[:16], out.plain.digest[:16]))
		}
	}
	return out, nil
}

// check records a loop's layer errors and replay mismatches: an ego
// frame fails on its own error or a failed publish in its tick, and every
// round the episode replay could not reproduce fails its frame too.
func (o *runOutcome) check(res *loopResult) {
	for _, t := range append(append([]tickRec(nil), res.warm...), res.ticks...) {
		o.attempted += egos
		pubErr := false
		for i, p := range t.publishes {
			if p.err != nil {
				pubErr = true
				o.failures = append(o.failures, fmt.Sprintf("tick %d publish %s: %v", t.g, o.in.labels[i], p.err))
			}
		}
		for _, f := range t.frames {
			if f.err != nil {
				o.failures = append(o.failures, fmt.Sprintf("tick %d ego %s: %v", t.g, o.in.labels[f.ego], f.err))
			}
			if f.err != nil || pubErr {
				o.failed++
			}
		}
	}
	o.failed += len(res.badServed)
	o.failures = append(o.failures, res.badServed...)
	if o.w.store && (res.replayed == 0 || res.badRepl > 0) {
		o.failed += max(res.badRepl, 1)
		o.failures = append(o.failures, fmt.Sprintf("episode replay: %d of %d rounds not byte-identical", res.badRepl, res.replayed))
	}
}
