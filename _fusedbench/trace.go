package main

import (
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the
// benchmark's own call sites. Spans of one ego frame share its frame id
// (-1 outside ego frames); tick is the global tick the span ran in, and
// parent the index of the enclosing span (-1 for a root).
type span struct {
	name        string
	start, end  time.Duration
	parent      int
	tick, frame int
}

func (s span) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// tracer keeps every span in memory until the run ends. A disabled
// tracer records nothing and costs one branch per call site.
type tracer struct {
	on   bool
	base time.Time
	mu   sync.Mutex
	all  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, tick, frame int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all = append(t.all, span{name: name, start: now, parent: parent, tick: tick, frame: frame})
	return len(t.all) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.all[id].end = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, tick, frame int, fn func() error) error {
	id := t.begin(name, parent, tick, frame)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the self time in ms of every span
// that ran in one of the given ticks: its duration minus the time its
// direct children cover. Children of one span run sequentially on the
// parent's goroutine, except under the publish phase, whose per-vehicle
// spans overlap on the workers; self time is clamped at zero there.
func selfTimes(spans []span, ticks map[int]bool) map[string][]float64 {
	childMS := make([]float64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childMS[s.parent] += s.ms()
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		if ticks[s.tick] {
			out[s.name] = append(out[s.name], max(s.ms()-childMS[i], 0))
		}
	}
	return out
}

// durations returns, per span name, the full duration in ms of every span
// that ran in one of the given ticks.
func durations(spans []span, ticks map[int]bool) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		if ticks[s.tick] {
			out[s.name] = append(out[s.name], s.ms())
		}
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
