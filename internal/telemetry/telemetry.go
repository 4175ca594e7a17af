// Package telemetry is the repository's lightweight metrics layer: a
// registry of named counters, gauges and fixed-bucket histograms, and
// point-in-time snapshots rendered as JSON or Prometheus text.
//
// The package carries a hard determinism contract, the same one every
// transcript and golden file in this repository lives by: every metric
// *value* derives from sim-time, byte counts or event counts — never
// from wall-clock — and every value is an int64, because float
// accumulation order varies with goroutine scheduling while integer
// sums do not. Two identical runs therefore produce byte-identical
// snapshots at any worker count. Wall-clock exists in exactly one
// place: the snapshot Envelope, a separate struct that diffed
// transcripts and goldens exclude (Snapshot.MaskEnvelope).
//
// A nil *Registry is the disabled registry: it hands out nil metric
// handles, and every operation on a nil handle is a no-op. Hot paths
// instrument unconditionally and pay a single pointer test when
// telemetry is off.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter ignores every operation.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric. The zero value is ready to
// use; a nil *Gauge ignores every operation.
type Gauge struct {
	v atomic.Int64
}

// Set records the gauge's current value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the gauge's last set value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are
// ascending inclusive upper bounds; one overflow bucket past the last
// bound is implicit. Observation order never shows in the counts, so
// concurrent observers at any worker count produce identical
// histograms. A nil *Histogram ignores every operation.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values (zero on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a concurrency-safe collection of named metrics. Metric
// names should be Prometheus-shaped (snake_case with a unit suffix,
// counters ending in _total) — the text exposition writes them
// verbatim. Lookups intern: the first call for a name creates the
// metric, later calls return the same handle, so callers may resolve by
// name on a hot path or hold the handle.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (the no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds). Returns nil
// (the no-op handle) on a nil registry.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := make([]int64, len(bounds))
		copy(bs, bounds)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Metric is one named value in a snapshot. Counters and gauges carry
// Value; histograms carry Count, Sum, Bounds and Counts (the final
// Counts entry is the overflow bucket past the last bound).
type Metric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Value  int64   `json:"value,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Sum    int64   `json:"sum,omitempty"`
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// Envelope is the snapshot's wall-clock context — the only place in the
// package wall-clock appears. Diffed transcripts and goldens exclude it
// (MaskEnvelope); everything outside it is deterministic.
type Envelope struct {
	// CapturedAt is the wall-clock capture time, RFC 3339.
	CapturedAt string `json:"captured_at,omitempty"`
	// CapturedUnixNano is the same instant as an integer for tooling.
	CapturedUnixNano int64 `json:"captured_unix_nano,omitempty"`
}

// Snapshot is a point-in-time copy of a registry: the envelope plus
// every metric, sorted by (kind-independent) name so identical
// registries render identical bytes.
type Snapshot struct {
	Envelope Envelope `json:"envelope"`
	Metrics  []Metric `json:"metrics"`
}

// Snapshot captures every metric. The envelope is stamped with the
// current wall-clock; everything else is a pure copy of deterministic
// values.
func (r *Registry) Snapshot() Snapshot {
	//cooper:wallclock the snapshot Envelope is the one sanctioned wall-clock site; MaskEnvelope strips it for diffs
	now := time.Now()
	s := Snapshot{Envelope: Envelope{
		CapturedAt:       now.UTC().Format(time.RFC3339Nano),
		CapturedUnixNano: now.UnixNano(),
	}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		//cooper:maporder metrics are sorted by name before the snapshot is rendered
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		//cooper:maporder metrics are sorted by name before the snapshot is rendered
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: "histogram", Count: h.Count(), Sum: h.Sum()}
		m.Bounds = append(m.Bounds, h.bounds...)
		for i := range h.counts {
			m.Counts = append(m.Counts, h.counts[i].Load())
		}
		//cooper:maporder metrics are sorted by name before the snapshot is rendered
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// MaskEnvelope returns the snapshot with the wall-clock envelope
// zeroed — the form transcripts diff and goldens freeze.
func (s Snapshot) MaskEnvelope() Snapshot {
	s.Envelope = Envelope{}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (text/plain; version 0.0.4). Histogram buckets
// carry cumulative counts with the standard le label.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range s.Metrics {
		switch m.Kind {
		case "counter", "gauge":
			fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", m.Name, m.Kind, m.Name, m.Value)
		case "histogram":
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.Name)
			cum := int64(0)
			for i, c := range m.Counts {
				cum += c
				if i < len(m.Bounds) {
					fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m.Name, m.Bounds[i], cum)
				} else {
					fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.Name, cum)
				}
			}
			fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", m.Name, m.Sum, m.Name, m.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
