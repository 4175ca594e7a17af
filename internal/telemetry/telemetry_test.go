package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// fill drives a fixed workload into a registry from `workers`
// goroutines: the per-event values are identical in every run, only the
// interleaving varies, so the resulting snapshot must not.
func fill(r *Registry, workers int) {
	events := 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < events; i += workers {
				r.Counter("rounds_total").Inc()
				r.Counter("payload_bytes_total").Add(int64(i * 37))
				r.Histogram("latency_us", 100, 1000, 10000).Observe(int64(i % 15000))
			}
		}()
	}
	wg.Wait()
	r.Gauge("vehicles").Set(42)
}

func snapshotJSON(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Snapshot().MaskEnvelope().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSnapshotDeterministic reruns the same concurrent workload 50
// times across worker counts: every masked snapshot must be
// byte-identical — the package's core contract.
func TestSnapshotDeterministic(t *testing.T) {
	ref := func() string {
		r := New()
		fill(r, 1)
		return snapshotJSON(t, r)
	}()
	for run := 0; run < 50; run++ {
		for _, workers := range []int{1, 4, 13} {
			r := New()
			fill(r, workers)
			if got := snapshotJSON(t, r); got != ref {
				t.Fatalf("run %d workers %d: snapshot diverged\n got: %s\nwant: %s", run, workers, got, ref)
			}
		}
	}
}

func TestEnvelopeMasked(t *testing.T) {
	r := New()
	r.Counter("c_total").Inc()
	s := r.Snapshot()
	if s.Envelope.CapturedAt == "" || s.Envelope.CapturedUnixNano == 0 {
		t.Fatal("snapshot envelope missing wall-clock stamp")
	}
	m := s.MaskEnvelope()
	if m.Envelope != (Envelope{}) {
		t.Fatalf("masked envelope not zero: %+v", m.Envelope)
	}
	if len(m.Metrics) != 1 || m.Metrics[0].Value != 1 {
		t.Fatalf("masking touched metrics: %+v", m.Metrics)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("g")
	h := r.Histogram("h", 1, 2)
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must no-op")
	}
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_us", 10, 100, 1000)
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	m := snap.Metrics[0]
	want := []int64{2, 2, 1, 1} // ≤10: {5,10}; ≤100: {11,100}; ≤1000: {500}; over: {5000}
	if len(m.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(m.Counts), len(want))
	}
	for i := range want {
		if m.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, m.Counts[i], want[i], m.Counts)
		}
	}
	if m.Count != 6 || m.Sum != 5+10+11+100+500+5000 {
		t.Fatalf("count=%d sum=%d", m.Count, m.Sum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("rounds_total").Add(3)
	r.Gauge("vehicles").Set(2)
	r.Histogram("lat_us", 10, 100).Observe(50)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rounds_total counter\nrounds_total 3\n",
		"# TYPE vehicles gauge\nvehicles 2\n",
		"lat_us_bucket{le=\"10\"} 0\n",
		"lat_us_bucket{le=\"100\"} 1\n",
		"lat_us_bucket{le=\"+Inf\"} 1\n",
		"lat_us_sum 50\nlat_us_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
