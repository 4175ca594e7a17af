package hub

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
)

// featureWireFor encodes a CPF3 feature frame for publish tests.
func featureWireFor(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	return spod.NewDefault().EncodeFeatureFrame(testCloud(n, seed), nil).Encode()
}

// TestCached walks the cache through publish, overwrite, stale-discard
// and feature-derivation states, checking Cached() and the churn
// counters at every step.
func TestCached(t *testing.T) {
	reg := telemetry.New()
	h := New(Config{Metrics: reg})

	steps := []struct {
		name      string
		run       func(t *testing.T)
		cached    int
		evictions int64
		stale     int64
	}{
		{name: "empty", run: func(t *testing.T) {}, cached: 0},
		{
			name: "first publish",
			run: func(t *testing.T) {
				if _, err := h.Publish("v1", stateAt(0, 0), payloadFor(t, 200, 1), 1); err != nil {
					t.Fatal(err)
				}
			},
			cached: 1,
		},
		{
			name: "second vehicle",
			run: func(t *testing.T) {
				if _, err := h.Publish("v2", stateAt(5, 0), payloadFor(t, 200, 2), 1); err != nil {
					t.Fatal(err)
				}
			},
			cached: 2,
		},
		{
			name: "overwrite evicts the old frame",
			run: func(t *testing.T) {
				if _, err := h.Publish("v1", stateAt(1, 0), payloadFor(t, 200, 3), 2); err != nil {
					t.Fatal(err)
				}
			},
			cached:    2,
			evictions: 1,
		},
		{
			name: "stale sequence is discarded",
			run: func(t *testing.T) {
				if _, err := h.Publish("v1", stateAt(9, 9), payloadFor(t, 200, 4), 1); err != nil {
					t.Fatal(err)
				}
			},
			cached:    2,
			evictions: 1,
			stale:     1,
		},
		{
			name: "feature publish caches without a cloud",
			run: func(t *testing.T) {
				if _, err := h.Publish("v3", stateAt(8, 0), featureWireFor(t, 200, 5), 1); err != nil {
					t.Fatal(err)
				}
			},
			cached:    3,
			evictions: 1,
			stale:     1,
		},
		{
			name: "feature round derives features without touching the cache",
			run: func(t *testing.T) {
				if _, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{Feature: true}); err != nil {
					t.Fatal(err)
				}
				// A raw publish's feature frame is derived at most once.
				h.mu.RLock()
				f := h.frames["v1"]
				h.mu.RUnlock()
				if first := f.features(); first == nil || first != f.features() {
					t.Fatal("feature derivation not cached")
				}
			},
			cached:    3,
			evictions: 1,
			stale:     1,
		},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			step.run(t)
			if got := h.Cached(); got != step.cached {
				t.Fatalf("Cached() = %d, want %d", got, step.cached)
			}
			if got := reg.Counter("hub_cache_evictions_total").Value(); got != step.evictions {
				t.Fatalf("evictions = %d, want %d", got, step.evictions)
			}
			if got := reg.Counter("hub_publish_stale_total").Value(); got != step.stale {
				t.Fatalf("stale publishes = %d, want %d", got, step.stale)
			}
			if got := reg.Gauge("hub_vehicles_cached").Value(); got != int64(step.cached) && step.cached > 0 {
				t.Fatalf("vehicles gauge = %d, want %d", got, step.cached)
			}
		})
	}
}

// storedEpisodeFor writes one replayable warmup episode into dir.
func storedEpisodeFor(t *testing.T, dir *store.Dir, id string) {
	t.Helper()
	ew, err := dir.Create(id, store.Header{Label: id, Backend: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spod.DefaultConfig()
	cloud := testCloud(400, 77)
	round := store.Round{Frame: 0, Receiver: "v0", State: stateAt(0, 0), Own: cloud,
		Warmup: true, FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange}
	if err := ew.WriteRound(round); err != nil {
		t.Fatal(err)
	}
	dets, _, err := round.Detect(nil, spod.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteDetections(store.Detections{Frame: 0, Receiver: "v0", Dets: dets}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPEndpoints exercises every stats endpoint against an
// in-process hub with live state, metrics and a stored episode.
func TestHTTPEndpoints(t *testing.T) {
	reg := telemetry.New()
	dir, err := store.OpenDir(filepath.Join(t.TempDir(), "episodes"))
	if err != nil {
		t.Fatal(err)
	}
	storedEpisodeFor(t, dir, "run-a")

	h := New(Config{Metrics: reg, Episodes: dir})
	for i, x := range []float64{10, 20} {
		id := fmt.Sprintf("v%d", i+1)
		if _, err := h.Publish(id, stateAt(x, 0), payloadFor(t, 300, int64(i+1)), uint64(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(h.StatsHandler())
	defer srv.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/vehicles")
	var vehicles []VehicleInfo
	if err := json.Unmarshal(body, &vehicles); err != nil || code != 200 {
		t.Fatalf("/vehicles: code %d err %v: %s", code, err, body)
	}
	if len(vehicles) != 2 || vehicles[0].ID != "v1" || vehicles[1].Seq != 3 || vehicles[0].Encoding != "raw" {
		t.Fatalf("/vehicles: %+v", vehicles)
	}

	code, body = get("/rounds")
	var rounds []RoundInfo
	if err := json.Unmarshal(body, &rounds); err != nil || code != 200 {
		t.Fatalf("/rounds: code %d err %v: %s", code, err, body)
	}
	if len(rounds) != 1 || rounds[0].Seq != 1 || rounds[0].Requester != "rx" || rounds[0].Frames != 2 {
		t.Fatalf("/rounds: %+v", rounds)
	}

	code, body = get("/metrics.json")
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil || code != 200 {
		t.Fatalf("/metrics.json: code %d err %v", code, err)
	}
	if snap.Envelope.CapturedUnixNano == 0 || len(snap.Metrics) == 0 {
		t.Fatalf("/metrics.json: %+v", snap)
	}

	code, body = get("/metrics")
	if code != 200 || !strings.Contains(string(body), "hub_publishes_total 2") ||
		!strings.Contains(string(body), "# TYPE hub_round_latency_us histogram") {
		t.Fatalf("/metrics:\n%s", body)
	}

	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}

	code, body = get("/episodes")
	var ids []string
	if err := json.Unmarshal(body, &ids); err != nil || code != 200 || len(ids) != 1 || ids[0] != "run-a" {
		t.Fatalf("/episodes: code %d err %v: %s", code, err, body)
	}

	code, body = get("/episodes/run-a")
	var sum EpisodeSummary
	if err := json.Unmarshal(body, &sum); err != nil || code != 200 {
		t.Fatalf("/episodes/run-a: code %d err %v: %s", code, err, body)
	}
	if !sum.Identical || sum.Rounds != 1 || sum.Matched != 1 || !sum.Complete {
		t.Fatalf("/episodes/run-a: %+v", sum)
	}

	if code, _ = get("/episodes/missing"); code != 404 {
		t.Fatalf("/episodes/missing: code %d", code)
	}
	if code, _ = get("/episodes/../evil"); code == 200 {
		t.Fatal("path-escaping episode id served")
	}

	// A hub without a store answers /episodes with 404, not a panic.
	bare := httptest.NewServer(New(Config{}).StatsHandler())
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/episodes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("storeless /episodes: code %d", resp.StatusCode)
	}
}

// TestStartHTTP covers the lifecycle: a configured hub serves on its
// bound address until Close.
func TestStartHTTP(t *testing.T) {
	h := New(Config{HTTPAddr: "127.0.0.1:0", Metrics: telemetry.New()})
	addr, err := h.StartHTTP()
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("StartHTTP returned no address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics over StartHTTP: code %d", resp.StatusCode)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("stats server still serving after Close")
	}

	// No address configured: StartHTTP is a no-op.
	if addr, err := New(Config{}).StartHTTP(); err != nil || addr != "" {
		t.Fatalf("no-op StartHTTP: addr %q err %v", addr, err)
	}
}
