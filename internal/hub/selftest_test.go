package hub

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/store"
)

// TestSelfTestDeterministic is the acceptance property behind
// `coopernode -selftest`: the report is byte-identical across runs and
// across worker counts.
func TestSelfTestDeterministic(t *testing.T) {
	run := func(workers int) string {
		var buf bytes.Buffer
		err := SelfTest(&buf, SelfTestOptions{Fleet: 3, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := run(1)
	if seq == "" {
		t.Fatal("empty selftest report")
	}
	if again := run(1); again != seq {
		t.Errorf("selftest not deterministic across runs:\n--- first\n%s\n--- second\n%s", seq, again)
	}
	if par := run(4); par != seq {
		t.Errorf("selftest differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", seq, par)
	}

	for _, want := range []string{"selftest platoon fleet=3 seed=5", "round v1", "round v3", "fleet mean", "cooper"} {
		if !strings.Contains(seq, want) {
			t.Errorf("report missing %q:\n%s", want, seq)
		}
	}
}

// TestSelfTestStreaming exercises the episode form: frames of the
// moving world streamed through the hub, deterministic across runs and
// worker counts, with the temporal track summary present.
func TestSelfTestStreaming(t *testing.T) {
	run := func(workers int) string {
		var buf bytes.Buffer
		err := SelfTest(&buf, SelfTestOptions{Fleet: 2, Seed: 5, Workers: workers, Frames: 3, Hz: 2})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := run(1)
	if again := run(4); again != seq {
		t.Errorf("streaming selftest differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", seq, again)
	}
	for _, want := range []string{"frames=3 hz=2", "frame  0", "frame  2", "tracks per vehicle", "continuity", "fleet mean over 3 frames"} {
		if !strings.Contains(seq, want) {
			t.Errorf("streaming report missing %q:\n%s", want, seq)
		}
	}
}

// TestSelfTestWireV3 runs the same selftest over both wire paths. The v3
// report must be the v2 report plus the trailing wire-accounting line —
// the delta stream is a transport detail and may not perturb a single
// detection — and the delta stream must actually be cheaper.
func TestSelfTestWireV3(t *testing.T) {
	run := func(wire string, workers int) string {
		var buf bytes.Buffer
		err := SelfTest(&buf, SelfTestOptions{Fleet: 3, Seed: 5, Workers: workers, Frames: 4, Hz: 2, Wire: wire})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	v2 := run("v2", 1)
	v3 := run("v3", 1)
	if !strings.HasPrefix(v3, v2) {
		t.Fatalf("v3 report does not extend the v2 report:\n--- v2\n%s\n--- v3\n%s", v2, v3)
	}
	extra := strings.TrimPrefix(v3, v2)
	if !strings.Contains(extra, "wire v3: published") {
		t.Fatalf("v3 report missing wire accounting, extra = %q", extra)
	}
	// The accounting line reports sent vs full; parse and compare.
	var sent, full int
	var ratio float64
	if _, err := fmt.Sscanf(extra, "\nwire v3: published %d B on the delta stream vs %d B full quantized (%f×)", &sent, &full, &ratio); err != nil {
		t.Fatalf("cannot parse wire accounting %q: %v", extra, err)
	}
	if sent >= full {
		t.Errorf("delta stream cost %d B, not below the %d B full-frame cost", sent, full)
	}
	// Determinism across worker counts holds on the v3 path too.
	if par := run("v3", 4); par != v3 {
		t.Errorf("v3 selftest differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", v3, par)
	}
}

// TestSelfTestWireValidation: unknown wire names and the v3+feature
// combination are rejected up front.
func TestSelfTestWireValidation(t *testing.T) {
	if err := SelfTest(nil, SelfTestOptions{Fleet: 2, Seed: 1, Wire: "v9"}); err == nil {
		t.Error("unknown wire accepted")
	}
	if err := SelfTest(nil, SelfTestOptions{Fleet: 2, Seed: 1, Wire: "v3", Backend: fusion.FeatureBackend{}}); err == nil {
		t.Error("v3 wire with feature backend accepted")
	}
}

// TestSelfTestBudget exercises the bandwidth-capped path: the capped
// report must show smaller rounds than the uncapped one.
func TestSelfTestBudget(t *testing.T) {
	var uncapped, capped bytes.Buffer
	if err := SelfTest(&uncapped, SelfTestOptions{Fleet: 2, Seed: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := SelfTest(&capped, SelfTestOptions{Fleet: 2, Seed: 3, Workers: 1, BandwidthMbps: 0.5}); err != nil {
		t.Fatal(err)
	}
	if capped.String() == uncapped.String() {
		t.Error("bandwidth cap did not change the report")
	}
	if !strings.Contains(capped.String(), "0.50 Mbit/s") {
		t.Errorf("capped report does not mention the cap:\n%s", capped.String())
	}
}

func TestSelfTestValidation(t *testing.T) {
	if err := SelfTest(nil, SelfTestOptions{Fleet: 1, Seed: 1}); err == nil {
		t.Error("fleet of 1 accepted")
	}
	if err := SelfTest(nil, SelfTestOptions{Fleet: 4, Seed: 1, Family: "nope"}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestSelfTestDegraded streams the selftest through a lossy channel with
// localization drift: the degraded report must be byte-identical across
// runs and worker counts, announce its knobs in the header, and surface
// stale senders — while a zero-loss, zero-drift run reproduces the clean
// report exactly.
func TestSelfTestDegraded(t *testing.T) {
	run := func(workers int, loss float64, drift float64) string {
		var buf bytes.Buffer
		opts := SelfTestOptions{Fleet: 3, Seed: 5, Workers: workers, Frames: 4, Hz: 2, Drift: drift}
		if loss > 0 {
			opts.Loss = network.LossModel{DropRate: loss, Seed: 9}
		}
		if err := SelfTest(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if clean, zeroed := run(1, 0, 0), run(1, 0, 0); clean != zeroed {
		t.Error("clean selftest not reproducible")
	}
	seq := run(1, 0.4, 0.6)
	if par := run(4, 0.4, 0.6); par != seq {
		t.Errorf("degraded selftest differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", seq, par)
	}
	for _, want := range []string{"loss=0.4(seed 9)", "drift=0.6m", "| stale "} {
		if !strings.Contains(seq, want) {
			t.Errorf("degraded report missing %q:\n%s", want, seq)
		}
	}
	if !strings.Contains(run(1, 0, 0.6), "drift=0.6m") {
		t.Error("drift-only report missing its header clause")
	}
}

// TestSelfTestStoreReplays records degraded selftests into an episode
// log file and replays it the moment the report's last line arrives —
// before SelfTest returns, as an observer of a lingering node would:
// the log must already be complete, and every client round must
// reproduce its recorded detections byte for byte, on the v3 delta wire
// and on the feature backend alike.
func TestSelfTestStoreReplays(t *testing.T) {
	for _, tc := range []struct{ backend, wire, last string }{
		{"raw", "v3", "keyframe retries recovered"},
		{"feature", "v2", "fleet mean over"},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			backend, err := fusion.ParseBackend(tc.backend)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "selftest.ceplog")
			ew, err := store.CreateEpisode(path, store.Header{Label: "selftest", Backend: tc.backend, Wire: tc.wire})
			if err != nil {
				t.Fatal(err)
			}
			defer ew.Close()
			opts := SelfTestOptions{Fleet: 3, Seed: 5, Frames: 3, Wire: tc.wire, Backend: backend,
				Loss: network.DefaultLoss(0.3, 5), Drift: 0.5, Store: ew}
			checked := false
			report := writerFunc(func(line []byte) {
				if !strings.Contains(string(line), tc.last) {
					return
				}
				checked = true
				ep, err := store.ReadEpisodeFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !ep.Complete {
					t.Errorf("log read at the report's last line is truncated: %d rounds, %d detection sets",
						len(ep.Rounds), len(ep.Detections))
				}
				_, stats, err := store.ReplayEpisode(ep)
				if err != nil {
					t.Fatal(err)
				}
				if !stats.Identical() || stats.Rounds != opts.Fleet*opts.Frames {
					t.Errorf("replay of %d client rounds: %v", opts.Fleet*opts.Frames, stats)
				}
			})
			if err := SelfTest(report, opts); err != nil {
				t.Fatal(err)
			}
			if !checked {
				t.Fatalf("report never printed a line containing %q", tc.last)
			}
		})
	}
}

// writerFunc is an io.Writer that hands every write — one report line
// per Fprintf — to a callback.
type writerFunc func([]byte)

func (f writerFunc) Write(p []byte) (int, error) {
	f(p)
	return len(p), nil
}
