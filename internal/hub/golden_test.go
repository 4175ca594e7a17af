package hub

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the selftest golden files")

// selfTestGoldens are the documented `coopernode -selftest` runs (README
// and CI), with the options exactly as the command builds them.
var selfTestGoldens = []struct {
	name string
	args string // the coopernode command line the options mirror
	opts SelfTestOptions
}{
	{"k4_seed7", "-selftest 4 -seed 7",
		SelfTestOptions{Fleet: 4, Seed: 7}},
	{"k3_seed7_frames3", "-selftest 3 -seed 7 -frames 3 -hz 2",
		SelfTestOptions{Fleet: 3, Seed: 7, Frames: 3, Hz: 2}},
	{"k3_seed7_frames3_v3", "-selftest 3 -seed 7 -frames 3 -hz 2 -wire v3",
		SelfTestOptions{Fleet: 3, Seed: 7, Frames: 3, Hz: 2, Wire: "v3"}},
	{"k4_seed7_feature", "-selftest 4 -seed 7 -backend feature",
		SelfTestOptions{Fleet: 4, Seed: 7, Backend: fusion.DefaultFeatureBackend()}},
	{"k3_seed5_frames4_degraded", "-selftest 3 -seed 5 -frames 4 -loss 0.4 -drift 0.6",
		SelfTestOptions{Fleet: 3, Seed: 5, Frames: 4, Loss: network.DefaultLoss(0.4, 5), Drift: 0.6}},
}

// TestSelfTestGoldens locks the documented selftest transcripts byte for
// byte against testdata/, so a refactor of the hub, the wire or the
// fusion path cannot drift them unnoticed. A legitimate report change
// is re-blessed with
//
//	go test ./internal/hub -run TestSelfTestGoldens -update
func TestSelfTestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full selftest runs")
	}
	for _, g := range selfTestGoldens {
		t.Run(g.name, func(t *testing.T) {
			opts := g.opts
			if opts.Backend == nil {
				opts.Backend = fusion.RawBackend{}
			}
			if opts.Hz == 0 {
				opts.Hz = 2
			}
			if opts.Wire == "" {
				opts.Wire = "v2"
			}
			opts.Metrics = telemetry.New()
			var buf bytes.Buffer
			if err := SelfTest(&buf, opts); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "selftest_"+g.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (bless with -update): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("coopernode %s drifted from golden:\n--- golden\n%s\n--- got\n%s", g.args, want, buf.String())
			}
		})
	}
}
