package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiments golden files")

// goldenFigures lists the figures whose reports are fully deterministic
// — seeded sensing, modeled (not wall-clock) latencies — and therefore
// golden-able byte for byte. Figs. 9 and 13 are excluded: their cores
// are wall-clock measurements that legitimately vary run to run.
var goldenFigures = []int{2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17}

func goldenPath(fig int) string {
	return filepath.Join("testdata", fmt.Sprintf("fig%02d.golden", fig))
}

// TestFigureGoldens locks every deterministic figure report byte for
// byte against testdata/, as both the one-worker sequential loop and the
// eight-worker RunAllFigures fan-out produce it. A legitimate report
// change is re-blessed (from the sequential run) with
//
//	go test ./internal/experiments -run TestFigureGoldens -update
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite")
	}
	r := suiteRuns(t)
	for _, fig := range goldenFigures {
		t.Run(fmt.Sprintf("fig%02d", fig), func(t *testing.T) {
			path := goldenPath(fig)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, r.seq[fig], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (bless with -update): %v", err)
			}
			for _, run := range []struct {
				name string
				got  []byte
			}{{"workers=1", r.seq[fig]}, {"workers=8", r.par[fig]}} {
				if !bytes.Equal(want, run.got) {
					t.Errorf("figure %d report (%s) drifted from golden:\n%s", fig, run.name, firstDiff(string(want), string(run.got)))
				}
			}
		})
	}
}

// firstDiff renders the first differing line pair for a readable
// failure message.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, lw, lg)
		}
	}
	return "contents differ in length only"
}

// TestGoldensCommitted guards against a blessed-but-forgotten state:
// every golden figure must have its file in testdata/.
func TestGoldensCommitted(t *testing.T) {
	for _, fig := range goldenFigures {
		if _, err := os.Stat(goldenPath(fig)); err != nil {
			t.Errorf("figure %d: golden file missing (run -update and commit): %v", fig, err)
		}
	}
}
