package experiments

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"cooper/internal/core"
	"cooper/internal/scene"
)

// TestSuiteConcurrentOutcomesSingleflight hammers the suite caches from
// many goroutines (run under -race in CI): every caller must observe the
// same outcome slice, evaluated exactly once.
func TestSuiteConcurrentOutcomesSingleflight(t *testing.T) {
	s := NewSuite()
	sc := s.TJ()[0]
	const callers = 16
	results := make([][]*core.CaseOutcome, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			o, err := s.Outcomes(sc)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = o
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if len(results[i]) == 0 || len(results[0]) == 0 {
			t.Fatal("missing result")
		}
		if results[i][0] != results[0][0] {
			t.Fatalf("caller %d saw a different evaluation — singleflight failed", i)
		}
	}
}

// TestSuiteConcurrentRunnerAndOutcomes mixes Runner and Outcomes calls
// across scenarios concurrently — the pattern RunAllFigures produces.
func TestSuiteConcurrentRunnerAndOutcomes(t *testing.T) {
	s := NewSuite()
	var wg sync.WaitGroup
	for _, sc := range s.All() {
		wg.Add(2)
		go func(sc *scene.Scenario) { defer wg.Done(); _ = s.Runner(sc) }(sc)
		go func(sc *scene.Scenario) {
			defer wg.Done()
			if _, err := s.Outcomes(sc); err != nil {
				t.Error(err)
			}
		}(sc)
	}
	wg.Wait()
}

// TestScenarioNameCollisionPanics: two distinct scenario objects sharing
// a name must be rejected, not silently cross-wired in the caches.
func TestScenarioNameCollisionPanics(t *testing.T) {
	s := NewSuite()
	a := s.TJ()[0]
	b := *a // distinct object, same name
	_ = s.Runner(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scenario name collision")
		}
	}()
	_ = s.Runner(&b)
}

// timingLine matches report lines whose content legitimately varies run
// to run (wall-clock measurements).
var timingLine = regexp.MustCompile(`(?i)(ms|µs|latency|time|freshness)`)

func stripTimingLines(s string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if timingLine.MatchString(ln) {
			continue
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n")
}

// figureRuns is the full figure suite, computed once per test binary and
// shared by TestFigureGoldens and TestRunAllFiguresMatchesSequential:
// every report from a sequential loop on a one-worker suite, and the
// concurrent RunAllFigures output of an eight-worker suite split back
// into its per-figure reports.
type figureRuns struct {
	seq, par       map[int][]byte
	seqAll, parAll string
	err            error
}

var (
	sharedRunsOnce sync.Once
	sharedRuns     figureRuns
)

// suiteRuns returns the shared runs, computing them on first use.
func suiteRuns(t *testing.T) *figureRuns {
	t.Helper()
	sharedRunsOnce.Do(func() { sharedRuns = runFigures() })
	if sharedRuns.err != nil {
		t.Fatal(sharedRuns.err)
	}
	return &sharedRuns
}

// chunkWriter keeps each Write as its own chunk. RunAllFigures writes
// every report with one Write followed by a one-line separator, so the
// chunks recover the per-figure reports.
type chunkWriter struct{ chunks [][]byte }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, bytes.Clone(p))
	return len(p), nil
}

func runFigures() (r figureRuns) {
	figs := Figures()
	r.seq = make(map[int][]byte, len(figs))
	var seqAll bytes.Buffer
	s1 := NewSuite().SetWorkers(1)
	for _, f := range figs {
		var buf bytes.Buffer
		if r.err = Run(s1, f, &buf); r.err != nil {
			return r
		}
		r.seq[f] = buf.Bytes()
		seqAll.Write(buf.Bytes())
		seqAll.WriteString("\n")
	}
	r.seqAll = seqAll.String()

	var par chunkWriter
	if r.err = NewSuite().SetWorkers(8).RunAllFigures(&par); r.err != nil {
		return r
	}
	if len(par.chunks) != 2*len(figs) {
		r.err = fmt.Errorf("RunAllFigures made %d writes, want a report and a separator for each of %d figures", len(par.chunks), len(figs))
		return r
	}
	r.par = make(map[int][]byte, len(figs))
	for i, f := range figs {
		if sep := string(par.chunks[2*i+1]); sep != "\n" {
			r.err = fmt.Errorf("RunAllFigures separated figure %d with %q, want a newline", f, sep)
			return r
		}
		r.par[f] = par.chunks[2*i]
	}
	r.parAll = string(bytes.Join(par.chunks, nil))
	return r
}

// TestRunAllFiguresMatchesSequential: the concurrent figure fan-out must
// emit the same report bytes, in the same figure order, as a sequential
// loop — timing lines excepted.
func TestRunAllFiguresMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8-scenario suite")
	}
	r := suiteRuns(t)
	a, b := stripTimingLines(r.seqAll), stripTimingLines(r.parAll)
	if a != b {
		t.Errorf("concurrent figure output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}
