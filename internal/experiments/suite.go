// Package experiments regenerates every figure of the paper's evaluation
// (§IV): for each of Figs. 2–12 there is a generator that builds the
// corresponding scenario, runs single-shot and cooperative perception
// through the real Cooper pipeline, and prints the same rows and series
// the paper reports. EXPERIMENTS.md records the paper-vs-measured
// comparison produced by these generators.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"cooper/internal/core"
	"cooper/internal/parallel"
	"cooper/internal/scene"
)

// Suite lazily runs and caches scenario outcomes so that figures sharing
// the same underlying runs (3/4, 6/7/8/9) compute them once. A Suite is
// safe for concurrent use: caches are mutex-guarded and each scenario's
// evaluation runs exactly once (singleflight), so RunAllFigures can
// execute independent figure generators concurrently.
type Suite struct {
	kitti []*scene.Scenario
	tj    []*scene.Scenario

	mu       sync.Mutex
	outcomes map[string]*outcomeEntry
	runners  map[string]*runnerEntry
	gen      map[string]*scene.Scenario
	workers  int
}

// runnerEntry pins the cache key to the scenario that created it so a
// second, different scenario reusing the same name is caught instead of
// silently served another scenario's runner.
type runnerEntry struct {
	sc     *scene.Scenario
	runner *core.ScenarioRunner
}

// outcomeEntry computes a scenario's outcomes exactly once, even when
// several generators miss the cache simultaneously.
type outcomeEntry struct {
	once sync.Once
	out  []*core.CaseOutcome
	err  error
}

// NewSuite builds the eight-scenario evaluation suite. It panics if two
// suite scenarios share a name — names key the outcome and runner caches,
// so a collision would silently cross-wire figures.
func NewSuite() *Suite {
	s := &Suite{
		kitti:    scene.KITTIScenarios(),
		tj:       scene.TJScenarios(),
		outcomes: make(map[string]*outcomeEntry),
		runners:  make(map[string]*runnerEntry),
		gen:      make(map[string]*scene.Scenario),
	}
	seen := make(map[string]bool)
	for _, sc := range s.All() {
		if seen[sc.Name] {
			panic(fmt.Sprintf("experiments: duplicate scenario name %q in suite", sc.Name))
		}
		seen[sc.Name] = true
	}
	return s
}

// SetWorkers bounds the goroutines used per scenario evaluation and for
// the figure-generator fan-out in RunAllFigures; < 1 selects one per CPU.
// Figure output is identical at any worker count.
func (s *Suite) SetWorkers(n int) *Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers = n
	return s
}

// KITTI returns the four road scenarios.
func (s *Suite) KITTI() []*scene.Scenario { return s.kitti }

// TJ returns the four parking-lot scenarios.
func (s *Suite) TJ() []*scene.Scenario { return s.tj }

// All returns all eight scenarios.
func (s *Suite) All() []*scene.Scenario {
	out := make([]*scene.Scenario, 0, len(s.kitti)+len(s.tj))
	out = append(out, s.kitti...)
	return append(out, s.tj...)
}

// Generated returns the suite's canonical scenario for the given
// generation params, generating it on first use. Generation is
// deterministic and cheap; caching by name keeps the runner and outcome
// caches pointer-consistent when a sweep is re-run on the same suite.
func (s *Suite) Generated(p scene.GenParams) (*scene.Scenario, error) {
	sc, err := scene.Generate(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.gen[sc.Name]; ok {
		return cached, nil
	}
	s.gen[sc.Name] = sc
	return sc, nil
}

// Runner returns the cached runner for a scenario. It panics when a
// different scenario object reuses a cached name — the collision would
// otherwise silently serve one scenario's runner for another.
func (s *Suite) Runner(sc *scene.Scenario) *core.ScenarioRunner {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.runners[sc.Name]
	if !ok {
		// Always pin: case-level fan-out gets the suite's worker budget
		// and vehicle-internal stages run on one goroutine, so scenario,
		// case and detector parallelism never stack multiplicatively.
		r := core.NewScenarioRunner(sc).SetWorkers(s.workers)
		e = &runnerEntry{sc: sc, runner: r}
		s.runners[sc.Name] = e
	} else if e.sc != sc {
		panic(fmt.Sprintf("experiments: scenario name collision: %q refers to two different scenarios", sc.Name))
	}
	return e.runner
}

// Outcomes runs (once) and returns all cooperative cases of a scenario.
// Concurrent callers missing the cache share a single evaluation.
func (s *Suite) Outcomes(sc *scene.Scenario) ([]*core.CaseOutcome, error) {
	r := s.Runner(sc) // also validates the name → scenario binding

	s.mu.Lock()
	e, ok := s.outcomes[sc.Name]
	if !ok {
		e = &outcomeEntry{}
		s.outcomes[sc.Name] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		o, err := r.RunAll(core.RunOptions{})
		if err != nil {
			e.err = fmt.Errorf("running %s: %w", sc.Name, err)
			return
		}
		e.out = o
	})
	return e.out, e.err
}

// Generator runs one figure's experiment, writing its report.
type Generator func(s *Suite, w io.Writer) error

// Registry maps figure numbers to generators. Figure 13 is the §IV-G
// wire-codec / DSRC feasibility analysis (a claims table rather than a
// plotted figure in the paper); figures 14–17 go beyond the paper:
// the fleet-scale N-way fusion sweep over generated scenario families,
// the dynamic-episode sweep of latency-compensated fusion versus
// channel delay and frame rate, the raw-vs-feature fusion-backend
// comparison under payload caps, and the degraded-world sweep of lossy
// channels crossed with localization drift on the NLOS families.
func Registry() map[int]Generator {
	return map[int]Generator{
		2:  Fig2,
		3:  Fig3,
		4:  Fig4,
		5:  Fig5,
		6:  Fig6,
		7:  Fig7,
		8:  Fig8,
		9:  Fig9,
		10: Fig10,
		11: Fig11,
		12: Fig12,
		13: Fig13,
		14: FigFleet,
		15: FigEpisodes,
		16: FigFeature,
		17: FigDegraded,
	}
}

// Run executes the generator for a figure number.
func Run(s *Suite, fig int, w io.Writer) error {
	g, ok := Registry()[fig]
	if !ok {
		return fmt.Errorf("experiments: no generator for figure %d", fig)
	}
	return g(s, w)
}

// RunAllFigures regenerates every figure concurrently and writes the
// reports to w in figure order, each followed by a blank line — the same
// bytes a sequential loop over Figures() would produce (timing lines
// excepted, which vary run to run even sequentially).
//
// Scenario evaluations are pre-warmed first with a parallel sweep across
// all eight scenarios, so generators then mostly read the shared caches;
// anything not covered (e.g. Fig. 10's drift variants) is computed inside
// the generator, safely, behind the suite's locks.
func (s *Suite) RunAllFigures(w io.Writer) error {
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()

	all := s.All()
	if err := parallel.ForErr(workers, len(all), func(i int) error {
		_, err := s.Outcomes(all[i])
		return err
	}); err != nil {
		return err
	}

	figs := Figures()
	bufs := make([]bytes.Buffer, len(figs))
	if err := parallel.ForErr(workers, len(figs), func(i int) error {
		return Run(s, figs[i], &bufs[i])
	}); err != nil {
		return err
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Figures returns the available figure numbers in order.
func Figures() []int {
	reg := Registry()
	out := make([]int, 0, len(reg))
	for f := range reg {
		//cooper:maporder figure numbers are sorted immediately after collection
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
