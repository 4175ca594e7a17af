package experiments

import (
	"fmt"
	"io"

	"cooper/internal/core"
	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/scene"
)

// FeatureSweepConfig parameterizes the backend comparison sweep: which
// generated families and fleet sizes to run, under which per-sender
// payload caps.
type FeatureSweepConfig struct {
	// Families lists the generated families to sweep.
	Families []scene.Family
	// Fleets lists the fleet sizes evaluated per family.
	Fleets []int
	// CapsBytes lists the per-sender payload caps (0 = uncapped).
	CapsBytes []int
	// Seed drives scenario generation and sensing noise.
	Seed int64
}

// DefaultFeatureSweep compares the backends on the intersection and
// platoon families at fleets of 2 and 4, uncapped and under 16 KB and
// 2 KB per-sender caps — the Fig. 16 configuration. The 2 KB rung forces
// raw exchanges onto the stride rung while feature frames still carry
// their densest columns.
func DefaultFeatureSweep() FeatureSweepConfig {
	return FeatureSweepConfig{
		Families:  []scene.Family{scene.FamilyIntersection, scene.FamilyPlatoon},
		Fleets:    []int{2, 4},
		CapsBytes: []int{0, 16384, 2048},
		Seed:      1,
	}
}

// featCell is one backend's measured half of a sweep row.
type featCell struct {
	bytes  int
	recall float64
	prec   float64
}

// FeatureSweep runs every (family, fleet, cap) cell through both fusion
// backends and writes one row per cell: the exchanged byte volume and the
// fused recall/precision of raw-cloud versus feature-level (F-Cooper)
// fusion, plus the byte ratio between them. Both backends see identical
// scenarios, sensing noise and budgets, so each row isolates the encoding
// choice. Output is deterministic and identical at any worker count.
func FeatureSweep(s *Suite, w io.Writer, cfg FeatureSweepConfig) error {
	type entry struct {
		family scene.Family
		fleet  int
		cap    int
	}
	var entries []entry
	for _, f := range cfg.Families {
		for _, n := range cfg.Fleets {
			for _, c := range cfg.CapsBytes {
				entries = append(entries, entry{f, n, c})
			}
		}
	}

	backends := []fusion.Backend{fusion.RawBackend{}, fusion.DefaultFeatureBackend()}
	rows := make([]string, 0, len(entries))
	for _, e := range entries {
		sc, err := s.Generated(scene.GenParams{Family: e.family, Fleet: e.fleet, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		r := s.Runner(sc)
		var cells [2]featCell
		for bi, backend := range backends {
			outcomes, err := r.RunAll(core.RunOptions{Backend: backend, BudgetBytes: e.cap})
			if err != nil {
				return fmt.Errorf("feature sweep %s/%s: %w", sc.Name, backend.Name(), err)
			}
			if len(outcomes) == 0 {
				continue
			}
			o := outcomes[0]
			coop := o.Column(2)
			cells[bi] = featCell{
				bytes:  o.PayloadBytes,
				recall: 100 * eval.Recall(coop),
				prec:   100 * eval.Precision(eval.CountDetected(coop), o.FPCoop),
			}
		}
		capLabel := "uncapped"
		if e.cap > 0 {
			capLabel = fmt.Sprintf("%d", e.cap/1024)
		}
		ratio := 0.0
		if cells[0].bytes > 0 {
			ratio = float64(cells[1].bytes) / float64(cells[0].bytes)
		}
		rows = append(rows, fmt.Sprintf("  %-13s %5d %9s %10d %8.0f %8.0f %10d %8.0f %8.0f %7.3f",
			e.family, e.fleet, capLabel,
			cells[0].bytes, cells[0].recall, cells[0].prec,
			cells[1].bytes, cells[1].recall, cells[1].prec, ratio))
	}

	fmt.Fprintln(w, "Fig. 16 — fusion backends under payload caps: raw-cloud vs feature-level (F-Cooper) exchange")
	fmt.Fprintf(w, "  (generated scenarios, seed %d; per-sender caps in KB fitted via each backend's ROI ladder;\n", cfg.Seed)
	fmt.Fprintln(w, "   raw fuses merged point clouds, feature fuses sparse conv planes by element-wise max at the receiver)")
	fmt.Fprintf(w, "  %-13s %5s %9s %10s %8s %8s %10s %8s %8s %7s\n",
		"family", "fleet", "cap-KB", "raw-B", "rec-raw%", "prec-raw", "feat-B", "rec-ft%", "prec-ft", "ft/raw")
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	fmt.Fprintln(w, "  (ft/raw is the exchanged-byte ratio; uncapped feature frames carry the full post-conv planes)")
	return nil
}

// FigFeature is the registry generator for the default backend sweep.
func FigFeature(s *Suite, w io.Writer) error {
	return FeatureSweep(s, w, DefaultFeatureSweep())
}
