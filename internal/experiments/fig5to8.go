package experiments

import (
	"fmt"
	"io"

	"cooper/internal/core"
	"cooper/internal/eval"
)

// Fig5 reproduces the T&J example: merging two sparse 16-beam single
// shots detects every car the singles saw plus previously undiscovered
// cars — the paper's direct evidence that raw-data fusion beats
// object-level fusion (objects neither vehicle detected cannot be
// recovered by merging detection results).
func Fig5(s *Suite, w io.Writer) error {
	// Use the T&J case that best illustrates discovery — the paper picked
	// its example frame the same way (Fig. 5c highlights three unmarked
	// newly discovered cars).
	var o *core.CaseOutcome
	bestDiscovered := -1
	for _, sc := range s.TJ() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		for _, cand := range outcomes {
			discovered := 0
			for _, row := range cand.Rows {
				if row.Coop.Detected() && !row.I.Detected() && !row.J.Detected() {
					discovered++
				}
			}
			if discovered > bestDiscovered {
				bestDiscovered = discovered
				o = cand
			}
		}
	}
	nI := eval.CountDetected(o.Column(0))
	nJ := eval.CountDetected(o.Column(1))
	nC := eval.CountDetected(o.Column(2))
	fmt.Fprintf(w, "Fig. 5 — cooperative perception on sparse 16-beam data (%s %s, Δd = %.1f m)\n",
		o.Scenario.Name, o.Case.Name, o.DeltaD)
	fmt.Fprintf(w, "  cars detected by %s alone: %d\n", o.Scenario.PoseLabels[o.Case.I], nI)
	fmt.Fprintf(w, "  cars detected by %s alone: %d\n", o.Scenario.PoseLabels[o.Case.J], nJ)
	fmt.Fprintf(w, "  cars detected cooperatively: %d\n", nC)

	discovered := 0
	for _, row := range o.Rows {
		if row.Coop.Detected() && !row.I.Detected() && !row.J.Detected() {
			discovered++
		}
	}
	fmt.Fprintf(w, "  newly discovered cars (detected by neither single shot): %d\n", discovered)
	fmt.Fprintf(w, "  object-level fusion could never recover those %d cars — raw-data fusion does\n", discovered)
	return nil
}

// Fig6 reproduces the T&J score matrices: four parking-lot scenarios,
// with cooperation evaluated at several inter-vehicle distances.
func Fig6(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Fig. 6 — vehicle detection results in the T&J scenarios")
	for _, sc := range s.TJ() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %s:\n", sc.Name)
		for _, o := range outcomes {
			printMatrix(w, o, sc.PoseLabels[o.Case.I], sc.PoseLabels[o.Case.J])
		}
	}
	return nil
}

// Fig7 reproduces the per-case counts and accuracy for the T&J dataset.
func Fig7(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Fig. 7 — number of cars detected and detection accuracy (T&J)")
	fmt.Fprintf(w, "  %-14s %-9s %8s %8s %8s   %8s %8s %8s\n",
		"scenario", "case", "single-i", "single-j", "Cooper", "acc-i%", "acc-j%", "acc-C%")
	for _, sc := range s.TJ() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		for _, o := range outcomes {
			ci := o.Column(0)
			cj := o.Column(1)
			cc := o.Column(2)
			fmt.Fprintf(w, "  %-14s %-9s %8d %8d %8d   %8.0f %8.0f %8.0f\n",
				sc.Name, o.Case.Name,
				eval.CountDetected(ci), eval.CountDetected(cj), eval.CountDetected(cc),
				eval.Accuracy(ci), eval.Accuracy(cj), eval.Accuracy(cc))
		}
	}
	return nil
}

// Fig8 reproduces the CDF of detection-score improvement for easy,
// moderate and hard objects across all 19 cooperative cases. The paper's
// headline: easy and moderate objects gain modestly (mostly within 10
// points) while hard objects — detected by neither single shot — gain at
// least ~50 points raw, because any cooperative detection of them is a
// new discovery.
func Fig8(s *Suite, w io.Writer) error {
	samples := map[eval.Difficulty][]float64{}
	for _, sc := range s.All() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		for _, o := range outcomes {
			for _, row := range o.Rows {
				diff, ok := eval.ClassifyDifficulty(row.I, row.J)
				if !ok {
					continue
				}
				imp, ok := eval.ScoreImprovement(row.I, row.J, row.Coop)
				if !ok {
					continue
				}
				samples[diff] = append(samples[diff], imp)
			}
		}
	}

	fmt.Fprintln(w, "Fig. 8 — CDF of detection-score improvement by difficulty class")
	for _, d := range []eval.Difficulty{eval.DifficultyEasy, eval.DifficultyModerate, eval.DifficultyHard} {
		vals := samples[d]
		cdf := eval.NewCDF(vals)
		fmt.Fprintf(w, "  %-9s n=%-3d", d, len(vals))
		if len(vals) == 0 {
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprintf(w, " min=%5.1f  p25=%5.1f  median=%5.1f  p75=%5.1f  P(≤10)=%4.2f\n",
			cdf.Min(), cdf.Quantile(0.25), cdf.Quantile(0.5), cdf.Quantile(0.75), cdf.At(10))
	}
	if hard := samples[eval.DifficultyHard]; len(hard) > 0 {
		minHard := eval.NewCDF(hard).Min()
		fmt.Fprintf(w, "  hard objects gain at least %.0f points raw score  [paper: ≥50]\n", minHard)
	}
	return nil
}
