package experiments

import (
	"fmt"
	"io"

	"cooper/internal/core"
	"cooper/internal/eval"
)

// Fig2 reproduces the paper's Fig. 2 walkthrough: a 64-beam scene sensed
// from two positions two seconds apart; merging the single shots detects
// every car either shot detected plus cars neither did, and raises
// detection scores (the paper's example gains 13%: 0.76 → 0.86).
func Fig2(s *Suite, w io.Writer) error {
	sc := s.KITTI()[0] // T-junction: the canonical two-pose merge
	outcomes, err := s.Outcomes(sc)
	if err != nil {
		return err
	}
	o := outcomes[0]
	nI := eval.CountDetected(o.Column(0))
	nJ := eval.CountDetected(o.Column(1))
	nC := eval.CountDetected(o.Column(2))
	fmt.Fprintf(w, "Fig. 2 — cooperative detection example (64-beam, Δd = %.1f m)\n", o.DeltaD)
	fmt.Fprintf(w, "  cars detected at t1 (blue boxes):      %d\n", nI)
	fmt.Fprintf(w, "  cars detected at t2 (blue boxes):      %d\n", nJ)
	fmt.Fprintf(w, "  cars detected in merged cloud (red):   %d\n", nC)

	union := 0
	for _, row := range o.Rows {
		if row.I.Detected() || row.J.Detected() {
			union++
		}
	}
	fmt.Fprintf(w, "  union of single-shot detections:       %d\n", union)
	fmt.Fprintf(w, "  merged ⊇ union of singles:             %v\n", nC >= union)

	// The paper's score-improvement example.
	bestGain, bestBefore, bestAfter := 0.0, 0.0, 0.0
	for _, row := range o.Rows {
		if !row.Coop.Detected() {
			continue
		}
		before := 0.0
		if row.I.Detected() {
			before = row.I.Score
		}
		if row.J.Detected() && row.J.Score > before {
			before = row.J.Score
		}
		if before > 0 && row.Coop.Score-before > bestGain {
			bestGain = row.Coop.Score - before
			bestBefore, bestAfter = before, row.Coop.Score
		}
	}
	if bestGain > 0 {
		fmt.Fprintf(w, "  example score gain: %.2f -> %.2f (+%.0f%%)  [paper: 0.76 -> 0.86, +13%%]\n",
			bestBefore, bestAfter, 100*bestGain/bestBefore)
	}
	return nil
}

// printMatrix renders a case's detection matrix in the paper's layout:
// one row per car, columns (i, j, i+j), X for misses, blank when out of
// the detection area, with the near/medium/far band annotated.
func printMatrix(w io.Writer, o *core.CaseOutcome, labelI, labelJ string) {
	fmt.Fprintf(w, "  case %-9s  Δd = %5.1f m\n", o.Case.Name, o.DeltaD)
	fmt.Fprintf(w, "    %-6s %-7s %-7s %-7s %s\n", "car", labelI, labelJ, o.Case.Name, "band")
	for _, row := range o.Rows {
		fmt.Fprintf(w, "    %-6d %-7s %-7s %-7s %s\n",
			row.CarID, row.I, row.J, row.Coop, row.Band)
	}
}

// Fig3 reproduces the KITTI score matrices: per-car detection scores for
// the four road scenarios, three columns each.
func Fig3(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Fig. 3 — vehicle detection results in four KITTI scenarios")
	for _, sc := range s.KITTI() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %s:\n", sc.Name)
		for _, o := range outcomes {
			printMatrix(w, o, sc.PoseLabels[o.Case.I], sc.PoseLabels[o.Case.J])
		}
	}
	holds := true
	for _, sc := range s.KITTI() {
		outcomes, _ := s.Outcomes(sc)
		for _, o := range outcomes {
			nC := eval.CountDetected(o.Column(2))
			if nC < eval.CountDetected(o.Column(0)) || nC < eval.CountDetected(o.Column(1)) {
				holds = false
			}
		}
	}
	fmt.Fprintf(w, " cooperative detections ≥ each single shot in every scenario: %v  [paper: true]\n", holds)
	return nil
}

// Fig4 reproduces the per-scenario car counts and detection accuracy for
// KITTI: Cooper detects at least as many cars as either single shot and
// reaches the highest accuracy.
func Fig4(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Fig. 4 — number of cars detected and detection accuracy (KITTI)")
	fmt.Fprintf(w, "  %-12s %8s %8s %8s   %8s %8s %8s\n",
		"scenario", "single-i", "single-j", "Cooper", "acc-i%", "acc-j%", "acc-C%")
	for _, sc := range s.KITTI() {
		outcomes, err := s.Outcomes(sc)
		if err != nil {
			return err
		}
		for _, o := range outcomes {
			ci := o.Column(0)
			cj := o.Column(1)
			cc := o.Column(2)
			fmt.Fprintf(w, "  %-12s %8d %8d %8d   %8.0f %8.0f %8.0f\n",
				sc.Name,
				eval.CountDetected(ci), eval.CountDetected(cj), eval.CountDetected(cc),
				eval.Accuracy(ci), eval.Accuracy(cj), eval.Accuracy(cc))
		}
	}
	return nil
}
