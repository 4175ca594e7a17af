package core

import (
	"testing"

	"cooper/internal/eval"
	"cooper/internal/scene"
)

// TestEvaluateDetectionsMatchesRunCase pins the case runner's matrix
// cells to the truth scorer's stats: scoring a case's cooperative
// detections over the participants' area union must reproduce the
// Cooper column's detected count, false positives and recall exactly.
func TestEvaluateDetectionsMatchesRunCase(t *testing.T) {
	sc := scene.KITTIScenarios()[0]
	r := NewScenarioRunner(sc).SetWorkers(1)
	outcomes, err := r.RunAll(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		participants := append([]int{o.Case.I}, o.Case.Senders()...)
		st := EvaluateDetections(sc, o.Case.I, participants, o.DetsCoop)

		wantTP := 0
		for _, row := range o.Rows {
			if row.Coop.Detected() {
				wantTP++
			}
		}
		if st.TP != wantTP {
			t.Errorf("case %s: TP = %d, runner detected %d", o.Case.Name, st.TP, wantTP)
		}
		if st.FP != o.FPCoop {
			t.Errorf("case %s: FP = %d, runner FPCoop = %d", o.Case.Name, st.FP, o.FPCoop)
		}
		if got, want := st.Recall(), eval.Recall(o.Column(2)); got != want {
			t.Errorf("case %s: recall = %v, runner recall = %v", o.Case.Name, got, want)
		}
	}
}

func TestTruthStatsRates(t *testing.T) {
	tests := []struct {
		st           TruthStats
		prec, recall float64
	}{
		{TruthStats{}, 0, 0},
		{TruthStats{TP: 3, FN: 1, FP: 1}, 0.75, 0.75},
		{TruthStats{TP: 0, FN: 4, FP: 0}, 0, 0},
		{TruthStats{TP: 2, FN: 0, FP: 0}, 1, 1},
	}
	for _, tc := range tests {
		if got := tc.st.Precision(); got != tc.prec {
			t.Errorf("%+v: precision = %v, want %v", tc.st, got, tc.prec)
		}
		if got := tc.st.Recall(); got != tc.recall {
			t.Errorf("%+v: recall = %v, want %v", tc.st, got, tc.recall)
		}
	}
}
