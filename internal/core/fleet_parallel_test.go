package core

import (
	"reflect"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/scene"
)

func generated(t *testing.T, fam scene.Family, fleet int, seed int64) *scene.Scenario {
	t.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: fam, Fleet: fleet, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFleetRunAllParallelMatchesSequential extends the engine's core
// guarantee to generated N-way scenarios: evaluating a fleet case at
// workers=1 and workers=N must produce identical outcomes — same rows,
// scores, per-sender payloads and merged cloud sizes. Run under -race
// in CI, this also proves the K-cloud fan-in is data-race free.
func TestFleetRunAllParallelMatchesSequential(t *testing.T) {
	for _, sc := range []*scene.Scenario{
		generated(t, scene.FamilyPlatoon, 5, 11),
		generated(t, scene.FamilyRoundabout, 4, 11),
	} {
		seq, err := NewScenarioRunner(sc).SetWorkers(1).RunAll(RunOptions{})
		if err != nil {
			t.Fatalf("%s sequential: %v", sc.Name, err)
		}
		par, err := NewScenarioRunner(sc).SetWorkers(8).RunAll(RunOptions{})
		if err != nil {
			t.Fatalf("%s parallel: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(stripStats(seq), stripStats(par)) {
			t.Errorf("%s: parallel N-way outcome differs from sequential", sc.Name)
		}
	}
}

// TestNWayCaseOutcomeShape pins the N-way bookkeeping: K senders mean K
// payload entries summing to PayloadBytes, and the merged cloud carries
// every transmitted point on top of the receiver's own.
func TestNWayCaseOutcomeShape(t *testing.T) {
	sc := generated(t, scene.FamilyParkingLot, 4, 5)
	out, err := NewScenarioRunner(sc).SetWorkers(1).RunAll(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%d outcomes, want 1", len(out))
	}
	o := out[0]
	wantSenders := len(sc.Cases[0].Senders())
	if len(o.SenderPayloads) != wantSenders || len(o.SenderCloudPoints) != wantSenders {
		t.Fatalf("per-sender slices %d/%d entries, want %d",
			len(o.SenderPayloads), len(o.SenderCloudPoints), wantSenders)
	}
	sum, pts := 0, 0
	for k := range o.SenderPayloads {
		if o.SenderPayloads[k] <= 0 || o.SenderCloudPoints[k] <= 0 {
			t.Errorf("sender %d: payload %d bytes, %d points", k, o.SenderPayloads[k], o.SenderCloudPoints[k])
		}
		sum += o.SenderPayloads[k]
		pts += o.SenderCloudPoints[k]
	}
	if sum != o.PayloadBytes {
		t.Errorf("PayloadBytes %d, want sender sum %d", o.PayloadBytes, sum)
	}
	if got, want := o.CloudPointsCoop, o.CloudPointsI+pts; got != want {
		t.Errorf("merged cloud %d points, want receiver %d + transmitted %d = %d",
			got, o.CloudPointsI, pts, want)
	}
}

// TestNWayMatchesManualMerge cross-checks the runner's K-cloud fan-in
// against the public Vehicle exchange API: preparing each sender's
// package by hand and fusing through the raw backend must build a
// merged cloud of exactly the size RunCase reports.
func TestNWayMatchesManualMerge(t *testing.T) {
	sc := generated(t, scene.FamilyPlatoon, 3, 9)
	r := NewScenarioRunner(sc).SetWorkers(1)
	o, err := r.RunCase(sc.Cases[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The runner has sensed every pose; replay the exchange by hand.
	recv := r.Vehicle(0)
	pkgs := make([]fusion.Payload, 0, 2)
	for _, s := range sc.Cases[0].Senders() {
		pkg, err := r.Vehicle(s).PreparePackage(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	own, err := recv.SensorFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fusion.RawBackend{}.Fuse(own, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if in.Cloud.Len() != o.CloudPointsCoop {
		t.Errorf("manual K-way merge has %d points, RunCase reported %d", in.Cloud.Len(), o.CloudPointsCoop)
	}
}
