package scene

import (
	"math"
	"reflect"
	"testing"

	"cooper/internal/geom"
)

func TestDriftWalkDeterministic(t *testing.T) {
	a := DriftWalk(42, 0.8, 20)
	b := DriftWalk(42, 0.8, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different walks")
	}
	c := DriftWalk(43, 0.8, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical walks")
	}
}

func TestDriftWalkBounded(t *testing.T) {
	bound := 0.5
	yawBound := bound * math.Pi / 180 // 1° per metre of bound
	for f, e := range DriftWalk(7, bound, 200) {
		if math.Abs(e.X) > bound || math.Abs(e.Y) > bound {
			t.Fatalf("frame %d offset (%.3f, %.3f) exceeds bound %.3f", f, e.X, e.Y, bound)
		}
		if math.Abs(e.Yaw) > yawBound+1e-12 {
			t.Fatalf("frame %d yaw %.5f exceeds bound %.5f", f, e.Yaw, yawBound)
		}
	}
}

func TestDriftWalkStartsAtFrameZero(t *testing.T) {
	w := DriftWalk(3, 1.0, 1)
	if len(w) != 1 {
		t.Fatalf("walk length %d, want 1", len(w))
	}
	if w[0] == (PoseError{}) {
		t.Fatal("frame 0 has zero error; the walk must step before the first frame")
	}
}

func TestDriftWalkZeroBoundAndLength(t *testing.T) {
	for _, w := range [][]PoseError{DriftWalk(1, 0, 10), DriftWalk(1, -2, 10)} {
		if len(w) != 10 {
			t.Fatalf("walk length %d, want 10", len(w))
		}
		for f, e := range w {
			if e != (PoseError{}) {
				t.Fatalf("zero-bound walk has error at frame %d", f)
			}
		}
	}
	if got := len(DriftWalk(1, 1, 0)); got != 0 {
		t.Fatalf("zero-frame walk length %d", got)
	}
	if got := len(DriftWalk(1, 1, -3)); got != 0 {
		t.Fatalf("negative-frame walk length %d", got)
	}
}

// TestScenarioDriftWalkSeed pins the per-vehicle seed contract that the
// episode engine and the hub selftest share (docs/DETERMINISM.md), and
// that exact localization has no walks at all.
func TestScenarioDriftWalkSeed(t *testing.T) {
	sc := &Scenario{Seed: 5, Poses: make([]geom.Transform, 3)}
	walks := sc.DriftWalks(0.6, 4)
	if len(walks) != 3 {
		t.Fatalf("%d walks for 3 poses", len(walks))
	}
	for i, got := range walks {
		want := DriftWalk(5*1000003+int64(i)*7919+11, 0.6, 4)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("vehicle %d: walk %v, want %v", i, got, want)
		}
	}
	for _, bound := range []float64{0, -1} {
		for i, w := range sc.DriftWalks(bound, 4) {
			if w != nil {
				t.Errorf("bound %g: vehicle %d has walk %v, want nil", bound, i, w)
			}
		}
	}
}
