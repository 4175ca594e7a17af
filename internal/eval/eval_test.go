package eval

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cooper/internal/geom"
	"cooper/internal/spod"
)

func carBox(x, y, yaw float64) geom.Box {
	return geom.NewBox(geom.V3(x, y, 0.78), 3.9, 1.6, 1.56, yaw)
}

func det(x, y, yaw, score float64) spod.Detection {
	return spod.Detection{Box: carBox(x, y, yaw), Score: score}
}

func TestMatchOneToOne(t *testing.T) {
	truths := []geom.Box{carBox(10, 0, 0), carBox(20, 5, 0.5)}
	dets := []spod.Detection{det(10.1, 0.1, 0, 0.8), det(20, 5, 0.5, 0.7)}
	assign, fps := Match(truths, dets, DefaultMatchIoU)
	if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assignment = %v", assign)
	}
	if len(fps) != 0 {
		t.Errorf("false positives = %v", fps)
	}
}

func TestMatchPrefersHigherIoU(t *testing.T) {
	truths := []geom.Box{carBox(10, 0, 0)}
	dets := []spod.Detection{
		det(11.5, 0.8, 0, 0.9), // sloppy
		det(10.05, 0, 0, 0.6),  // tight
	}
	assign, fps := Match(truths, dets, DefaultMatchIoU)
	if assign[0] != 1 {
		t.Errorf("matched detection %d, want the tighter one", assign[0])
	}
	if len(fps) != 1 || fps[0] != 0 {
		t.Errorf("false positives = %v", fps)
	}
}

func TestMatchEachUsedOnce(t *testing.T) {
	// Two truths near one detection: only one may claim it.
	truths := []geom.Box{carBox(10, 0, 0), carBox(10.5, 0.2, 0)}
	dets := []spod.Detection{det(10.2, 0.1, 0, 0.8)}
	assign, _ := Match(truths, dets, DefaultMatchIoU)
	matched := 0
	for _, a := range assign {
		if a >= 0 {
			matched++
		}
	}
	if matched != 1 {
		t.Errorf("one detection matched %d truths", matched)
	}
}

func TestMatchBelowThreshold(t *testing.T) {
	truths := []geom.Box{carBox(10, 0, 0)}
	dets := []spod.Detection{det(16, 4, 0, 0.9)} // no overlap
	assign, fps := Match(truths, dets, DefaultMatchIoU)
	if assign[0] != -1 {
		t.Error("disjoint detection matched")
	}
	if len(fps) != 1 {
		t.Errorf("fps = %v", fps)
	}
}

func TestMatchEmpty(t *testing.T) {
	assign, fps := Match(nil, nil, 0.3)
	if len(assign) != 0 || len(fps) != 0 {
		t.Error("empty match misbehaved")
	}
}

func TestCellString(t *testing.T) {
	if got := Score(0.76).String(); got != "0.76" {
		t.Errorf("score cell = %q", got)
	}
	if got := Miss().String(); got != "X" {
		t.Errorf("miss cell = %q", got)
	}
	if got := OutOfArea().String(); got != "" {
		t.Errorf("out-of-area cell = %q", got)
	}
}

func TestBandFor(t *testing.T) {
	cases := map[float64]DistanceBand{
		5:    BandNear,
		9.99: BandNear,
		10:   BandMedium,
		25:   BandMedium,
		25.1: BandFar,
		100:  BandFar,
	}
	for d, want := range cases {
		if got := BandFor(d); got != want {
			t.Errorf("BandFor(%v) = %v, want %v", d, got, want)
		}
	}
}

func TestClassifyDifficulty(t *testing.T) {
	cases := []struct {
		i, j Cell
		want Difficulty
		ok   bool
	}{
		{Score(0.8), Score(0.7), DifficultyEasy, true},
		{Score(0.8), Miss(), DifficultyModerate, true},
		{Miss(), Score(0.7), DifficultyModerate, true},
		{Miss(), Miss(), DifficultyHard, true},
		{Score(0.8), OutOfArea(), DifficultyModerate, true},
		{Miss(), OutOfArea(), DifficultyHard, true},
		{OutOfArea(), OutOfArea(), 0, false},
	}
	for _, c := range cases {
		got, ok := ClassifyDifficulty(c.i, c.j)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ClassifyDifficulty(%v, %v) = %v/%v, want %v/%v", c.i, c.j, got, ok, c.want, c.ok)
		}
	}
}

func TestAccuracy(t *testing.T) {
	cells := []Cell{Score(0.8), Score(0.7), Miss(), OutOfArea()}
	if got := Accuracy(cells); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("accuracy = %v, want 66.7", got)
	}
	if got := Accuracy(nil); got != 0 {
		t.Errorf("empty accuracy = %v", got)
	}
	if got := Accuracy([]Cell{OutOfArea()}); got != 0 {
		t.Errorf("all out-of-area accuracy = %v", got)
	}
}

func TestCountDetected(t *testing.T) {
	cells := []Cell{Score(0.8), Miss(), Score(0.6), OutOfArea()}
	if got := CountDetected(cells); got != 2 {
		t.Errorf("CountDetected = %d, want 2", got)
	}
}

func TestScoreImprovement(t *testing.T) {
	// Easy object: coop over best single.
	imp, ok := ScoreImprovement(Score(0.70), Score(0.76), Score(0.86))
	if !ok || math.Abs(imp-10) > 1e-9 {
		t.Errorf("easy improvement = %v/%v, want 10", imp, ok)
	}
	// Hard object: raw coop score.
	imp, ok = ScoreImprovement(Miss(), Miss(), Score(0.55))
	if !ok || math.Abs(imp-55) > 1e-9 {
		t.Errorf("hard improvement = %v/%v, want 55", imp, ok)
	}
	// Coop missed: no sample.
	if _, ok := ScoreImprovement(Score(0.7), Miss(), Miss()); ok {
		t.Error("coop miss should yield no improvement sample")
	}
}

func TestCDFBasics(t *testing.T) {
	cdf := NewCDF([]float64{1, 2, 3, 4, 5})
	if got := cdf.At(3); got != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := cdf.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := cdf.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := cdf.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := cdf.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := cdf.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := cdf.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	cdf := NewCDF(nil)
	if len(cdf.sorted) != 0 || cdf.At(1) != 0 {
		t.Error("empty CDF misbehaved")
	}
	if !math.IsNaN(cdf.Quantile(0.5)) || !math.IsNaN(cdf.Min()) {
		t.Error("empty CDF should yield NaN stats")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		cdf := NewCDF(vals)
		xs := append([]float64{}, vals...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			p := cdf.At(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := StdDev(vals); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty stats should be 0")
	}
}
