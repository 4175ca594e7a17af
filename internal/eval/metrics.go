package eval

import (
	"math"
	"sort"
)

// Accuracy returns detected/total as a percentage, the quantity plotted in
// Figs. 4 and 7. Total counts objects inside the detection area (score or
// X cells); out-of-area cells are excluded.
func Accuracy(cells []Cell) float64 {
	total, detected := 0, 0
	for _, c := range cells {
		switch c.Kind {
		case CellScore:
			total++
			detected++
		case CellMiss:
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(detected) / float64(total)
}

// Recall returns the detected fraction of in-area objects, in [0, 1]:
// TP / (TP + FN). This is Accuracy's quantity as a fraction — both
// exclude out-of-area cells, and an empty in-area set yields 0.
func Recall(cells []Cell) float64 {
	return Accuracy(cells) / 100
}

// Precision returns TP / (TP + FP), in [0, 1]. With no detections at
// all it yields 0.
func Precision(truePositives, falsePositives int) float64 {
	if truePositives+falsePositives == 0 {
		return 0
	}
	return float64(truePositives) / float64(truePositives+falsePositives)
}

// CountDetected returns the number of detected cells — the bar heights of
// Figs. 4 and 7.
func CountDetected(cells []Cell) int {
	n := 0
	for _, c := range cells {
		if c.Detected() {
			n++
		}
	}
	return n
}

// ScoreImprovement computes the Fig. 8 quantity for one object: the
// cooperative score minus the best single-shot score, in percentage
// points. Undetected single shots contribute zero, so a hard object's
// improvement is the raw cooperative score.
func ScoreImprovement(i, j, coop Cell) (float64, bool) {
	if !coop.Detected() {
		return 0, false
	}
	best := 0.0
	if i.Detected() {
		best = i.Score
	}
	if j.Detected() && j.Score > best {
		best = j.Score
	}
	return 100 * (coop.Score - best), true
}

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds the empirical CDF of the samples.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Binary search for the first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0, 1]).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[len(c.sorted)-1]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Mean returns the sample mean.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// StdDev returns the population standard deviation.
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	sum := 0.0
	for _, s := range samples {
		d := s - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}
