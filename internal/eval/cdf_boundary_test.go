package eval

import (
	"math"
	"testing"
)

// TestCDFBoundaries table-drives the CDF's edge behaviour: empty and
// singleton sample sets, and the exact q = 0 / q = 1 quantile ends.
func TestCDFBoundaries(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		c := NewCDF(nil)
		if len(c.sorted) != 0 {
			t.Errorf("Len = %d, want 0", len(c.sorted))
		}
		for _, q := range []float64{0, 0.5, 1} {
			if v := c.Quantile(q); !math.IsNaN(v) {
				t.Errorf("Quantile(%g) on empty CDF = %v, want NaN", q, v)
			}
		}
		if v := c.Min(); !math.IsNaN(v) {
			t.Errorf("Min on empty CDF = %v, want NaN", v)
		}
		if p := c.At(0); p != 0 {
			t.Errorf("At(0) on empty CDF = %v, want 0", p)
		}
	})

	t.Run("singleton", func(t *testing.T) {
		c := NewCDF([]float64{3.5})
		for _, q := range []float64{0, 0.25, 0.5, 1} {
			if v := c.Quantile(q); v != 3.5 {
				t.Errorf("Quantile(%g) = %v, want 3.5", q, v)
			}
		}
		if p := c.At(3.5); p != 1 {
			t.Errorf("At(3.5) = %v, want 1", p)
		}
		if p := c.At(3.4); p != 0 {
			t.Errorf("At(3.4) = %v, want 0", p)
		}
	})

	t.Run("quantile ends and clamps", func(t *testing.T) {
		c := NewCDF([]float64{4, 1, 3, 2})
		cases := []struct {
			q, want float64
		}{
			{q: 0, want: 1},
			{q: 1, want: 4},
			{q: -0.5, want: 1}, // clamped below
			{q: 2.0, want: 4},  // clamped above
			{q: 0.5, want: 2.5},
		}
		for _, tc := range cases {
			if v := c.Quantile(tc.q); math.Abs(v-tc.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %v, want %v", tc.q, v, tc.want)
			}
		}
	})
}
