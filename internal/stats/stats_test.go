package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		sum  float64
		mean float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 5},
		{"mixed", []float64{1, 2, 3, 4}, 10, 2.5},
		{"negative", []float64{-1, 1}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sum(c.in); got != c.sum {
				t.Errorf("Sum = %v, want %v", got, c.sum)
			}
			if got := Mean(c.in); got != c.mean {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
		})
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7)
	}
	if got := SampleStdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("SampleStdDev = %v, want %v", got, math.Sqrt(32.0/7))
	}
}

func TestMinMaxErrEmpty(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if mn, _ := Min([]float64{3, -2, 8}); mn != -2 {
		t.Errorf("Min = %v, want -2", mn)
	}
}

func TestFluctuationAmplitude(t *testing.T) {
	if FluctuationAmplitude([]float64{5}) != 0 {
		t.Error("short series should give 0")
	}
	// Constant series: no fluctuation.
	if got := FluctuationAmplitude([]float64{4, 4, 4}); got != 0 {
		t.Errorf("constant series = %v, want 0", got)
	}
	// Alternating 1,3: mean 2, mean |delta| 2 -> amplitude 1.
	if got := FluctuationAmplitude([]float64{1, 3, 1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("alternating = %v, want 1", got)
	}
	if FluctuationAmplitude([]float64{0, 0}) != 0 {
		t.Error("zero-mean series should give 0, not NaN")
	}
}

func TestIncreaseFraction(t *testing.T) {
	if IncreaseFraction([]float64{1}) != 0 {
		t.Error("short series should give 0")
	}
	if got := IncreaseFraction([]float64{1, 2, 3}); got != 1 {
		t.Errorf("monotone up = %v, want 1", got)
	}
	if got := IncreaseFraction([]float64{3, 2, 1}); got != 0 {
		t.Errorf("monotone down = %v, want 0", got)
	}
	if got := IncreaseFraction([]float64{1, 2, 1, 2}); !almostEqual(got, 2.0/3, 1e-12) {
		t.Errorf("mixed = %v, want 2/3", got)
	}
}

// Property: mean is bounded by min and max.
func TestQuickMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := sanitize(xs)
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		mn, _ := Min(clean)
		mx := slices.Max(clean)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitize bounds quick-generated values so floating-point overflow does not
// create false failures; NaN/Inf are dropped.
func sanitize(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x > 1e12 {
			x = 1e12
		}
		if x < -1e12 {
			x = -1e12
		}
		out = append(out, x)
	}
	return out
}
