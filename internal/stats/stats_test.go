package stats

import (
	"math"
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
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7)
	}
	if Variance([]float64{3}) != 0 || Variance(nil) != 0 {
		t.Error("variance of short samples should be 0")
	}
}

func TestMinMaxErrEmpty(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	mn, _ := Min([]float64{3, -2, 8})
	mx, _ := Max([]float64{3, -2, 8})
	if mn != -2 || mx != 8 {
		t.Errorf("Min/Max = %v/%v, want -2/8", mn, mx)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("Percentile(nil) should return ErrEmpty")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	one, _ := Percentile([]float64{7}, 83)
	if one != 7 {
		t.Errorf("Percentile of singleton = %v, want 7", one)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
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

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, 2.25, -3, 8, 0.5, 12, -7}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), SampleVariance(xs), 1e-9) {
		t.Errorf("Welford var %v != batch %v", w.Variance(), SampleVariance(xs))
	}
	if !almostEqual(w.Std(), SampleStdDev(xs), 1e-9) {
		t.Errorf("Welford std %v != batch %v", w.Std(), SampleStdDev(xs))
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
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
		mx, _ := Max(clean)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and zero for constant series.
func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		clean := sanitize(xs)
		return Variance(clean) >= 0
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
