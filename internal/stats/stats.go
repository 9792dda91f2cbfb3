// Package stats provides the small set of statistics helpers the AARC
// experiments need: central moments, percentiles, a streaming mean and
// variance, and the fluctuation-amplitude metric used in §II-B of the
// paper.
//
// Everything operates on []float64 and never mutates its input.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// SampleVariance returns the unbiased sample variance (divide by n-1).
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// SampleStdDev returns the unbiased sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Min returns the minimum of xs. It returns ErrEmpty for an empty slice.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for an empty slice.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input is copied, not mutated.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0], nil
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo], nil
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// FluctuationAmplitude is the §II-B instability metric: the mean absolute
// difference between consecutive values, divided by the mean of the series.
// It returns 0 for series shorter than 2 or with zero mean.
func FluctuationAmplitude(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	s := 0.0
	for i := 1; i < len(xs); i++ {
		s += math.Abs(xs[i] - xs[i-1])
	}
	return s / float64(len(xs)-1) / m
}

// IncreaseFraction returns the fraction of consecutive transitions that are
// strictly increasing (the paper observes "nearly half of these changes are
// increases" for BO). It returns 0 for series shorter than 2.
func IncreaseFraction(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	inc := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			inc++
		}
	}
	return float64(inc) / float64(len(xs)-1)
}

// Welford accumulates mean and variance in a single streaming pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of accumulated values.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any Add).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }
