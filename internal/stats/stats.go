// Package stats provides the small set of statistics helpers the AARC
// experiments need: the mean, the sample standard deviation, the minimum,
// and the two §II-B instability metrics of the paper (fluctuation
// amplitude and increase fraction).
//
// Everything operates on []float64 and never mutates its input.
package stats

import (
	"errors"
	"math"
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
