// Package stats provides the descriptive statistics, histogramming and
// classification metrics shared by every experiment in the Stochastic-HMD
// reproduction, plus the approximate-entropy test the paper uses in
// Section II to validate that undervolting-induced faults are stochastic.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n),
// or 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the minimum and maximum of xs.
// It returns ErrEmpty when xs is empty.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty when xs
// is empty and an error when q is outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty when xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	min, max, _ := MinMax(xs)
	med, _ := Median(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
		Median: med,
	}, nil
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f med=%.4f max=%.4f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}
