package stats

import (
	"fmt"
	"math"
	"sort"
)

// Goodness-of-fit machinery for the conformance suite: chi-square and
// Kolmogorov-Smirnov tests with closed-form p-values, built on the
// regularized incomplete gamma function. No external dependencies —
// the series/continued-fraction evaluation below is the standard
// Lentz/series split around x = a+1.

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) for a > 0, x >= 0. The chi-square survival
// function is Q(df/2, stat/2).
func GammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 1000
	gammaFPMin   = 1e-300
)

// gammaPSeries evaluates P(a, x) by its power series, convergent and
// numerically stable for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinued evaluates Q(a, x) by its continued fraction using
// modified Lentz iteration, convergent for x >= a+1.
func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareP returns the upper-tail p-value of a chi-square statistic
// with df degrees of freedom: P(X² >= stat).
func ChiSquareP(stat float64, df int) float64 {
	if df < 1 || stat < 0 || math.IsNaN(stat) {
		return math.NaN()
	}
	return GammaQ(float64(df)/2, stat/2)
}

// ChiSquareGOF runs Pearson's chi-square goodness-of-fit test of
// observed counts against expected counts (same length, expected all
// positive) and returns the statistic and its upper-tail p-value with
// len-1 degrees of freedom. Callers estimating parameters from the
// data should subtract further degrees themselves via ChiSquareP.
func ChiSquareGOF(observed, expected []float64) (stat, p float64, err error) {
	if len(observed) != len(expected) {
		return 0, 0, fmt.Errorf("stats: %d observed bins vs %d expected", len(observed), len(expected))
	}
	if len(observed) < 2 {
		return 0, 0, fmt.Errorf("stats: chi-square needs at least 2 bins, got %d", len(observed))
	}
	for i, e := range expected {
		if e <= 0 || math.IsNaN(e) {
			return 0, 0, fmt.Errorf("stats: expected count %v in bin %d (pool bins first)", e, i)
		}
		d := observed[i] - e
		stat += d * d / e
	}
	return stat, ChiSquareP(stat, len(observed)-1), nil
}

// PoolBins merges adjacent bins (left to right) until every pooled bin
// has expected count >= minExpected, preserving totals. The classical
// validity condition for the chi-square approximation is expected >= 5
// per bin. A trailing underweight bin is folded back into its
// predecessor. Returns the pooled observed and expected slices.
func PoolBins(observed, expected []float64, minExpected float64) (obs, exp []float64) {
	var co, ce float64
	for i := range expected {
		co += observed[i]
		ce += expected[i]
		if ce >= minExpected {
			obs = append(obs, co)
			exp = append(exp, ce)
			co, ce = 0, 0
		}
	}
	if ce > 0 {
		if len(exp) > 0 {
			obs[len(obs)-1] += co
			exp[len(exp)-1] += ce
		} else {
			obs = append(obs, co)
			exp = append(exp, ce)
		}
	}
	return obs, exp
}

// KSOneSample computes the one-sample Kolmogorov-Smirnov statistic of
// samples against the CDF cdf, and its asymptotic upper-tail p-value.
// For discrete distributions the returned p-value is conservative
// (the true p-value is larger), so a rejection at level alpha keeps
// its false-alarm bound.
func KSOneSample(samples []float64, cdf func(x float64) float64) (d, p float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		f := cdf(x)
		if hi := float64(i+1)/float64(n) - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/float64(n); lo > d {
			d = lo
		}
	}
	return d, KolmogorovP(d, n), nil
}

// KolmogorovP returns the asymptotic Kolmogorov survival probability
// Q_KS for statistic d at sample size n, using the Stephens small-n
// correction: lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * d.
func KolmogorovP(d float64, n int) float64 {
	if d <= 0 || n < 1 {
		return 1
	}
	rn := math.Sqrt(float64(n))
	lambda := (rn + 0.12 + 0.11/rn) * d
	x := -2 * lambda * lambda
	sum, sign, prev := 0.0, 1.0, math.Inf(1)
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(x*float64(j)*float64(j))
		sum += term
		if math.Abs(term) < 1e-12*math.Abs(sum) || math.Abs(term) >= prev {
			break
		}
		prev = math.Abs(term)
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
