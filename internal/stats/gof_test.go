package stats

import (
	"math"
	"testing"

	"shmd/internal/rng"
)

// TestGammaQKnownValues checks the incomplete gamma against closed
// forms: Q(1/2, x) = erfc(sqrt(x)) and Q(1, x) = exp(-x), covering
// both the series (x < a+1) and continued-fraction (x >= a+1) paths.
func TestGammaQKnownValues(t *testing.T) {
	for _, x := range []float64{1e-6, 0.1, 0.5, 1, 2, 5, 10, 50} {
		if got, want := GammaQ(0.5, x), math.Erfc(math.Sqrt(x)); math.Abs(got-want) > 1e-12*math.Max(want, 1e-15) && math.Abs(got-want) > 1e-14 {
			t.Errorf("GammaQ(0.5, %v) = %v, want erfc = %v", x, got, want)
		}
		if got, want := GammaQ(1, x), math.Exp(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaQ(1, %v) = %v, want %v", x, got, want)
		}
	}
	if GammaQ(3, 0) != 1 {
		t.Error("GammaQ(a, 0) must be 1")
	}
	if !math.IsNaN(GammaQ(-1, 1)) || !math.IsNaN(GammaQ(1, -1)) {
		t.Error("invalid arguments must return NaN")
	}
	// Q(2, x) = (1+x)e^-x, on the series (x < 3) and continued-fraction
	// sides.
	for _, x := range []float64{0.5, 2, 5} {
		if got, want := GammaQ(2, x), (1+x)*math.Exp(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaQ(2, %v) = %v, want %v", x, got, want)
		}
	}
}

// TestChiSquarePKnownValues pins tabulated chi-square critical points:
// P(X²_1 >= 3.841) ≈ 0.05, P(X²_5 >= 11.070) ≈ 0.05,
// P(X²_10 >= 23.209) ≈ 0.01.
func TestChiSquarePKnownValues(t *testing.T) {
	cases := []struct {
		stat float64
		df   int
		p    float64
	}{
		{3.841, 1, 0.05},
		{11.070, 5, 0.05},
		{23.209, 10, 0.01},
		{0, 4, 1},
	}
	for _, c := range cases {
		if got := ChiSquareP(c.stat, c.df); math.Abs(got-c.p) > 5e-4 {
			t.Errorf("ChiSquareP(%v, %d) = %v, want ~%v", c.stat, c.df, got, c.p)
		}
	}
}

// TestChiSquareGOF runs the full test on a perfect fit (p = 1) and on
// uniform counts drawn from a seeded RNG (p must not be tiny), and
// rejects malformed inputs.
func TestChiSquareGOF(t *testing.T) {
	obs := []float64{10, 20, 30}
	if stat, p, err := ChiSquareGOF(obs, obs); err != nil || stat != 0 || p != 1 {
		t.Errorf("perfect fit: stat=%v p=%v err=%v", stat, p, err)
	}
	if _, _, err := ChiSquareGOF([]float64{1}, []float64{1}); err == nil {
		t.Error("single bin must error")
	}
	if _, _, err := ChiSquareGOF([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("zero expected bin must error")
	}

	// 10k uniform draws over 8 bins: a correct sampler should not be
	// rejected at alpha far below typical p.
	r := rng.NewRand(42)
	const n, bins = 10000, 8
	observed := make([]float64, bins)
	expected := make([]float64, bins)
	for i := 0; i < n; i++ {
		observed[r.Intn(bins)]++
	}
	for i := range expected {
		expected[i] = float64(n) / bins
	}
	if _, p, err := ChiSquareGOF(observed, expected); err != nil || p < 1e-6 {
		t.Errorf("uniform sample rejected: p=%v err=%v", p, err)
	}
}

// TestPoolBins checks totals are preserved and every pooled bin meets
// the minimum expectation.
func TestPoolBins(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 5, 0.5}
	exp := []float64{0.5, 1, 6, 2, 2, 0.5}
	po, pe := PoolBins(obs, exp, 5)
	var so, se, wo, we float64
	for _, v := range obs {
		wo += v
	}
	for _, v := range exp {
		we += v
	}
	for i := range pe {
		so += po[i]
		se += pe[i]
		if pe[i] < 5 {
			t.Errorf("pooled bin %d expected %v < 5", i, pe[i])
		}
	}
	if so != wo || se != we {
		t.Errorf("pooling lost mass: obs %v->%v exp %v->%v", wo, so, we, se)
	}
}

// TestKSOneSample checks the KS machinery on uniform samples against
// the uniform CDF (must accept) and against a wrong CDF (must reject).
func TestKSOneSample(t *testing.T) {
	r := rng.NewRand(7)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.Float64()
	}
	uniform := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	if _, p, err := KSOneSample(samples, uniform); err != nil || p < 1e-6 {
		t.Errorf("uniform vs uniform rejected: p=%v err=%v", p, err)
	}
	skewed := func(x float64) float64 { return uniform(x) * uniform(x) }
	if _, p, err := KSOneSample(samples, skewed); err != nil || p > 1e-6 {
		t.Errorf("uniform vs x^2 accepted: p=%v err=%v", p, err)
	}
	if _, _, err := KSOneSample(nil, uniform); err == nil {
		t.Error("empty sample must error")
	}
}

// TestKolmogorovP sanity: monotone decreasing in d, bounded in [0,1].
func TestKolmogorovP(t *testing.T) {
	if KolmogorovP(0, 100) != 1 {
		t.Error("d=0 must give p=1")
	}
	prev := 1.0
	for _, d := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
		p := KolmogorovP(d, 100)
		if p < 0 || p > prev {
			t.Errorf("KolmogorovP(%v, 100) = %v not decreasing from %v", d, p, prev)
		}
		prev = p
	}
	if p := KolmogorovP(0.5, 1000); p > 1e-12 {
		t.Errorf("huge deviation p=%v", p)
	}
}
