package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4.5}, 4.5},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, -4, -6}, -4},
		{"mixed", []float64{-1, 0, 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Fatalf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("Quantile(1.1) should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
	// Interpolation between order statistics.
	got, _ := Quantile([]float64{0, 10}, 0.3)
	if !almostEqual(got, 3, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String should be non-empty")
	}
}

// Property: mean is translation-equivariant and within [min, max].
func TestMeanProperties(t *testing.T) {
	f := func(raw []int16, shiftRaw int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		m := Mean(xs)
		min, max, _ := MinMax(xs)
		if m < min-1e-9 || m > max+1e-9 {
			return false
		}
		return almostEqual(Mean(shifted), m+shift, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation-invariant and non-negative.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []int16, shiftRaw int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			shifted[i] = float64(v) + float64(shiftRaw)
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		return almostEqual(Variance(shifted), v, 1e-5*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
