package faults

import (
	"math"
	"testing"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// equivalenceRates are the operating points the skip-ahead sampler is
// held to the Bernoulli reference at: the paper's sweep floor, the
// chosen operating region, a heavy-fault point, and the degenerate
// every-mul-faults edge.
var equivalenceRates = []float64{0.01, 0.1, 0.5, 1.0}

// TestSkipAheadMatchesBernoulliRate drives the skip-ahead injector and
// the per-mul Bernoulli reference over the same number of
// multiplications and requires both observed fault rates to sit within
// a binomial confidence band around the configured rate — the
// distributional-equivalence guarantee of DESIGN.md §9.
func TestSkipAheadMatchesBernoulliRate(t *testing.T) {
	const muls = 2_000_000
	for _, rate := range equivalenceRates {
		skip, err := NewInjector(rate, nil, rng.NewRand(90, math.Float64bits(rate)))
		if err != nil {
			t.Fatal(err)
		}
		ref := newBernoulliInjector(rate, nil, rng.NewRand(91, math.Float64bits(rate)))
		for i := 0; i < muls; i++ {
			skip.Mul(3, 5)
			ref.Mul(3, 5)
		}
		// 6-sigma binomial band: false-failure odds ~1e-9 per check.
		tol := 6 * math.Sqrt(rate*(1-rate)/muls)
		for _, in := range []struct {
			name string
			c    Counters
		}{{"skip-ahead", skip.Stats()}, {"bernoulli", ref.Stats()}} {
			if in.c.Muls != muls {
				t.Errorf("rate %v: %s counted %d muls, want %d", rate, in.name, in.c.Muls, muls)
			}
			if got := in.c.Rate(); math.Abs(got-rate) > tol {
				t.Errorf("rate %v: %s observed rate %v outside ±%v", rate, in.name, got, tol)
			}
		}
	}
}

// TestSkipAheadBulkPathRate repeats the rate check through the
// injector's batch form, one lane row by row, using rows comparable to
// the deployed network's fan-in, so the row planner's gap bookkeeping
// across row boundaries is what is being measured.
func TestSkipAheadBulkPathRate(t *testing.T) {
	const (
		rowLen = 33 // hidden-layer fan-in + bias in the deployed HMD
		rows   = 60_000
	)
	w := make([]fxp.Value, rowLen)
	x := make([]fxp.Value, rowLen)
	for i := range w {
		w[i], x[i] = fxp.Value(i+1), fxp.Value(2*i+1)
	}
	for _, rate := range equivalenceRates {
		in, err := NewInjector(rate, nil, rng.NewRand(92, math.Float64bits(rate)))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			rowDot(in, fxp.DefaultFormat, w, x)
		}
		muls := float64(rowLen * rows)
		if got := in.Stats().Muls; got != uint64(muls) {
			t.Fatalf("rate %v: bulk path counted %d muls, want %d", rate, got, uint64(muls))
		}
		tol := 6 * math.Sqrt(rate*(1-rate)/muls)
		if got := in.Stats().Rate(); math.Abs(got-rate) > tol {
			t.Errorf("rate %v: bulk observed rate %v outside ±%v", rate, got, tol)
		}
	}
}

// TestSkipAheadPerBitDistribution checks that where faults land is
// untouched by the sampling change: each bit's observed fault rate must
// match dist.weights[bit] * rate for both injectors, within a binomial
// band (only bits with enough expected mass are tested individually;
// the tail is pooled).
func TestSkipAheadPerBitDistribution(t *testing.T) {
	const muls = 2_000_000
	dist := Fig1Distribution()
	for _, rate := range []float64{0.1, 1.0} {
		skip, _ := NewInjector(rate, dist, rng.NewRand(93, math.Float64bits(rate)))
		ref := newBernoulliInjector(rate, dist, rng.NewRand(94, math.Float64bits(rate)))
		for i := 0; i < muls; i++ {
			skip.Mul(7, 11)
			ref.Mul(7, 11)
		}
		for _, in := range []struct {
			name string
			c    Counters
		}{{"skip-ahead", skip.Stats()}, {"bernoulli", ref.Stats()}} {
			bitRates := in.c.BitRates()
			for bit := 0; bit < ProductBits; bit++ {
				want := dist.weights[bit] * rate
				if want*muls < 50 {
					// Too little expected mass for a per-bit band; the
					// zero-weight bits are still checked exactly.
					if dist.weights[bit] == 0 && in.c.PerBit[bit] != 0 {
						t.Errorf("rate %v: %s faulted zero-weight bit %d", rate, in.name, bit)
					}
					continue
				}
				tol := 6 * math.Sqrt(want*(1-want)/muls)
				if got := bitRates[bit]; math.Abs(got-want) > tol {
					t.Errorf("rate %v: %s bit %d rate %v, want %v ± %v",
						rate, in.name, bit, got, want, tol)
				}
			}
		}
	}
}

// TestSkipAheadScalarBulkBitIdentical is the stronger, non-statistical
// property the batch form is designed for: two injectors on identical
// streams produce bit-identical products whether a multiplication
// sequence flows through scalar Mul calls or through the injector's
// one-lane batch form — because both consume the RNG in the same order
// (gap draws and bit draws at the same points).
func TestSkipAheadScalarBulkBitIdentical(t *testing.T) {
	const (
		rowLen = 65
		rows   = 500
	)
	f := fxp.DefaultFormat
	for _, rate := range equivalenceRates {
		bulk, _ := NewInjector(rate, nil, rng.NewRand(95, math.Float64bits(rate)))
		scalar, _ := NewInjector(rate, nil, rng.NewRand(95, math.Float64bits(rate)))
		gen := rng.NewRand(96)
		for r := 0; r < rows; r++ {
			w := make([]fxp.Value, rowLen)
			x := make([]fxp.Value, rowLen)
			for i := range w {
				w[i] = fxp.Value(gen.Int31()) - 1<<30
				x[i] = fxp.Value(gen.Int31()) - 1<<30
			}
			got := rowDot(bulk, f, w, x)
			want := mulDot(scalar, f, w, x)
			if got != want {
				t.Fatalf("rate %v row %d: bulk %d != scalar %d", rate, r, got, want)
			}
		}
		if bulk.Stats() != scalar.Stats() {
			t.Errorf("rate %v: counters diverged: bulk %+v scalar %+v",
				rate, bulk.Stats(), scalar.Stats())
		}
	}
}

// TestSkipAheadGapLaw checks the sampled gaps directly: for a sequence
// of scalar muls, the mean gap between consecutive faults must match
// the geometric mean (1-p)/p, and SetRate must discard a pending gap.
func TestSkipAheadGapLaw(t *testing.T) {
	const muls = 4_000_000
	rate := 0.05
	in, _ := NewInjector(rate, nil, rng.NewRand(97))
	var gaps []int
	last := -1
	for i := 0; i < muls; i++ {
		before := in.Stats().Faults
		in.Mul(1, 1)
		if in.Stats().Faults > before {
			if last >= 0 {
				gaps = append(gaps, i-last-1)
			}
			last = i
		}
	}
	if len(gaps) < 1000 {
		t.Fatalf("only %d gaps observed", len(gaps))
	}
	var sum float64
	for _, g := range gaps {
		sum += float64(g)
	}
	mean := sum / float64(len(gaps))
	want := (1 - rate) / rate
	// Geometric std is sqrt(1-p)/p; 6-sigma band on the sample mean.
	tol := 6 * math.Sqrt(1-rate) / rate / math.Sqrt(float64(len(gaps)))
	if math.Abs(mean-want) > tol {
		t.Errorf("mean gap %v, want %v ± %v", mean, want, tol)
	}

	// SetRate must invalidate the pending gap: at rate 1 every mul
	// faults immediately, no matter what gap was pending.
	if err := in.SetRate(1); err != nil {
		t.Fatal(err)
	}
	pre := in.Stats().Faults
	for i := 0; i < 100; i++ {
		in.Mul(2, 3)
	}
	if got := in.Stats().Faults - pre; got != 100 {
		t.Errorf("after SetRate(1), %d/100 muls faulted", got)
	}
}

// TestSkipAheadZeroAndFullRate pins the edge rates: 0 must never fault
// (and consume no randomness), 1 must fault every multiplication on
// both paths.
func TestSkipAheadZeroAndFullRate(t *testing.T) {
	w := []fxp.Value{1 << 12, 2 << 12, 3 << 12}
	x := []fxp.Value{4 << 12, 5 << 12, 6 << 12}

	zero, _ := NewInjector(0, nil, rng.NewRand(98))
	for i := 0; i < 1000; i++ {
		zero.Mul(w[0], x[0])
		rowDot(zero, fxp.DefaultFormat, w, x)
	}
	if s := zero.Stats(); s.Faults != 0 {
		t.Errorf("zero-rate injector faulted %d times", s.Faults)
	}
	if got, want := rowDot(zero, fxp.DefaultFormat, w, x), mulDot(fxp.Exact{}, fxp.DefaultFormat, w, x); got != want {
		t.Errorf("zero-rate DotRow %d != exact %d", got, want)
	}

	full, _ := NewInjector(1, nil, rng.NewRand(99))
	for i := 0; i < 1000; i++ {
		full.Mul(w[0], x[0])
		rowDot(full, fxp.DefaultFormat, w, x)
	}
	if s := full.Stats(); s.Faults != s.Muls {
		t.Errorf("full-rate injector faulted %d of %d muls", s.Faults, s.Muls)
	}
}
