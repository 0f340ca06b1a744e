package faults

import (
	"math"
	"testing"
	"testing/quick"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

func newTestInjector(t *testing.T, rate float64) *Injector {
	t.Helper()
	in, err := NewInjector(rate, nil, rng.NewRand(1, uint64(rate*1000)))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewDistributionValidation(t *testing.T) {
	var w [ProductBits]float64

	if _, err := NewDistribution(w); err == nil {
		t.Error("zero-mass distribution must be rejected")
	}

	w[0] = 1 // LSB cannot fault
	if _, err := NewDistribution(w); err == nil {
		t.Error("mass at bit 0 must be rejected")
	}

	w[0] = 0
	w[63] = 1 // sign bit cannot fault
	if _, err := NewDistribution(w); err == nil {
		t.Error("mass at the sign bit must be rejected")
	}

	w[63] = 0
	w[20] = -1
	if _, err := NewDistribution(w); err == nil {
		t.Error("negative weight must be rejected")
	}

	w[20] = math.NaN()
	if _, err := NewDistribution(w); err == nil {
		t.Error("NaN weight must be rejected")
	}

	w[20] = 1
	d, err := NewDistribution(w)
	if err != nil {
		t.Fatal(err)
	}
	if d.weights[20] != 1 {
		t.Errorf("single-bit distribution weight = %v", d.weights[20])
	}
}

func TestFig1DistributionRespectsConstraints(t *testing.T) {
	d := Fig1Distribution()
	ws := d.Weights()
	total := 0.0
	for bit, w := range ws {
		total += w
		if (bit < MinFaultBit || bit > MaxFaultBit) && w != 0 {
			t.Errorf("bit %d has forbidden mass %v", bit, w)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("distribution mass = %v, want 1", total)
	}
	// The measured shape is low-bit heavy: most mass below bit 24.
	low := 0.0
	for bit := MinFaultBit; bit < 24; bit++ {
		low += ws[bit]
	}
	if low < 0.9 {
		t.Errorf("low-bit mass = %v, want > 0.9", low)
	}
	// But high bits retain nonzero mass (the catastrophic tail exists).
	high := 0.0
	for bit := 28; bit <= MaxFaultBit; bit++ {
		high += ws[bit]
	}
	if high <= 0 {
		t.Error("high-bit tail must have nonzero mass")
	}
}

func TestDistributionSampleMatchesWeights(t *testing.T) {
	d := Fig1Distribution()
	rnd := rng.NewRand(2)
	const n = 200000
	var counts [ProductBits]int
	for i := 0; i < n; i++ {
		bit := d.Sample(rnd)
		if bit < MinFaultBit || bit > MaxFaultBit {
			t.Fatalf("sampled forbidden bit %d", bit)
		}
		counts[bit]++
	}
	for bit := MinFaultBit; bit <= MaxFaultBit; bit++ {
		want := d.weights[bit]
		got := float64(counts[bit]) / n
		// 5-sigma binomial tolerance.
		tol := 5*math.Sqrt(want*(1-want)/n) + 1e-4
		if math.Abs(got-want) > tol {
			t.Errorf("bit %d: sampled %v, want %v (tol %v)", bit, got, want, tol)
		}
	}
}

func TestInjectorRateValidation(t *testing.T) {
	if _, err := NewInjector(-0.1, nil, rng.NewRand(1)); err == nil {
		t.Error("negative rate must be rejected")
	}
	if _, err := NewInjector(1.1, nil, rng.NewRand(1)); err == nil {
		t.Error("rate > 1 must be rejected")
	}
	if _, err := NewInjector(0.5, nil, nil); err == nil {
		t.Error("nil random stream must be rejected")
	}
	in := newTestInjector(t, 0.5)
	if err := in.SetRate(2); err == nil {
		t.Error("SetRate(2) must fail")
	}
	if err := in.SetRate(0.25); err != nil || in.Rate() != 0.25 {
		t.Errorf("SetRate: err=%v rate=%v", err, in.Rate())
	}
}

func TestZeroRateInjectorIsExact(t *testing.T) {
	in := newTestInjector(t, 0)
	exact := fxp.Exact{}
	rnd := rng.NewRand(3)
	for i := 0; i < 1000; i++ {
		a := fxp.Value(rnd.Int31() - 1<<30)
		b := fxp.Value(rnd.Int31() - 1<<30)
		if in.Mul(a, b) != exact.Mul(a, b) {
			t.Fatalf("zero-rate injector corrupted %d*%d", a, b)
		}
	}
	if in.Stats().Faults != 0 {
		t.Errorf("zero-rate injector recorded %d faults", in.Stats().Faults)
	}
	if in.Stats().Muls != 1000 {
		t.Errorf("Muls = %d, want 1000", in.Stats().Muls)
	}
}

func TestInjectorObservedRate(t *testing.T) {
	for _, rate := range []float64{0.05, 0.3, 1.0} {
		in := newTestInjector(t, rate)
		const n = 50000
		for i := 0; i < n; i++ {
			in.Mul(12345, 6789)
		}
		got := in.Stats().Rate()
		tol := 5*math.Sqrt(rate*(1-rate)/n) + 1e-9
		if math.Abs(got-rate) > tol {
			t.Errorf("rate %v: observed %v (tol %v)", rate, got, tol)
		}
	}
}

func TestInjectorSingleBitFlips(t *testing.T) {
	in := newTestInjector(t, 1)
	exact := fxp.Exact{}
	rnd := rng.NewRand(4)
	for i := 0; i < 2000; i++ {
		a := fxp.Value(rnd.Int31())
		b := fxp.Value(rnd.Int31())
		diff := uint64(in.Mul(a, b) ^ exact.Mul(a, b))
		if diff == 0 {
			t.Fatal("rate-1 injector produced a fault-free product")
		}
		if diff&(diff-1) != 0 {
			t.Fatalf("fault flipped more than one bit: %#x", diff)
		}
		bit := 0
		for diff>>uint(bit) != 1 {
			bit++
		}
		if bit < MinFaultBit || bit > MaxFaultBit {
			t.Fatalf("fault at forbidden bit %d", bit)
		}
	}
}

func TestSignBitNeverFlips(t *testing.T) {
	// Directly mirrors the Section II observation: across many faulty
	// multiplications, the product sign never changes.
	in := newTestInjector(t, 1)
	rnd := rng.NewRand(5)
	for i := 0; i < 5000; i++ {
		a := fxp.Value(rnd.Int31() - 1<<30)
		b := fxp.Value(rnd.Int31() - 1<<30)
		exact := int64(fxp.Exact{}.Mul(a, b))
		got := int64(in.Mul(a, b))
		if (exact < 0) != (got < 0) {
			t.Fatalf("sign flipped: exact=%d faulty=%d", exact, got)
		}
	}
}

func TestLow8BitsNeverFlip(t *testing.T) {
	in := newTestInjector(t, 1)
	rnd := rng.NewRand(6)
	for i := 0; i < 5000; i++ {
		a := fxp.Value(rnd.Int31())
		b := fxp.Value(rnd.Int31())
		exact := fxp.Exact{}.Mul(a, b)
		got := in.Mul(a, b)
		if (exact^got)&0xFF != 0 {
			t.Fatalf("low bits flipped: exact=%#x faulty=%#x", exact, got)
		}
	}
}

func TestFaultLocationsVaryAcrossRuns(t *testing.T) {
	// Same operands, repeated runs: the fault location must vary —
	// the stochastic property that distinguishes undervolting from a
	// deterministic approximate circuit.
	in := newTestInjector(t, 1)
	locs := RepeatMul(in, 999999, 888888, 500)
	seen := map[int]bool{}
	for _, l := range locs {
		if l < 0 {
			t.Fatal("rate-1 run without fault")
		}
		seen[l] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct fault locations across 500 runs", len(seen))
	}
}

func TestStochasticityApEn(t *testing.T) {
	// At an intermediate rate the fault on/off series must look
	// irregular (high ApEn); the truncation unit by contrast is
	// perfectly regular (same output every run).
	in := newTestInjector(t, 0.5)
	ap, err := StochasticityApEn(in, 123456, 654321, 300)
	if err != nil {
		t.Fatal(err)
	}
	if ap < 0.3 {
		t.Errorf("ApEn = %v, want > 0.3 for stochastic faults", ap)
	}
}

func TestRepeatMulFaultFree(t *testing.T) {
	in := newTestInjector(t, 0)
	locs := RepeatMul(in, 42, 42, 10)
	for _, l := range locs {
		if l != -1 {
			t.Fatalf("fault-free run reported fault at bit %d", l)
		}
	}
}

func TestTruncatedUnitDeterministic(t *testing.T) {
	u := TruncatedUnit{DropBits: 4}
	a, b := fxp.Value(0x1234567), fxp.Value(-0x76543)
	first := u.Mul(a, b)
	for i := 0; i < 10; i++ {
		if u.Mul(a, b) != first {
			t.Fatal("truncated unit must be deterministic")
		}
	}
	// Dropping 0 bits is exact.
	exactU := TruncatedUnit{DropBits: 0}
	if exactU.Mul(a, b) != (fxp.Exact{}).Mul(a, b) {
		t.Error("DropBits=0 must be exact")
	}
}

func TestTruncatedUnitError(t *testing.T) {
	f := fxp.DefaultFormat
	u := TruncatedUnit{DropBits: 6}
	a := f.FromFloat(3.14159)
	b := f.FromFloat(-2.71828)
	// A product carries 2F fractional bits.
	scale := math.Ldexp(1, 2*int(f.FracBits))
	approx := float64(u.Mul(a, b)) / scale
	exact := float64(fxp.Exact{}.Mul(a, b)) / scale
	if approx == exact {
		t.Error("truncation should perturb this product")
	}
	if math.Abs(approx-exact) > 0.5 {
		t.Errorf("truncation error too large: %v vs %v", approx, exact)
	}
}

func TestObservedBitHistogram(t *testing.T) {
	in := newTestInjector(t, 0.5)
	hist := ObservedBitHistogram(in, 2000, 5, rng.NewRand(7))
	total := 0.0
	for bit, r := range hist {
		if r > 0 && (bit < MinFaultBit || bit > MaxFaultBit) {
			t.Errorf("observed fault at forbidden bit %d", bit)
		}
		total += r
	}
	if math.Abs(total-0.5) > 0.05 {
		t.Errorf("total observed rate = %v, want ~0.5", total)
	}
}

// Property: counters are consistent — faults equals the sum of per-bit
// counts and never exceeds muls.
func TestCountersConsistency(t *testing.T) {
	check := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw) / 255
		in, err := NewInjector(rate, nil, rng.NewRand(seed))
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			in.Mul(fxp.Value(seed), fxp.Value(i))
		}
		st := in.Stats()
		var sum uint64
		for _, c := range st.PerBit {
			sum += c
		}
		return st.Faults == sum && st.Faults <= st.Muls && st.Muls == 500
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
