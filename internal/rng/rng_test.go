package rng

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the SplitMix64 reference
	// implementation (Vigna).
	g := NewSplitMix64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for label := uint64(0); label < 1000; label++ {
		s := DeriveSeed(1, label)
		if seen[s] {
			t.Fatalf("seed collision at label %d", label)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("label order must matter")
	}
	if DeriveSeed(1, 2) == DeriveSeed(2, 2) {
		t.Error("root seed must matter")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(9, 1)
	b := NewRand(9, 1)
	c := NewRand(9, 2)
	same, diff := true, false
	for i := 0; i < 32; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			same = false
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !same {
		t.Error("same labels must give identical streams")
	}
	if !diff {
		t.Error("different labels must give different streams")
	}
}

func TestLGMSequence(t *testing.T) {
	// The minimal-standard generator has the classic check value:
	// starting from 1, the 10000th output is 1043618065 (Park & Miller).
	g := NewLGM(1)
	var v int64
	for i := 0; i < 10000; i++ {
		v = g.Next()
	}
	if v != 1043618065 {
		t.Fatalf("10000th LGM output = %d, want 1043618065", v)
	}
}

func TestLGMSeedNormalization(t *testing.T) {
	if NewLGM(0).state != 1 {
		t.Error("zero seed must be remapped to 1")
	}
	if s := NewLGM(-5).state; s <= 0 || s >= lgmModulus {
		t.Errorf("negative seed normalized to %d, want in [1, m-1]", s)
	}
	if s := NewLGM(lgmModulus).state; s != 1 {
		t.Errorf("seed == modulus normalized to %d, want 1", s)
	}
}

func TestLGMRange(t *testing.T) {
	f := func(seed int64) bool {
		g := NewLGM(seed)
		for i := 0; i < 50; i++ {
			v := g.Next()
			if v < 1 || v >= lgmModulus {
				return false
			}
			f := g.Float64()
			if f <= 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLGMNoiseBit(t *testing.T) {
	g := NewLGM(123)
	pos, neg := 0, 0
	for i := 0; i < 1000; i++ {
		switch g.NoiseBit() {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatal("NoiseBit outside {-1,+1}")
		}
	}
	if pos < 400 || neg < 400 {
		t.Errorf("noise bits badly unbalanced: +%d -%d", pos, neg)
	}
}

func TestTRNGAccounting(t *testing.T) {
	tr := NewTRNG(5)
	if tr.Queries() != 0 {
		t.Fatal("fresh TRNG must have 0 queries")
	}
	for i := 0; i < 10; i++ {
		tr.Next()
	}
	tr.NoiseBit()
	if tr.Queries() != 11 {
		t.Errorf("Queries = %d, want 11", tr.Queries())
	}
	if got := tr.TotalLatency(); got != 11*DefaultTRNGLatency {
		t.Errorf("TotalLatency = %v", got)
	}
	if got := tr.TotalEnergyNJ(); got != 11*DefaultTRNGEnergyNJ {
		t.Errorf("TotalEnergyNJ = %v", got)
	}
}

func TestTRNGDeterministicStream(t *testing.T) {
	a, b := NewTRNG(7), NewTRNG(7)
	for i := 0; i < 20; i++ {
		if a.Next() != b.Next() {
			t.Fatal("TRNG model must be reproducible for tests")
		}
	}
}

// TestReseedMatchesFresh pins the pooled-source contract: a source
// already advanced on another stream and then re-seeded draws exactly
// what a fresh NewSource64 on the target stream draws.
func TestReseedMatchesFresh(t *testing.T) {
	src := NewSource64(3, 7)
	for i := 0; i < 1234; i++ {
		src.Uint64()
	}
	for _, labels := range [][]uint64{{0x5BA7, 0, 1}, {0x5BA7, 1, 1}, {}} {
		Reseed(src, 11, labels...)
		fresh := NewSource64(11, labels...)
		for i := 0; i < 10000; i++ {
			if got, want := src.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("labels %v: draw %d = %#x, fresh source drew %#x", labels, i, got, want)
			}
		}
	}
}
