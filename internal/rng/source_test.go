package rng

import (
	"math"
	"math/rand"
	"testing"
)

// drawLen covers three full turns of the 607-word register, so every
// word is drawn after it has been rewritten at least twice.
const drawLen = 3*lfLen + 5

// edgeSeeds are the seeds where math/rand's folding has a case: zero
// and its replacement, ±1, the modulus and its neighbours (which fold
// to 0, 1 and m-1), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, pmZeroSeed, -pmZeroSeed,
	pmModulus, pmModulus - 1, pmModulus + 1, -pmModulus, -pmModulus - 1, -pmModulus + 1,
	2 * pmModulus, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// checkSeed compares Source against math/rand's source on seed: the raw
// Uint64 and Int63 streams, then the rand.Rand methods the simulation
// uses, interleaved so each consumes the stream at a different rate.
func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	got := NewSource(seed)
	for i := 0; i < drawLen; i++ {
		if i%2 == 0 {
			if w, g := ref.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, g, w)
			}
		} else if w, g := ref.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, i, g, w)
		}
	}

	rr, gr := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
	for i := 0; i < drawLen; i++ {
		if w, g := rr.Float64(), gr.Float64(); w != g {
			t.Fatalf("seed %d: Float64 %d = %v, want %v", seed, i, g, w)
		}
		if w, g := rr.Intn(1000+i), gr.Intn(1000+i); w != g {
			t.Fatalf("seed %d: Intn %d = %d, want %d", seed, i, g, w)
		}
		if w, g := rr.NormFloat64(), gr.NormFloat64(); w != g {
			t.Fatalf("seed %d: NormFloat64 %d = %v, want %v", seed, i, g, w)
		}
		if w, g := rr.ExpFloat64(), gr.ExpFloat64(); w != g {
			t.Fatalf("seed %d: ExpFloat64 %d = %v, want %v", seed, i, g, w)
		}
	}
	wp, gp := rr.Perm(drawLen), gr.Perm(drawLen)
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("seed %d: Perm[%d] = %d, want %d", seed, i, gp[i], wp[i])
		}
	}
}

// TestSourceMatchesMathRand holds Source to math/rand's stream at every
// folding edge case and on a thousand random seeds.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSeed(t, seed)
	}
	sm := NewSplitMix64(0x5EED)
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		checkSeed(t, int64(sm.Next()))
	}
}

// TestReseedMidStream pins Reseed on a source that has already drawn
// part of another stream: it must draw exactly what a fresh
// NewSource64 on the same derivation draws.
func TestReseedMidStream(t *testing.T) {
	src := NewSource64(7, 1)
	for i := 0; i < lfLen+123; i++ {
		src.Uint64()
	}
	Reseed(src, 9, 4, 2)
	fresh := NewSource64(9, 4, 2)
	for i := 0; i < drawLen; i++ {
		if w, g := fresh.Uint64(), src.Uint64(); w != g {
			t.Fatalf("draw %d after Reseed = %#x, fresh source %#x", i, g, w)
		}
	}
	ref := rand.NewSource(int64(DeriveSeed(9, 4, 2)))
	Reseed(src, 9, 4, 2)
	for i := 0; i < drawLen; i++ {
		if w, g := ref.Int63(), src.Int63(); w != g {
			t.Fatalf("Int63 %d after Reseed = %#x, math/rand %#x", i, g, w)
		}
	}
}

// TestNewSource64IsSource pins the type production lanes rely on: the
// fault planner takes its inlined draw only on a *Source.
func TestNewSource64IsSource(t *testing.T) {
	if _, ok := NewSource64(1, 2).(*Source); !ok {
		t.Fatalf("NewSource64 returned %T, want *rng.Source", NewSource64(1, 2))
	}
}

// FuzzSourceMatchesMathRand holds Source to math/rand's stream on
// arbitrary seeds, drawing a length the input picks.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(drawLen))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < int(n); i++ {
			if w, g := ref.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		rr, gr := rand.New(ref), rand.New(got)
		if w, g := rr.Float64(), gr.Float64(); w != g {
			t.Fatalf("seed %d: Float64 after %d draws = %v, want %v", seed, n, g, w)
		}
		ref.Seed(seed ^ int64(n))
		got.Seed(seed ^ int64(n))
		if w, g := ref.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 after re-seed = %#x, want %#x", seed^int64(n), g, w)
		}
	})
}
