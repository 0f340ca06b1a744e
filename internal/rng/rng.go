// Package rng supplies the random-number machinery used across the
// Stochastic-HMD reproduction:
//
//   - SplitMix64, a fast splittable generator used to derive independent
//     deterministic streams for every program, fold, and repeat so that
//     experiments are exactly reproducible;
//   - Source, math/rand's lagged Fibonacci stream with seeding cheap
//     enough to re-seed every fault lane of every batched pass.
package rng

import "math/rand"

// SplitMix64 is a tiny splittable PRNG (Steele et al., OOPSLA 2014).
// Its main job here is deriving well-decorrelated child seeds: every
// synthetic program, detector, and experiment repeat gets its own
// stream derived from a root seed, which keeps every figure exactly
// reproducible while avoiding accidental stream overlap.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit output.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed mixes a label into the stream and returns a child seed.
// Calling it repeatedly with different labels yields independent seeds.
func DeriveSeed(root uint64, labels ...uint64) uint64 {
	s := NewSplitMix64(root)
	out := s.Next()
	for _, l := range labels {
		child := NewSplitMix64(out ^ (l * 0x9E3779B97F4A7C15))
		out = child.Next()
	}
	return out
}

// NewRand returns a math/rand generator on a derived stream. All
// simulation code receives *rand.Rand this way; nothing reads global
// rand state, so tests and figures never interfere with each other.
func NewRand(root uint64, labels ...uint64) *rand.Rand {
	return rand.New(NewSource64(root, labels...))
}

// NewSource64 returns the raw source behind NewRand with the same
// derivation: rand.New(NewSource64(root, labels...)) draws the stream
// NewRand(root, labels...) would. The source is a *Source, math/rand's
// stream with cheap seeding; hot samplers (the batch fault planner)
// hold it as that type so their fused per-fault draws inline.
func NewSource64(root uint64, labels ...uint64) rand.Source64 {
	return NewSource(int64(DeriveSeed(root, labels...)))
}

// Reseed restarts src, a source from NewSource64, on the stream
// NewSource64(root, labels...) starts: Seed rebuilds the generator's
// whole state, so the draws match a fresh source's exactly while the
// ~4.9 KB of state is reused.
func Reseed(src rand.Source64, root uint64, labels ...uint64) {
	src.Seed(int64(DeriveSeed(root, labels...)))
}
