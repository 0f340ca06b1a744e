package rng

import "math/rand"

// Source is math/rand's generator, reimplemented so that seeding is
// cheap and the hot draw inlines. Every production fault lane draws
// from one, and a batched pass re-seeds one per lane, so the seed cost
// is paid once per lane per pass.
//
// The generator is Mitchell and Reeds' additive lagged Fibonacci
// generator x[n] = x[n-607] + x[n-273] mod 2^64. For every int64 seed
// its Uint64 and Int63 streams are bit-identical to
// rand.NewSource(seed)'s, so rand.New(src) draws exactly what
// rand.New(rand.NewSource(seed)) draws and every golden number, trace
// and verdict pinned on math/rand's stream stays valid. The seed is
// folded as math/rand folds it: reduced mod 2^31-1, negatives shifted
// up, and 0 replaced by 89482311.
//
// Seeding fills the 607-word register from 1841 successive values of
// the Park–Miller generator x[n+1] = 48271·x[n] mod (2^31-1), each
// XORed with a fixed "cooked" constant. math/rand walks that chain one
// dependent step at a time. Here each value is computed directly as
// 48271^n·seed mod (2^31-1) from a table of powers, so the 1841
// multiplications are independent and overlap in the pipeline.
//
// The cooked constants are not copied from math/rand: they are
// recovered once, at package init, from the first 607 outputs of
// rand.NewSource(1). After 607 draws every register word holds one
// output, and each draw can be undone (the word it overwrote is the
// sum minus the tap), so stepping back 607 draws gives the register
// Seed(1) built; XORing out seed 1's Park–Miller words leaves the
// constants.
//
// A Source is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [lfLen]int64
}

const (
	lfLen = 607 // register length: the long lag
	lfTap = 273 // the short lag

	pmMultiplier = 48271
	pmModulus    = 1<<31 - 1
	// pmWarmup is how many Park–Miller steps math/rand discards before
	// the first register word.
	pmWarmup = 20
	// pmZeroSeed replaces a seed that folds to 0, the generator's fixed
	// point.
	pmZeroSeed = 89482311
)

var (
	// pmPow[i][j] is 48271^(pmWarmup+1+3i+j) mod (2^31-1): the powers
	// that take a folded seed to register word i's three Park–Miller
	// values.
	pmPow [lfLen][3]uint64
	// cooked holds the constants every seeded register word is XORed
	// with.
	cooked [lfLen]int64
)

func init() {
	x := uint64(1)
	for i := 0; i <= pmWarmup; i++ {
		x = x * pmMultiplier % pmModulus
	}
	for i := range pmPow {
		for j := range pmPow[i] {
			pmPow[i][j] = x
			x = x * pmMultiplier % pmModulus
		}
	}

	// Draw 607 values from math/rand's seed-1 stream. Each draw stores
	// its output in the word at feed, so afterwards the register holds
	// exactly these outputs, and tap and feed are back where Seed left
	// them.
	ref := rand.NewSource(1).(rand.Source64)
	var s Source
	s.tap, s.feed = 0, lfLen-lfTap
	for range lfLen {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	// Undo the draws, newest first: a draw overwrote vec[feed] with
	// vec[feed]+vec[tap] and left vec[tap] alone.
	for range lfLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%lfLen, (s.feed+1)%lfLen
	}
	// With cooked still zero, Seed(1) builds just the Park–Miller part.
	var pm Source
	pm.Seed(1)
	for i := range cooked {
		cooked[i] = s.vec[i] ^ pm.vec[i]
	}
}

// mulMod returns a·x mod (2^31-1) for a, x in [1, 2^31-2] by two
// Mersenne folds (2^31 ≡ 1), without a branch a random seed would
// mispredict. The product is below 2^62, so the first fold leaves t
// below 2^32. If t < 2^31, t is already reduced: it cannot equal the
// modulus, because the modulus is prime and divides no a·x. Otherwise
// t+1 has bit 31 set, and masking it off subtracts 2^31 in all, which
// is t - (2^31-1).
func mulMod(a, x uint64) uint64 {
	t := a * x
	t = t&pmModulus + t>>31
	return (t + t>>31) & pmModulus
}

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the generator on seed's stream, rebuilding its whole
// state, so a re-seeded Source draws exactly what a fresh one does.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	seed %= pmModulus
	if seed < 0 {
		seed += pmModulus
	}
	if seed == 0 {
		seed = pmZeroSeed
	}
	// Word i packs its three Park–Miller values at bit offsets 40, 20
	// and 0, as math/rand does (the top bits of the first fall off).
	x := uint64(seed)
	for i := range s.vec {
		p := &pmPow[i]
		s.vec[i] = int64(mulMod(p[0], x))<<40 ^ int64(mulMod(p[1], x))<<20 ^ int64(mulMod(p[2], x)) ^ cooked[i]
	}
}

// step moves tap and feed back one word, wrapping at the register's
// start.
func (s *Source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
}

// Uint64 returns the next 64-bit output.
func (s *Source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

var _ rand.Source64 = (*Source)(nil)
