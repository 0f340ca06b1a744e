package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// Counters accumulates fault-injection statistics. The Fig 1
// regeneration reads PerBit; the characterization tool reads Faults and
// Muls to report the effective multiply fault rate.
type Counters struct {
	Muls   uint64
	Faults uint64
	PerBit [ProductBits]uint64
}

// Rate returns the observed per-multiplication fault rate.
func (c Counters) Rate() float64 {
	if c.Muls == 0 {
		return 0
	}
	return float64(c.Faults) / float64(c.Muls)
}

// BitRates returns the observed per-bit fault rate (faults at each bit
// divided by total multiplications), the quantity Fig 1 plots.
func (c Counters) BitRates() [ProductBits]float64 {
	var out [ProductBits]float64
	if c.Muls == 0 {
		return out
	}
	for bit, n := range c.PerBit {
		out[bit] = float64(n) / float64(c.Muls)
	}
	return out
}

// Injector is the undervolted multiplier: an fxp.Unit whose products
// suffer stochastic single-bit timing-violation flips at a configured
// error rate, with locations drawn from a Distribution.
//
// Fault sites are sampled by geometric skip-ahead: instead of one
// Bernoulli(rate) draw per multiplication, the injector draws the gap
// to the *next* faulty multiplication from Geometric(rate) and runs
// exactly until that site. Because a sequence of i.i.d. Bernoulli(p)
// trials has i.i.d. Geometric(p) gaps between successes, the per-mul
// fault process is distributionally identical to the per-mul draw
// (DESIGN.md §9 gives the argument; a per-mul Bernoulli reference in
// the tests holds the two to the same observed rate and per-bit
// distribution) while the RNG cost drops from O(muls) to O(faults).
// Forward passes run the injector as an fxp.BatchUnit and
// fxp.SpanPlanner through its one-lane batch view, which presamples a
// pass's faults as a span plan and runs the exact MAC kernel between
// them, so a whole pass at the paper's operating points costs barely
// more than exact inference. Mul, the per-multiplication countdown
// over the same stream, serves the session's live-rate probe
// (core.Session.ObserveRate), the Fig 1 characterization
// (characterize.go) and the scalar reference walks of the tests.
//
// An Injector is not safe for concurrent use; give each goroutine its
// own (they are cheap, and independent streams keep runs reproducible).
type Injector struct {
	rate float64
	dist *Distribution
	rnd  *rand.Rand
	// src, when non-nil, is the source behind rnd (same state, two
	// views). The fused per-fault draw reads it directly, an inlined
	// call instead of the rand.Rand wrapper's interface dispatch, and
	// the span planner's hot loop requires it. NewInjectorSource and
	// batch-injector lanes set it when their source is an *rng.Source,
	// as every rng.NewSource64 source is; any other Source64 leaves it
	// nil and draws through rnd. Draw values are identical either way —
	// rand.Rand.Uint64 on a Source64 delegates to the source.
	src   *rng.Source
	stats Counters
	// gap is the number of fault-free multiplications remaining before
	// the next fault site. Negative means "not drawn yet": the gap is
	// drawn lazily so construction consumes no randomness, and SetRate
	// invalidates it so a pending gap never outlives the rate it was
	// drawn for.
	gap int64
	// invLog1mRate caches 1/ln(1-rate), the constant factor of the
	// geometric inversion (0 when rate is 0 or 1 and no draw happens).
	invLog1mRate float64
	// gapTable is the O(1) geometric sampler for the current rate, nil
	// when the rate is too small to tabulate (or 0/1, where no draw is
	// needed). See newGeomTable.
	gapTable *geomTable
	// rec, when non-nil, receives every gap and bit draw (see
	// StartRecord in record.go). Recording is observational only: the
	// draw order and count are identical with and without it.
	rec *DrawLog
	// view is the one-lane batch view (see batchView), built on first
	// use. Its only lane is this injector, so it holds no stream state
	// of its own.
	view *BatchInjector
}

// Geometric gap-table parameters: 512 alias rows indexed by 9 random
// bits, leaving 23 bits of acceptance fraction from a 32-bit half of
// one RNG output. Rows 0..510 are exact gaps; row 511 is the tail
// "gap ≥ 511", which adds 511 and resamples (geometric tails are
// geometric). Below gapTableMinRate the tail is hit often enough that
// the log-inversion sampler is used instead — at those rates faults
// are so rare the per-fault log cost is irrelevant anyway.
const (
	gapTableBits    = 9
	gapTableSize    = 1 << gapTableBits
	gapTableTail    = gapTableSize - 1
	gapFracBits     = 32 - gapTableBits
	gapFracMask     = 1<<gapFracBits - 1
	gapTableMinRate = 1.0 / 128
)

// geomTable is a Walker alias table over the (truncated) Geometric(p)
// gap law. Sampling costs one table row per 32 random bits — no log,
// no division, no data-dependent search. Rows hold integer acceptance
// thresholds (u accepts its own row iff the 23-bit fraction is below
// thresh), drawing the exact same outcomes as the float comparison —
// see the derivation on Distribution.buildAlias — from a single
// 8-byte row load.
type geomTable struct {
	rate float64
	rows [gapTableSize]aliasRow32
}

// gapTableCacheSize bounds the process-wide gap-table cache.
const gapTableCacheSize = 8

// gapTables caches recently built gap tables process-wide. Tables are
// immutable once built, so any number of injectors may share one; the
// cache turns the Session enter/exit cycle (rate 0 → r → 0) and the
// fresh BatchInjector of every batched pass into a lookup instead of a
// 512-row alias build. Slots are few and overwritten round-robin:
// chaos temperature drift produces arbitrary rates, and a miss costs
// only the build it would have cost without the cache.
var gapTables struct {
	slots [gapTableCacheSize]atomic.Pointer[geomTable]
	next  atomic.Uint32
}

// gapTableFor returns the gap table for rate in [gapTableMinRate, 1),
// from the cache when one was built recently.
func gapTableFor(rate float64) *geomTable {
	for i := range gapTables.slots {
		if t := gapTables.slots[i].Load(); t != nil && t.rate == rate {
			return t
		}
	}
	t := newGeomTable(rate)
	gapTables.slots[gapTables.next.Add(1)%gapTableCacheSize].Store(t)
	return t
}

// rateState derives the rate-dependent sampler state shared by
// Injector.SetRate and BatchInjector.configure: the cached log
// constant 1/ln(1-rate) and the gap table (nil when rate is 0 or 1,
// where no draw happens, or too small to tabulate).
func rateState(rate float64) (invLog1mRate float64, table *geomTable) {
	if rate > 0 && rate < 1 {
		invLog1mRate = 1 / math.Log1p(-rate)
		if rate >= gapTableMinRate {
			table = gapTableFor(rate)
		}
	}
	return invLog1mRate, table
}

// newGeomTable tabulates Geometric(rate) for rate in
// [gapTableMinRate, 1).
func newGeomTable(rate float64) *geomTable {
	w := make([]float64, gapTableSize)
	q := 1.0
	for k := 0; k < gapTableTail; k++ {
		w[k] = rate * q
		q *= 1 - rate
	}
	w[gapTableTail] = q // P(gap >= gapTableTail)
	t := &geomTable{rate: rate}
	prob, alias := aliasBuild(w)
	for i := range t.rows {
		t.rows[i] = aliasRow32{
			thresh: uint32(math.Ceil(prob[i] * (1 << gapFracBits))),
			alias:  uint16(alias[i]),
		}
	}
	return t
}

// next samples a gap from 32 pre-drawn random bits, pulling fresh
// draws only on the (rare) tail rows.
func (t *geomTable) next(u uint32, rnd *rand.Rand) int64 {
	i := u >> gapFracBits
	r := t.rows[i]
	k := int64(i)
	if u&gapFracMask >= r.thresh {
		k = int64(r.alias)
	}
	if k < gapTableTail {
		return k
	}
	return t.tail(rnd)
}

// tail finishes a draw that landed on the tail row "gap ≥ 511": the
// geometric tail is itself geometric, so add the truncation point and
// resample until a non-tail row lands.
func (t *geomTable) tail(rnd *rand.Rand) int64 {
	base := int64(gapTableTail)
	for {
		u := uint32(rnd.Uint64() >> 32)
		i := u >> gapFracBits
		r := t.rows[i]
		k := int64(i)
		if u&gapFracMask >= r.thresh {
			k = int64(r.alias)
		}
		if k < gapTableTail {
			return base + k
		}
		base += gapTableTail
	}
}

// NewInjector builds an injector with the given per-multiplication
// error rate in [0, 1], fault-location distribution (nil means the
// default Fig 1 model), and random stream.
func NewInjector(rate float64, dist *Distribution, rnd *rand.Rand) (*Injector, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faults: error rate %v outside [0,1]", rate)
	}
	if rnd == nil {
		return nil, fmt.Errorf("faults: injector needs a random stream")
	}
	if dist == nil {
		dist = Fig1Distribution()
	}
	// gap -2 marks a never-configured injector so the SetRate below
	// always initializes, even for rate 0 (the zero value of rate).
	in := &Injector{dist: dist, rnd: rnd, gap: -2}
	if err := in.SetRate(rate); err != nil {
		return nil, err
	}
	return in, nil
}

// NewInjectorSource is NewInjector on a raw random source: the
// injector draws exactly the stream NewInjector(rate, dist,
// rand.New(src)) draws. When src is an *rng.Source it also reads src
// directly for its fused per-fault draws. Production injectors are
// built this way on rng.NewSource64 sources, because the span planner
// behind the batch view takes its hot loop only on a known
// *rng.Source; any other source takes the generic path, with the same
// draws.
func NewInjectorSource(rate float64, dist *Distribution, src rand.Source64) (*Injector, error) {
	if src == nil {
		return nil, fmt.Errorf("faults: injector needs a random stream")
	}
	in, err := NewInjector(rate, dist, rand.New(src))
	if err != nil {
		return nil, err
	}
	in.src, _ = src.(*rng.Source)
	return in, nil
}

// batchView returns the injector's one-lane batch view: a
// BatchInjector whose only lane is this injector, built on first call
// and cached. Every piece of stream state — pending gap, RNG, draw
// log, counters, rate — stays in the injector, so a forward pass run
// on the view consumes the stream exactly as one Mul per product in
// pass order would (the batch bit-identity suites pin this), and
// SetRate, recording and Stats keep working on the injector itself.
// Like the injector, the view is not safe for concurrent use.
func (in *Injector) batchView() *BatchInjector {
	if in.view == nil {
		in.view = &BatchInjector{lanes: []*Injector{in}}
	}
	return in.view
}

// DotRowBatch implements fxp.BatchUnit through the one-lane view:
// every packed position is unit lane 0, this injector's stream.
func (in *Injector) DotRowBatch(f fxp.Format, w []fxp.Value, b *fxp.Batch, out []fxp.Value) {
	in.batchView().DotRowBatch(f, w, b, out)
}

// BeginSpan implements fxp.SpanPlanner through the one-lane view.
func (in *Injector) BeginSpan(lanes []int, muls int) { in.batchView().BeginSpan(lanes, muls) }

// Rate returns the configured per-multiplication error rate.
func (in *Injector) Rate() float64 { return in.rate }

// SetRate changes the error rate; the voltage regulator calls this when
// the supply voltage (and hence the fault rate) changes. Any pending
// fault gap is discarded — it was drawn from the old rate's geometric
// distribution. Re-setting the identical rate is a no-op: the pending
// gap stays valid (a geometric gap in progress is exactly the state of
// the equivalent Bernoulli stream). Gap tables come from a shared
// cache, so cycling between two rates does not rebuild them.
func (in *Injector) SetRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("faults: error rate %v outside [0,1]", rate)
	}
	if rate == in.rate && in.gap >= -1 {
		return nil
	}
	in.rate = rate
	in.gap = -1
	in.invLog1mRate, in.gapTable = rateState(rate)
	if v := in.view; v != nil {
		// A presampled span was drawn from the old rate's gap law.
		v.dropSpans()
	}
	return nil
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Counters { return in.stats }

// ResetStats clears the injection counters.
func (in *Injector) ResetStats() { in.stats = Counters{} }

// drawGap samples Geometric(rate): the number of fault-free
// multiplications before the next faulty one. With the gap table
// active this is two table lookups on 32 random bits; otherwise it
// inverts the geometric CDF: K = floor(ln(U)/ln(1-rate)) with U
// uniform on (0, 1) has P(K = k) = (1-rate)^k * rate, exactly the gap
// law of an i.i.d. Bernoulli(rate) fault sequence (the 1/ln(1-rate)
// factor is cached by SetRate).
func (in *Injector) drawGap() int64 {
	if in.rate >= 1 {
		return 0
	}
	if in.gapTable != nil {
		return in.gapTable.next(uint32(in.rnd.Uint64()>>32), in.rnd)
	}
	u := in.rnd.Float64()
	if u == 0 {
		return math.MaxInt64
	}
	k := math.Log(u) * in.invLog1mRate
	if k >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(k)
}

// drawFault performs the fused per-fault draw — bit sample, next gap,
// recording, statistics — and returns the sampled bit. With the gap
// table active, one 64-bit RNG output covers both: the low 32 bits
// pick the bit, the high 32 the gap, so this is the whole per-fault
// cost of the skip-ahead sampler. It is the single place fault
// randomness is consumed, shared by Mul and the batch planner, so both
// consume the stream identically.
func (in *Injector) drawFault() int {
	var bit int
	if in.gapTable != nil {
		var r uint64
		if in.src != nil {
			r = in.src.Uint64()
		} else {
			r = in.rnd.Uint64()
		}
		bit = in.dist.sampleBits32(uint32(r))
		in.gap = in.gapTable.next(uint32(r>>32), in.rnd)
	} else {
		bit = in.dist.Sample(in.rnd)
		in.gap = in.drawGap()
	}
	if in.rec != nil {
		in.rec.Bits = append(in.rec.Bits, uint8(bit))
		in.rec.Gaps = append(in.rec.Gaps, in.gap)
	}
	in.stats.Faults++
	in.stats.PerBit[bit]++
	return bit
}

// Mul multiplies two fixed-point values, faulting when the
// multiplication counter reaches the sampled next fault site. A fault
// is one single-bit timing violation: an XOR of a bit sampled from the
// fault-location distribution, exactly how a timing violation
// manifests (the latch captures a stale value for that output line).
func (in *Injector) Mul(a, b fxp.Value) fxp.Product {
	p := fxp.Product(int64(a) * int64(b))
	in.stats.Muls++
	if in.rate <= 0 {
		return p
	}
	if in.gap < 0 {
		in.gap = in.drawGap()
		if in.rec != nil {
			in.rec.Gaps = append(in.rec.Gaps, in.gap)
		}
	}
	if in.gap == 0 {
		return p ^ fxp.Product(1)<<uint(in.drawFault())
	}
	in.gap--
	return p
}

var _ fxp.Unit = (*Injector)(nil)
var _ fxp.BatchUnit = (*Injector)(nil)
var _ fxp.SpanPlanner = (*Injector)(nil)

// TruncatedUnit is a *deterministic* approximate multiplier that drops
// the low DropBits of each operand before multiplying — the classic
// circuit-level approximation the paper contrasts with undervolting in
// Section III rationale (i): "other circuit level approximation
// techniques ... their behavior is deterministic". It exists for the
// ablation bench showing that deterministic approximation yields no
// moving-target defense even at a comparable accuracy cost.
type TruncatedUnit struct {
	DropBits uint
}

// Mul multiplies the truncated operands.
func (t TruncatedUnit) Mul(a, b fxp.Value) fxp.Product {
	mask := ^fxp.Value(0) << t.DropBits
	return fxp.Product(int64(a&mask) * int64(b&mask))
}

// DotRowBatch implements fxp.BatchUnit: every packed lane's row is its
// truncated products accumulated with SatAdd. The unit is
// deterministic, so lanes need no identity.
func (t TruncatedUnit) DotRowBatch(f fxp.Format, w []fxp.Value, b *fxp.Batch, out []fxp.Value) {
	for j := range out {
		x := b.Xs[j*b.Stride : j*b.Stride+len(w)]
		var acc fxp.Product
		for i := range w {
			acc = fxp.SatAdd(acc, t.Mul(w[i], x[i]))
		}
		out[j] = f.ScaleProduct(acc)
	}
}

var _ fxp.BatchUnit = TruncatedUnit{}
