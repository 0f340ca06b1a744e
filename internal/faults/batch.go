package faults

import (
	"fmt"
	"math/rand"

	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// BatchInjector is the batch-lane form of the undervolted multiplier:
// an fxp.BatchUnit that drives N independent fault lanes down one
// shared weight row per call. All lanes share the Walker alias tables
// — the fault-location alias table of the Distribution and the
// geometric gap table of the current rate are built once and read by
// every lane — while each lane keeps its own geometric skip-ahead
// state (pending gap, RNG stream, draw log, counters).
//
// Lane streams are deliberately per-lane rather than one shared batch
// stream: a lane's fault positions are a pure function of its own
// stream and its own global multiplication index, so the verdict of a
// lane never depends on which other lanes happen to share its batch,
// on their order, or on lanes dropping out mid-batch (ragged tails,
// expired deadlines). That is what makes batched campaign results
// batch-size-invariant and lets the bit-identity suite compare each
// lane against a scalar Injector seeded with the same stream.
//
// Per-fault randomness is amortized the same way the scalar skip-ahead
// sampler amortizes it — O(faults), not O(muls) — but batching moves
// the draws out of the MAC inner loop entirely: each span is planned
// first (fault sites and bits materialized lane-by-lane by global mul
// index in exactly the scalar draw order; a row with no announced span
// is a span of one row), then its rows run through the unchecked batch
// MAC kernel with faults applied as additive corrections, falling back
// to the scalar saturating segment walk only when the magnitude bound
// cannot prove the corrections exact.
//
// A BatchInjector is not safe for concurrent use.
type BatchInjector struct {
	spanConsumer
	lanes []*Injector
}

// planner draws the fault plan of unit lane l for its next muls
// multiplications, appending one spanFault per fault to entries with
// sites as offsets from the plan's start. BatchInjector draws it from
// the lane's stream; Replayer reads it from a DrawLog.
type planner interface {
	planSpan(l, muls int, entries []spanFault) []spanFault
}

// spanConsumer holds the presampled span plan of every packed position
// and runs rows against it: the one place faults reach a MAC, shared
// by every undervolted unit — serving, sweeping, recording and replay.
type spanConsumer struct {
	// spans holds the presampled span plan of each packed position (see
	// beginSpan); plan is the one arena every position's entries slice
	// points into, reused across spans.
	spans []laneSpan
	plan  []spanFault

	// accumulator arena for the blocked whole-row fast path.
	accs []int64

	// ids is the identity lane list an unannounced row with nil
	// Batch.Lanes is planned on.
	ids []int

	// maxInfl is the largest inflTotal across the packed positions of
	// the last span: one float compare per row then covers every
	// position's inflation bound in allSpanFast.
	maxInfl float64
}

// laneSpan is one packed position's presampled fault plan over its
// window of an announced span, consumed row by row as the span
// advances.
type laneSpan struct {
	// entries holds one packed spanFault per presampled fault of this
	// position's window, in draw order: the mul offset within the run
	// of positions announced together on one unit lane in the high 56
	// bits, the flipped product bit in the low 8 (see packFault). One
	// word per fault keeps the presample loop's stores and the consume
	// loop's loads to a single cache line per eight faults.
	entries []spanFault
	// inflTotal is Σ 2^bit over this position's window: a conservative
	// bound on any row's bit-flip inflation, so in the common case rows
	// prove the no-saturation bound without walking their plan entries
	// first. (Float rounding of the sum is bounded by 2^-52 of the
	// magnitudes involved, absorbed by fxp.NoSatBound's 2x headroom
	// like every other bound term. A looser bound — the whole run's
	// inflation, or entries × 2^maxbit — is not enough here: one
	// high-bit fault in any window would push it past the bound and
	// knock every position off the blocked fast path.)
	inflTotal float64
	lane      int   // unit lane announced for this position
	cursor    int   // next unconsumed plan entry
	pos       int64 // run offset of the next multiplication
	end       int64 // run offset one past this position's window
	active    bool
}

// spanFault is one presampled fault packed into a word: site<<8 | bit.
// Spans are bounded far below 2^56 multiplications, and packed faults
// compare in site order directly (site is the high bits), so the
// consume loops test e < end<<8 without unpacking.
type spanFault uint64

func packFault(site int64, bit int) spanFault {
	return spanFault(site)<<8 | spanFault(bit)
}

func (e spanFault) site() int64 { return int64(e >> 8) }
func (e spanFault) bit() uint   { return uint(e & 0xff) }

// NewBatchInjector builds a batch injector with one fault lane per
// random source. Sources must be independent (give each lane its own
// seed derivation, e.g. rng.NewSource64); dist nil means the Fig 1
// model. Each lane wraps its source in a *rand.Rand for the cold draw
// paths. On an *rng.Source the fused per-fault draw reads the source
// directly, an inlined call on the hot path; any other Source64 draws
// through the wrapper on the generic path. Either way a lane's stream
// is identical to a scalar Injector built on rand.New(the same
// source). The lane states are scalar Injectors
// sharing one gap table, so Lane(i) exposes each lane for recording,
// statistics, or scalar-path interoperation.
func NewBatchInjector(rate float64, dist *Distribution, srcs []rand.Source64) (*BatchInjector, error) {
	b := &BatchInjector{}
	if err := b.Reset(rate, dist, srcs); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset re-arms the injector for a fresh pass: afterwards it draws
// exactly what NewBatchInjector(rate, dist, srcs) would, but it keeps
// what it already holds. A lane that already wraps srcs[l], an
// *rng.Source, keeps its Injector (the caller re-seeded the source in
// place; a lane on any other source is rebuilt), plan arenas
// keep their capacity, and lanes are built only when srcs is wider
// than any earlier pass. Every lane's pending gap goes back to -1, its
// counters are cleared and its recording stopped, and every presampled
// span is dropped. On error the injector is unchanged.
func (b *BatchInjector) Reset(rate float64, dist *Distribution, srcs []rand.Source64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("faults: error rate %v outside [0,1]", rate)
	}
	if len(srcs) == 0 {
		return fmt.Errorf("faults: batch injector needs at least one lane source")
	}
	for l, src := range srcs {
		if src == nil {
			return fmt.Errorf("faults: lane %d has no random source", l)
		}
	}
	if dist == nil {
		dist = Fig1Distribution()
	}
	inv, table := rateState(rate)
	lanes := b.lanes[:cap(b.lanes)]
	for l, src := range srcs {
		if l == len(lanes) {
			lanes = append(lanes, nil)
		}
		in := lanes[l]
		fast, _ := src.(*rng.Source)
		if in == nil || fast == nil || in.src != fast {
			in = &Injector{rnd: rand.New(src), src: fast}
			lanes[l] = in
		}
		in.rate, in.dist, in.gap = rate, dist, -1
		in.invLog1mRate, in.gapTable = inv, table
		in.stats, in.rec = Counters{}, nil
	}
	b.lanes = lanes[:len(srcs)]
	b.dropSpans()
	return nil
}

// Lane exposes lane l's scalar injector state. The lane is live — it
// shares the batch injector's tables and stream — so it supports
// everything a scalar Injector does (StartRecord, Stats, even scalar
// Mul calls interleaved with batched rows).
func (b *BatchInjector) Lane(l int) *Injector { return b.lanes[l] }

// Stats returns the injection counters aggregated across lanes.
func (b *BatchInjector) Stats() Counters {
	var c Counters
	for _, in := range b.lanes {
		c.Muls += in.stats.Muls
		c.Faults += in.stats.Faults
		for bit, n := range in.stats.PerBit {
			c.PerBit[bit] += n
		}
	}
	return c
}

// BeginSpan implements fxp.SpanPlanner: presample every announced
// position's fault plan for the next muls multiplications. Positions
// that repeat a unit lane take consecutive windows of that lane's
// stream in packed order, so a run of positions on one lane — one
// program's windows — is drawn as one plan of count × muls
// multiplications, in exactly the order a scalar walk over those
// windows draws it, and each position then consumes its own window's
// slice. Interleaving per-row draws across many lanes is what makes
// batched planning expensive — each lane's RNG state (math/rand keeps
// ~4.8KB per stream) falls out of L1 between its rows — so the whole
// run is drawn while the state is hot, and DotRowBatch then consumes
// the plan without touching the streams. Draw order and values per
// lane are exactly the scalar order, just earlier in time, so
// recording and bit-identity are unaffected.
func (b *BatchInjector) BeginSpan(lanes []int, muls int) { b.beginSpan(b, lanes, muls) }

// DotRowBatch implements fxp.BatchUnit by running the row against the
// announced span plan (see spanConsumer.dotRowBatch); a row with no
// announced span is planned as a one-row span on its lanes first.
func (b *BatchInjector) DotRowBatch(f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	b.dotRowBatch(b, f, w, bt, out)
}

// planSpan appends lane l's fault plan for the next muls
// multiplications to entries, with sites as offsets from the plan's
// start. The whole span's multiplications are accounted up front
// (Stats observed mid-span report the announced span as already
// executed; totals at span boundaries match the scalar path exactly).
func (b *BatchInjector) planSpan(l, muls int, entries []spanFault) []spanFault {
	in := b.lanes[l]
	in.stats.Muls += uint64(muls)
	n := int64(muls)
	var pos, site int64
	switch {
	case in.rate <= 0 || muls <= 0:
		// nothing to draw
	case in.gapTable != nil && in.src != nil:
		// Hot loop for the tabulated regime: the fused per-fault draw
		// of drawFault hand-inlined (source read, threshold alias
		// rows), with the gap and slice headers in locals. Counters and
		// the draw log are rebuilt from the plan afterward, keeping the
		// serial draw chain to the minimum per-fault work. The
		// bit-identity suites hold this loop to drawFault's exact
		// stream consumption.
		src, t := in.src, in.gapTable
		brows := &in.dist.bits32
		start := len(entries)
		gap := in.gap
		if gap < 0 {
			gap = in.drawGap()
			if in.rec != nil {
				in.rec.Gaps = append(in.rec.Gaps, gap)
			}
		}
		for {
			if gap >= n-pos {
				gap -= n - pos
				break
			}
			site = pos + gap
			r := src.Uint64()
			ub := uint32(r)
			bit := int(ub >> bitFracBits)
			if row := brows[bit]; ub&bitFracMask >= row.thresh {
				bit = int(row.alias)
			}
			ug := uint32(r >> 32)
			gi := ug >> gapFracBits
			row := t.rows[gi]
			gap = int64(gi)
			if ug&gapFracMask >= row.thresh {
				gap = int64(row.alias)
			}
			if gap >= gapTableTail {
				gap = t.tail(in.rnd)
			}
			entries = append(entries, packFault(site, bit))
			pos = site + 1
			if pos >= n {
				break
			}
		}
		in.gap = gap
		plan := entries[start:]
		in.stats.Faults += uint64(len(plan))
		for _, f := range plan {
			in.stats.PerBit[f.bit()]++
		}
		if in.rec != nil {
			in.recordPlan(plan, n)
		}
	default:
		// Generic regime (log-inversion rates, rate 1, sources other
		// than *rng.Source): same loop through the shared draw helpers,
		// which count and record per draw.
		for {
			if in.gap < 0 {
				in.gap = in.drawGap()
				if in.rec != nil {
					in.rec.Gaps = append(in.rec.Gaps, in.gap)
				}
			}
			if in.gap >= n-pos {
				in.gap -= n - pos
				break
			}
			site = pos + in.gap
			bit := in.drawFault()
			entries = append(entries, packFault(site, bit))
			pos = site + 1
			if pos >= n {
				break
			}
		}
	}
	return entries
}

// beginSpan presamples, through pl, every announced position's fault
// plan for the next muls multiplications: each run of positions on one
// unit lane is planned as one span of count × muls multiplications and
// split into the positions' windows.
func (c *spanConsumer) beginSpan(pl planner, lanes []int, muls int) {
	for len(c.spans) < len(lanes) {
		c.spans = append(c.spans, laneSpan{})
	}
	c.dropSpans()
	c.maxInfl = 0
	plan := c.plan[:0]
	for a := 0; a < len(lanes); {
		e := a + 1
		for e < len(lanes) && lanes[e] == lanes[a] {
			e++
		}
		// Positions keep capped slices of the arena, so later appends
		// (even a reallocating one) never disturb a split plan.
		start := len(plan)
		plan = pl.planSpan(lanes[a], (e-a)*muls, plan)
		c.splitSpan(lanes[a], a, e, muls, plan[start:])
		a = e
	}
	c.plan = plan
}

// dropSpans deactivates every packed position's presampled span.
func (c *spanConsumer) dropSpans() {
	for i := range c.spans {
		c.spans[i].active = false
	}
}

// splitSpan hands the run of packed positions [a, e), announced
// together on unit lane l, their windows of the run's plan: position
// a+i gets the entries with sites in [i·muls, (i+1)·muls) and their
// inflation sum Σ 2^bit (two partial sums, so the float adds overlap
// instead of forming one serial latency chain).
func (c *spanConsumer) splitSpan(l, a, e, muls int, plan []spanFault) {
	k := 0
	for j := a; j < e; j++ {
		base := int64(j-a) * int64(muls)
		end := base + int64(muls)
		pEnd := spanFault(end) << 8 // f < pEnd ⟺ f.site() < end
		start := k
		var s0, s1 float64
		for ; k+1 < len(plan) && plan[k+1] < pEnd; k += 2 {
			s0 += float64(uint64(1) << plan[k].bit())
			s1 += float64(uint64(1) << plan[k+1].bit())
		}
		if k < len(plan) && plan[k] < pEnd {
			s0 += float64(uint64(1) << plan[k].bit())
			k++
		}
		infl := s0 + s1
		c.spans[j] = laneSpan{
			entries:   plan[start:k:k],
			inflTotal: infl,
			lane:      l,
			pos:       base,
			end:       end,
			active:    muls > 0,
		}
		if infl > c.maxInfl {
			c.maxInfl = infl
		}
	}
}

// dotRowBatch runs one row of every packed position against its span
// plan, with pl planning the row as a one-row span on the row's lanes
// when no span is announced. Positions whose magnitude bound
// (Σ|w|·max|x| plus the planned bit-flip inflation Σ2^bit) clears
// fxp.NoSatBound take the unchecked fast path — the batch's stored
// nominal sum when it carries one — with faults applied as additive
// corrections afterward; other positions replay the plan through the
// scalar saturating segment walk. Both give bit-identical results to
// one Injector.Mul per product on the same stream.
func (c *spanConsumer) dotRowBatch(pl planner, f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	if len(out) > 0 && (len(c.spans) == 0 || !c.spans[0].active) {
		c.beginRow(pl, bt, n, len(out))
	}
	wAbs := bt.WAbs
	// With bounds known, every position's nominal sum comes from one
	// blocked walk over the row (or the batch's stored sums); a
	// position reads its own only once it has proven its bound.
	var accs []int64
	if bt.MaxAbs != nil {
		if wAbs == 0 {
			wAbs = float64(fxp.SumAbs(w))
		}
		if cap(c.accs) < len(out) {
			c.accs = make([]int64, len(out))
		}
		accs = bt.UncheckedSums(w, 0, c.accs[:len(out)])
		if c.allSpanFast(bt, wAbs, n, len(out)) {
			c.dotRowSpanFast(f, w, accs, bt, out)
			return
		}
	}
	for j := range out {
		lane := bt.Lane(j)
		x := bt.Xs[j*bt.Stride : j*bt.Stride+n]
		if j >= len(c.spans) || !c.spans[j].active {
			panic(fmt.Sprintf("faults: lane %d at packed position %d without an announced span in a span-active row", lane, j))
		}
		// The row's plan is the next run of presampled entries.
		sp := &c.spans[j]
		if sp.lane != lane || sp.pos+int64(n) > sp.end {
			// Addressing a position as another lane than announced, or
			// a row overrunning its window, breaks the SpanPlanner
			// contract — the remaining plan would be misaligned against
			// the stream — so fail loudly rather than silently
			// diverging.
			panic(fmt.Sprintf("faults: position %d (lane %d, announced lane %d) row of %d muls at offset %d overruns announced span ending at %d",
				j, lane, sp.lane, n, sp.pos, sp.end))
		}
		base := sp.pos
		end := base + int64(n)
		entries := sp.entries
		k := sp.cursor
		pEnd := spanFault(end) << 8 // e < pEnd ⟺ e.site() < end
		if bt.MaxAbs != nil && wAbs*float64(bt.MaxAbs[j])+sp.inflTotal < fxp.NoSatBound {
			// The whole window's inflation clears the bound (a superset
			// of any row's), so consume and correct in one pass over
			// this row's entries.
			acc := accs[j]
			for k < len(entries) && entries[k] < pEnd {
				site := int(entries[k].site() - base)
				p := int64(w[site]) * int64(x[site])
				acc += (p ^ int64(1)<<entries[k].bit()) - p
				k++
			}
			out[j] = f.ScaleProduct(fxp.Product(acc))
		} else {
			// Rare: re-test with this row's exact inflation before
			// falling back to the checked segment walk.
			start := k
			inflate := 0.0
			for k < len(entries) && entries[k] < pEnd {
				inflate += float64(uint64(1) << entries[k].bit())
				k++
			}
			if bt.MaxAbs != nil && wAbs*float64(bt.MaxAbs[j])+inflate < fxp.NoSatBound {
				acc := accs[j]
				for s := start; s < k; s++ {
					site := int(entries[s].site() - base)
					p := int64(w[site]) * int64(x[site])
					acc += (p ^ int64(1)<<entries[s].bit()) - p
				}
				out[j] = f.ScaleProduct(fxp.Product(acc))
			} else {
				out[j] = f.ScaleProduct(dotPlannedSpan(w, x, entries[start:k], base))
			}
		}
		sp.cursor, sp.pos = k, end
		if end == sp.end {
			sp.active = false
		}
	}
}

// beginRow plans a row that arrives with no announced span as a one-row
// span on its lanes. Such a row has one window per lane, so a lane may
// not repeat in it, and no position of it may still hold a span.
func (c *spanConsumer) beginRow(pl planner, bt *fxp.Batch, n, k int) {
	lanes := bt.Lanes
	if lanes == nil {
		for len(c.ids) < k {
			c.ids = append(c.ids, len(c.ids))
		}
		lanes = c.ids
	}
	lanes = lanes[:k]
	for j := 1; j < k; j++ {
		if j < len(c.spans) && c.spans[j].active {
			panic(fmt.Sprintf("faults: packed position 0 runs without an announced span but position %d holds one", j))
		}
		for i := 0; i < j; i++ {
			if lanes[i] == lanes[j] {
				panic(fmt.Sprintf("faults: lane %d repeats at packed position %d without an announced span", lanes[j], j))
			}
		}
	}
	c.beginSpan(pl, lanes, n)
}

// allSpanFast reports whether every packed position of the row can
// take the blocked unchecked kernel: span-active on its announced
// lane, inside its window, and with magnitude bound plus window
// inflation clearing fxp.NoSatBound. When it holds, the whole row runs
// one blocked MAC walk with the weight loads shared across positions.
func (c *spanConsumer) allSpanFast(bt *fxp.Batch, wAbs float64, n, k int) bool {
	if k > len(c.spans) {
		return false
	}
	var maxAbs int64
	for j := 0; j < k; j++ {
		sp := &c.spans[j]
		if !sp.active || sp.lane != bt.Lane(j) || sp.pos+int64(n) > sp.end {
			return false
		}
		if m := bt.MaxAbs[j]; m > maxAbs {
			maxAbs = m
		}
	}
	// One combined test covers every position: per-position |x| bounds
	// fold to their max, per-window inflation to the max from
	// beginSpan.
	return wAbs*float64(maxAbs)+c.maxInfl < fxp.NoSatBound
}

// dotRowSpanFast is the whole-row fast path: each position's nominal
// sum from accs, then its planned faults applied as additive
// corrections. Per position this computes exactly what the
// per-position span fast path computes; allSpanFast has already
// proven the bound for every position.
func (c *spanConsumer) dotRowSpanFast(f fxp.Format, w []fxp.Value, accs []int64, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	for j := range out {
		sp := &c.spans[j]
		base := sp.pos
		end := base + int64(n)
		entries := sp.entries
		k := sp.cursor
		pEnd := spanFault(end) << 8
		acc := accs[j]
		x := bt.Xs[j*bt.Stride : j*bt.Stride+n]
		for k < len(entries) && entries[k] < pEnd {
			site := int(entries[k].site() - base)
			p := int64(w[site]) * int64(x[site])
			acc += (p ^ int64(1)<<entries[k].bit()) - p
			k++
		}
		out[j] = f.ScaleProduct(fxp.Product(acc))
		sp.cursor, sp.pos = k, end
		if end == sp.end {
			sp.active = false
		}
	}
}

// dotPlannedSpan replays a row's slice of a span plan through the checked
// scalar kernel: exact saturating segments between sites, a saturating
// add of the faulted product at each site — element for element the
// computation one Injector.Mul per product with SatAdd accumulation
// performs, minus the (already consumed) draws. Sites are global span
// offsets; base is the row's first.
func dotPlannedSpan(w, x []fxp.Value, entries []spanFault, base int64) fxp.Product {
	var a fxp.Product
	prev := 0
	for _, e := range entries {
		site := int(e.site() - base)
		a = fxp.AccumExact(a, w[prev:site], x[prev:site])
		fp := fxp.Product(int64(w[site])*int64(x[site])) ^ fxp.Product(1)<<e.bit()
		a = fxp.SatAdd(a, fp)
		prev = site + 1
	}
	return fxp.AccumExact(a, w[prev:], x[prev:len(w)])
}

var _ fxp.BatchUnit = (*BatchInjector)(nil)
var _ fxp.SpanPlanner = (*BatchInjector)(nil)
