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
// the draws out of the MAC inner loop entirely: each row is planned
// first (fault sites and bits materialized lane-by-lane by global mul
// index in exactly the scalar draw order), then the row runs through
// the unchecked batch MAC kernel with faults applied as additive
// corrections, falling back to the scalar saturating segment walk only
// when the magnitude bound cannot prove the corrections exact.
//
// A BatchInjector is not safe for concurrent use.
type BatchInjector struct {
	rate         float64
	table        *geomTable
	invLog1mRate float64
	lanes        []*Injector

	// per-lane row-plan arenas, reused across rows.
	sites [][]int32
	bits  [][]uint8

	// spans holds the presampled span plan of each packed position (see
	// BeginSpan); plan is the one arena every position's entries slice
	// points into, reused across spans.
	spans []laneSpan
	plan  []spanFault

	// seen stamps unit lanes per row on the live path (gen<<1 | live),
	// so a lane repeated without an announced span is caught.
	seen []uint64
	gen  uint64

	// accumulator arena for the blocked whole-row fast path.
	accs []int64

	// maxInfl is the largest inflTotal across the packed positions of
	// the last BeginSpan: one float compare per row then covers every
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
	b.configure(rate)
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
		in.invLog1mRate, in.gapTable = b.invLog1mRate, b.table
		in.stats, in.rec = Counters{}, nil
	}
	b.lanes = lanes[:len(srcs)]
	b.growLanes(len(srcs))
	b.dropSpans()
	return nil
}

// newBatchInjector wraps existing lane states; the caller sets the
// rate state.
func newBatchInjector(lanes []*Injector) *BatchInjector {
	b := &BatchInjector{lanes: lanes}
	b.growLanes(len(lanes))
	return b
}

// growLanes sizes the per-lane row-plan arenas and repeat stamps for n
// lanes, keeping existing arenas.
func (b *BatchInjector) growLanes(n int) {
	for len(b.sites) < n {
		b.sites = append(b.sites, nil)
		b.bits = append(b.bits, nil)
		b.seen = append(b.seen, 0)
	}
}

// configure sets the shared rate-dependent state (the geometric gap
// table and the cached log constant), mirroring Injector.SetRate.
func (b *BatchInjector) configure(rate float64) {
	b.rate = rate
	b.invLog1mRate, b.table = rateState(rate)
}

// Rate returns the configured per-multiplication error rate.
func (b *BatchInjector) Rate() float64 { return b.rate }

// Lane exposes lane l's scalar injector state. The lane is live — it
// shares the batch injector's tables and stream — so it supports
// everything a scalar Injector does (StartRecord, Stats, even scalar
// Mul calls interleaved with batched rows).
func (b *BatchInjector) Lane(l int) *Injector { return b.lanes[l] }

// SetRate changes the error rate on every lane, rebuilding the shared
// gap table once. As with the scalar injector, re-setting the same
// rate is a no-op (pending gaps stay valid); a new rate discards every
// lane's pending gap.
func (b *BatchInjector) SetRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("faults: error rate %v outside [0,1]", rate)
	}
	if rate == b.rate {
		return nil
	}
	b.configure(rate)
	for _, in := range b.lanes {
		in.rate = rate
		in.gap = -1
		in.invLog1mRate = b.invLog1mRate
		in.gapTable = b.table
	}
	b.dropSpans()
	return nil
}

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

// ResetStats clears every lane's counters.
func (b *BatchInjector) ResetStats() {
	for _, in := range b.lanes {
		in.stats = Counters{}
	}
}

// planRow materializes lane l's fault plan for the next n
// multiplications: the sites (relative mul index within the row) and
// bits of every fault landing in the row. The randomness is consumed
// through the same helpers in the same order as one Injector.Mul per
// product — lazy gap draw first, then one fused draw per fault — so a
// planned row is stream-identical to a scalar row, and
// recording (lane DrawLogs) captures the same log either way.
func (b *BatchInjector) planRow(l, n int) (sites []int32, bits []uint8) {
	in := b.lanes[l]
	in.stats.Muls += uint64(n)
	sites, bits = b.sites[l][:0], b.bits[l][:0]
	if in.rate <= 0 {
		return sites, bits
	}
	pos := 0
	for {
		if in.gap < 0 {
			in.gap = in.drawGap()
			if in.rec != nil {
				in.rec.Gaps = append(in.rec.Gaps, in.gap)
			}
		}
		if in.gap >= int64(n-pos) {
			in.gap -= int64(n - pos)
			break
		}
		site := pos + int(in.gap)
		bit := in.drawFault()
		sites = append(sites, int32(site))
		bits = append(bits, uint8(bit))
		pos = site + 1
		if pos >= n {
			break
		}
	}
	b.sites[l], b.bits[l] = sites, bits
	return sites, bits
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
func (b *BatchInjector) BeginSpan(lanes []int, muls int) {
	for len(b.spans) < len(lanes) {
		b.spans = append(b.spans, laneSpan{})
	}
	b.dropSpans()
	b.maxInfl = 0
	plan := b.plan[:0]
	for a := 0; a < len(lanes); {
		e := a + 1
		for e < len(lanes) && lanes[e] == lanes[a] {
			e++
		}
		// Positions keep capped slices of the arena, so later appends
		// (even a reallocating one) never disturb a split plan.
		start := len(plan)
		plan = b.planSpan(lanes[a], (e-a)*muls, plan)
		b.splitSpan(lanes[a], a, e, muls, plan[start:])
		a = e
	}
	b.plan = plan
}

// dropSpans deactivates every packed position's presampled span.
func (b *BatchInjector) dropSpans() {
	for i := range b.spans {
		b.spans[i].active = false
	}
}

// planSpan appends lane l's fault plan for the next muls
// multiplications to entries, with sites as offsets from the plan's
// start: the same draw loop as planRow run over the whole span. The
// whole span's multiplications are accounted up front (Stats observed
// mid-span report the announced span as already executed; totals at
// span boundaries match the scalar path exactly).
func (b *BatchInjector) planSpan(l, muls int, entries []spanFault) []spanFault {
	in := b.lanes[l]
	in.stats.Muls += uint64(muls)
	n := int64(muls)
	var pos, site int64
	switch {
	case in.rate <= 0 || muls <= 0:
		// nothing to draw
	case in.gapTable != nil && in.src != nil && in.rec == nil:
		// Hot loop for the tabulated regime: the fused per-fault draw
		// of drawFault hand-inlined (source read, threshold alias
		// rows), with the gap and slice headers in locals. Counters and
		// the inflation sums are reconstructed from the plan afterward
		// (splitSpan), keeping the serial draw chain to the minimum
		// per-fault work. The bit-identity suites hold this loop to
		// drawFault's exact stream consumption.
		src, t := in.src, in.gapTable
		brows := &in.dist.bits32
		gap := in.gap
		if gap < 0 {
			gap = in.drawGap()
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
	default:
		// Generic regime (log-inversion rates, rate 1, recording
		// lanes): same loop through the shared draw helpers, which
		// update the counters per draw.
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

// splitSpan hands the run of packed positions [a, e), announced
// together on unit lane l, their windows of the run's plan: position
// a+i gets the entries with sites in [i·muls, (i+1)·muls) and their
// inflation sum Σ 2^bit (two partial sums, so the float adds overlap
// instead of forming one serial latency chain). It also reconstructs
// what the per-draw path accounts as it goes — the fault and per-bit
// counters — for plans drawn by planSpan's hot loop, which defers them
// so its serial draw chain carries no stores; the generic loop already
// counted through drawFault. The condition mirrors planSpan's switch.
func (b *BatchInjector) splitSpan(l, a, e, muls int, plan []spanFault) {
	in := b.lanes[l]
	counted := !(in.gapTable != nil && in.src != nil && in.rec == nil)
	if !counted {
		in.stats.Faults += uint64(len(plan))
		for _, f := range plan {
			in.stats.PerBit[f.bit()]++
		}
	}
	c := 0
	for j := a; j < e; j++ {
		base := int64(j-a) * int64(muls)
		end := base + int64(muls)
		pEnd := spanFault(end) << 8 // f < pEnd ⟺ f.site() < end
		start := c
		var s0, s1 float64
		for ; c+1 < len(plan) && plan[c+1] < pEnd; c += 2 {
			s0 += float64(uint64(1) << plan[c].bit())
			s1 += float64(uint64(1) << plan[c+1].bit())
		}
		if c < len(plan) && plan[c] < pEnd {
			s0 += float64(uint64(1) << plan[c].bit())
			c++
		}
		infl := s0 + s1
		b.spans[j] = laneSpan{
			entries:   plan[start:c:c],
			inflTotal: infl,
			lane:      l,
			pos:       base,
			end:       end,
			active:    muls > 0,
		}
		if infl > b.maxInfl {
			b.maxInfl = infl
		}
	}
}

// DotRowBatch implements fxp.BatchUnit: plan each packed position's
// faults for the row (consuming its presampled span when one is
// active, drawing live otherwise), then run the MAC. Positions whose
// magnitude bound (Σ|w|·max|x| plus the planned bit-flip inflation
// Σ2^bit) clears fxp.NoSatBound take the unchecked fast path — the
// batch's stored nominal sum when it carries one — with faults applied
// as additive corrections afterward; other positions
// replay the plan through the scalar saturating segment walk. Both
// give bit-identical results to the scalar Injector on the same
// stream.
func (b *BatchInjector) DotRowBatch(f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	wAbs := bt.WAbs
	// With bounds known, every position's nominal sum comes from one
	// blocked walk over the row (or the batch's stored sums); a
	// position reads its own only once it has proven its bound.
	var accs []int64
	if bt.MaxAbs != nil {
		if wAbs == 0 {
			wAbs = float64(fxp.SumAbs(w))
		}
		if cap(b.accs) < len(out) {
			b.accs = make([]int64, len(out))
		}
		accs = bt.UncheckedSums(w, 0, b.accs[:len(out)])
		if b.allSpanFast(bt, wAbs, n, len(out)) {
			b.dotRowSpanFast(f, w, accs, bt, out)
			return
		}
	}
	if bt.Lanes != nil {
		b.checkRepeats(bt, len(out))
	}
	for j := range out {
		lane := bt.Lane(j)
		x := bt.Xs[j*bt.Stride : j*bt.Stride+n]
		if j < len(b.spans) && b.spans[j].active {
			// Span path: the row's plan is the next run of presampled
			// entries.
			sp := &b.spans[j]
			if sp.lane != lane || sp.pos+int64(n) > sp.end {
				// Addressing a position as another lane than announced,
				// or a row overrunning its window, breaks the
				// SpanPlanner contract — the remaining plan would be
				// misaligned against the stream — so fail loudly rather
				// than silently diverging.
				panic(fmt.Sprintf("faults: position %d (lane %d, announced lane %d) row of %d muls at offset %d overruns announced span ending at %d",
					j, lane, sp.lane, n, sp.pos, sp.end))
			}
			base := sp.pos
			end := base + int64(n)
			entries := sp.entries
			c := sp.cursor
			pEnd := spanFault(end) << 8 // e < pEnd ⟺ e.site() < end
			if bt.MaxAbs != nil && wAbs*float64(bt.MaxAbs[j])+sp.inflTotal < fxp.NoSatBound {
				// The whole window's inflation clears the bound (a
				// superset of any row's), so consume and correct in one
				// pass over this row's entries.
				acc := accs[j]
				for c < len(entries) && entries[c] < pEnd {
					site := int(entries[c].site() - base)
					p := int64(w[site]) * int64(x[site])
					acc += (p ^ int64(1)<<entries[c].bit()) - p
					c++
				}
				out[j] = f.ScaleProduct(fxp.Product(acc))
			} else {
				// Rare: re-test with this row's exact inflation before
				// falling back to the checked segment walk.
				start := c
				inflate := 0.0
				for c < len(entries) && entries[c] < pEnd {
					inflate += float64(uint64(1) << entries[c].bit())
					c++
				}
				if bt.MaxAbs != nil && wAbs*float64(bt.MaxAbs[j])+inflate < fxp.NoSatBound {
					acc := accs[j]
					for s := start; s < c; s++ {
						site := int(entries[s].site() - base)
						p := int64(w[site]) * int64(x[site])
						acc += (p ^ int64(1)<<entries[s].bit()) - p
					}
					out[j] = f.ScaleProduct(fxp.Product(acc))
				} else {
					out[j] = f.ScaleProduct(dotPlannedSpan(w, x, entries[start:c], base))
				}
			}
			sp.cursor, sp.pos = c, end
			if end == sp.end {
				sp.active = false
			}
			continue
		}
		sites, bits := b.planRow(lane, n)
		if bt.MaxAbs != nil {
			bound := wAbs * float64(bt.MaxAbs[j])
			for _, bit := range bits {
				bound += float64(uint64(1) << bit)
			}
			if bound < fxp.NoSatBound {
				acc := accs[j]
				for s, site := range sites {
					p := int64(w[site]) * int64(x[site])
					acc += (p ^ int64(1)<<bits[s]) - p
				}
				out[j] = f.ScaleProduct(fxp.Product(acc))
				continue
			}
		}
		out[j] = f.ScaleProduct(dotPlanned(w, x, sites, bits))
	}
}

// checkRepeats panics when a unit lane appears at more than one packed
// position of the row and at least one of them has no active span. A
// live row draws straight from the lane's stream, so a repeated lane
// would interleave its windows' rows and misorder the stream; only an
// announced span (BeginSpan) gives repeated positions their own
// windows.
func (b *BatchInjector) checkRepeats(bt *fxp.Batch, k int) {
	b.gen++
	for j := 0; j < k; j++ {
		lane := bt.Lanes[j]
		live := uint64(1)
		if j < len(b.spans) && b.spans[j].active {
			live = 0
		}
		if s := b.seen[lane]; s>>1 == b.gen {
			if live|s&1 != 0 {
				panic(fmt.Sprintf("faults: lane %d repeats at packed position %d without an announced span", lane, j))
			}
			continue
		}
		b.seen[lane] = b.gen<<1 | live
	}
}

// allSpanFast reports whether every packed position of the row can
// take the blocked unchecked kernel: span-active on its announced
// lane, inside its window, and with magnitude bound plus window
// inflation clearing fxp.NoSatBound. When it holds, the whole row runs
// one blocked MAC walk with the weight loads shared across positions.
func (b *BatchInjector) allSpanFast(bt *fxp.Batch, wAbs float64, n, k int) bool {
	if k > len(b.spans) {
		return false
	}
	var maxAbs int64
	for j := 0; j < k; j++ {
		sp := &b.spans[j]
		if !sp.active || sp.lane != bt.Lane(j) || sp.pos+int64(n) > sp.end {
			return false
		}
		if m := bt.MaxAbs[j]; m > maxAbs {
			maxAbs = m
		}
	}
	// One combined test covers every position: per-position |x| bounds
	// fold to their max, per-window inflation to the max from
	// BeginSpan.
	return wAbs*float64(maxAbs)+b.maxInfl < fxp.NoSatBound
}

// dotRowSpanFast is the whole-row fast path: each position's nominal
// sum from accs, then its planned faults applied as additive
// corrections. Per position this computes exactly what the
// per-position span fast path computes; allSpanFast has already
// proven the bound for every position.
func (b *BatchInjector) dotRowSpanFast(f fxp.Format, w []fxp.Value, accs []int64, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	for j := range out {
		sp := &b.spans[j]
		base := sp.pos
		end := base + int64(n)
		entries := sp.entries
		c := sp.cursor
		pEnd := spanFault(end) << 8
		acc := accs[j]
		x := bt.Xs[j*bt.Stride : j*bt.Stride+n]
		for c < len(entries) && entries[c] < pEnd {
			site := int(entries[c].site() - base)
			p := int64(w[site]) * int64(x[site])
			acc += (p ^ int64(1)<<entries[c].bit()) - p
			c++
		}
		out[j] = f.ScaleProduct(fxp.Product(acc))
		sp.cursor, sp.pos = c, end
		if end == sp.end {
			sp.active = false
		}
	}
}

// dotPlanned replays a fault plan through the checked scalar kernel:
// exact saturating segments between sites, a saturating add of the
// faulted product at each site — element for element the computation
// one Injector.Mul per product with SatAdd accumulation performs, minus
// the (already consumed) draws.
func dotPlanned(w, x []fxp.Value, sites []int32, bits []uint8) fxp.Product {
	var a fxp.Product
	prev := 0
	for s, site32 := range sites {
		site := int(site32)
		a = fxp.AccumExact(a, w[prev:site], x[prev:site])
		fp := fxp.Product(int64(w[site])*int64(x[site])) ^ fxp.Product(1)<<uint(bits[s])
		a = fxp.SatAdd(a, fp)
		prev = site + 1
	}
	return fxp.AccumExact(a, w[prev:], x[prev:len(w)])
}

// dotPlannedSpan is dotPlanned over a slice of a span plan, whose
// sites are global mul offsets: base is the row's first global index.
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
