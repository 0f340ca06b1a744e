package faults

import (
	"fmt"
	"math/rand"

	"shmd/internal/fxp"
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

	// per-lane presampled span plans (see BeginSpan).
	spans []laneSpan

	// accumulator arena for the blocked whole-row fast path.
	accs []int64

	// maxInfl is the largest inflTotal across the lanes announced by the
	// last BeginSpan: one float compare per row then covers every lane's
	// inflation bound in allSpanFast.
	maxInfl float64
}

// laneSpan is one lane's presampled fault plan over an announced span
// of multiplications, consumed row by row as the span advances.
type laneSpan struct {
	// entries holds one packed spanFault per presampled fault, in draw
	// order: global mul offset within the span in the high 56 bits, the
	// flipped product bit in the low 8 (see packFault). One word per
	// fault keeps the presample loop's stores and the consume loop's
	// loads to a single cache line per eight faults.
	entries []spanFault
	// inflTotal is Σ 2^bit over the whole span: a conservative bound on
	// any row's bit-flip inflation, so in the common case rows prove the
	// no-saturation bound without walking their plan entries first.
	// (Float rounding of the sum is bounded by 2^-52 of the magnitudes
	// involved, absorbed by fxp.NoSatBound's 2x headroom like every
	// other bound term. A looser bound like entries × 2^maxbit is not
	// enough here: one high-bit fault anywhere in the batch would push
	// it past the bound and knock every lane off the blocked fast path.)
	inflTotal float64
	cursor    int   // next unconsumed plan entry
	pos       int64 // multiplications of the span already consumed
	muls      int64 // announced span length
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
// paths while the fused per-fault draw reads the source directly, so a
// lane's stream is identical to a scalar Injector built on
// rand.New(the same source). The lane states are scalar Injectors
// sharing one gap table, so Lane(i) exposes each lane for recording,
// statistics, or scalar-path interoperation.
func NewBatchInjector(rate float64, dist *Distribution, srcs []rand.Source64) (*BatchInjector, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faults: error rate %v outside [0,1]", rate)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("faults: batch injector needs at least one lane source")
	}
	if dist == nil {
		dist = Fig1Distribution()
	}
	b := newBatchInjector(make([]*Injector, len(srcs)))
	b.configure(rate)
	for l, src := range srcs {
		if src == nil {
			return nil, fmt.Errorf("faults: lane %d has no random source", l)
		}
		b.lanes[l] = &Injector{
			rate:         rate,
			dist:         dist,
			rnd:          rand.New(src),
			src:          src,
			gap:          -1,
			invLog1mRate: b.invLog1mRate,
			gapTable:     b.table,
		}
	}
	return b, nil
}

// newBatchInjector allocates the per-lane plan arenas around lanes;
// the caller sets the rate state.
func newBatchInjector(lanes []*Injector) *BatchInjector {
	return &BatchInjector{
		lanes: lanes,
		sites: make([][]int32, len(lanes)),
		bits:  make([][]uint8, len(lanes)),
		spans: make([]laneSpan, len(lanes)),
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

// NumLanes returns the number of fault lanes.
func (b *BatchInjector) NumLanes() int { return len(b.lanes) }

// Lane exposes lane l's scalar injector state. The lane is live — it
// shares the batch injector's tables and stream — so it supports
// everything a scalar Injector does (StartRecord, Stats, even scalar
// Mul/DotRow calls interleaved with batched rows).
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
	for l, in := range b.lanes {
		in.rate = rate
		in.gap = -1
		in.invLog1mRate = b.invLog1mRate
		in.gapTable = b.table
		// Any presampled span was drawn from the old rate's gap law.
		b.spans[l].active = false
	}
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
// through the same helpers in the same order as the scalar
// Injector.DotRow walk — lazy gap draw first, then one fused draw per
// fault — so a planned row is stream-identical to a scalar row, and
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
// lane's fault plan for the next muls multiplications in one tight
// loop per lane. Interleaving per-row draws across many lanes is what
// makes batched planning expensive — each lane's RNG state (math/rand
// keeps ~4.8KB per stream) falls out of L1 between its rows — so the
// whole span is drawn while the state is hot, and DotRowBatch then
// consumes the plan without touching the streams. Draw order and
// values per lane are exactly the scalar order, just earlier in time,
// so recording and bit-identity are unaffected.
func (b *BatchInjector) BeginSpan(lanes []int, muls int) {
	b.maxInfl = 0
	for _, l := range lanes {
		b.planSpan(l, muls)
		if infl := b.spans[l].inflTotal; infl > b.maxInfl {
			b.maxInfl = infl
		}
	}
}

// planSpan fills lane l's span plan: the same draw loop as planRow
// run over the whole span, with sites kept as global mul offsets. The
// whole span's multiplications are accounted up front (Stats observed
// mid-span report the announced span as already executed; totals at
// span boundaries match the scalar path exactly).
func (b *BatchInjector) planSpan(l, muls int) {
	sp := &b.spans[l]
	in := b.lanes[l]
	entries := sp.entries[:0]
	sp.cursor, sp.pos, sp.muls = 0, 0, int64(muls)
	sp.active = muls > 0
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
		// the inflation sum are reconstructed from the plan afterward,
		// keeping the serial draw chain to the minimum per-fault work.
		// The bit-identity suites hold this loop to drawFault's exact
		// stream consumption.
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
	sp.entries, sp.inflTotal = entries, b.accountSpan(in, entries)
}

// accountSpan reconstructs from a packed plan what the per-draw path
// accounts as it goes — the per-bit fault counters and the span's
// inflation sum Σ 2^bit (two partial sums, so the float adds overlap
// instead of forming one serial latency chain). The hot planSpan loop
// defers the counters so its serial draw chain carries no stores; the
// generic loop already counted through drawFault, so for it only the
// inflation sum runs here. The dispatch condition mirrors planSpan's
// switch exactly.
func (b *BatchInjector) accountSpan(in *Injector, entries []spanFault) float64 {
	counted := !(in.gapTable != nil && in.src != nil && in.rec == nil)
	var s0, s1 float64
	i := 0
	if counted {
		for ; i+2 <= len(entries); i += 2 {
			s0 += float64(uint64(1) << entries[i].bit())
			s1 += float64(uint64(1) << entries[i+1].bit())
		}
	} else {
		for ; i+2 <= len(entries); i += 2 {
			b0, b1 := entries[i].bit(), entries[i+1].bit()
			in.stats.PerBit[b0]++
			in.stats.PerBit[b1]++
			s0 += float64(uint64(1) << b0)
			s1 += float64(uint64(1) << b1)
		}
		in.stats.Faults += uint64(len(entries))
	}
	if i < len(entries) {
		b0 := entries[i].bit()
		if !counted {
			in.stats.PerBit[b0]++
		}
		s0 += float64(uint64(1) << b0)
	}
	return s0 + s1
}

// DotRowBatch implements fxp.BatchUnit: plan each lane's faults for
// the row (consuming a presampled span when one is active, drawing
// live otherwise), then run the MAC. Lanes whose magnitude bound
// (Σ|w|·max|x| plus the planned bit-flip inflation Σ2^bit) clears
// fxp.NoSatBound take the unchecked fast path with faults applied as
// additive corrections afterward; other lanes replay the plan through
// the scalar saturating segment walk. Both give bit-identical results
// to the scalar Injector on the same stream.
func (b *BatchInjector) DotRowBatch(f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	wAbs := bt.WAbs
	if wAbs == 0 && bt.MaxAbs != nil {
		wAbs = float64(fxp.SumAbs(w))
	}
	if bt.MaxAbs != nil && b.allSpanFast(bt, wAbs, n, len(out)) {
		b.dotRowSpanFast(f, w, bt, out)
		return
	}
	for j := range out {
		lane := bt.Lane(j)
		x := bt.Xs[j*bt.Stride : j*bt.Stride+n]
		if sp := &b.spans[lane]; sp.active {
			// Span path: the row's plan is the next run of presampled
			// entries.
			if sp.pos+int64(n) > sp.muls {
				// A row overrunning the announced span breaks the
				// SpanPlanner contract — the remaining plan would be
				// misaligned against the stream — so fail loudly rather
				// than silently diverging.
				panic(fmt.Sprintf("faults: lane %d row of %d muls overruns announced span (%d of %d consumed)",
					lane, n, sp.pos, sp.muls))
			}
			base := sp.pos
			end := base + int64(n)
			entries := sp.entries
			c := sp.cursor
			pEnd := spanFault(end) << 8 // e < pEnd ⟺ e.site() < end
			if bt.MaxAbs != nil && wAbs*float64(bt.MaxAbs[j])+sp.inflTotal < fxp.NoSatBound {
				// The whole span's inflation clears the bound (a
				// superset of any row's), so consume and correct in one
				// pass over this row's entries.
				acc := fxp.DotUnchecked(w, x)
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
					acc := fxp.DotUnchecked(w, x)
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
			if end == sp.muls {
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
				acc := fxp.DotUnchecked(w, x)
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

// allSpanFast reports whether every packed lane of the row can take
// the blocked unchecked kernel: span-active, inside the announced
// span, and with magnitude bound plus whole-span inflation clearing
// fxp.NoSatBound. When it holds, the whole row runs one blocked MAC
// walk with the weight loads shared across lanes.
func (b *BatchInjector) allSpanFast(bt *fxp.Batch, wAbs float64, n, k int) bool {
	var maxAbs int64
	for j := 0; j < k; j++ {
		sp := &b.spans[bt.Lane(j)]
		if !sp.active || sp.pos+int64(n) > sp.muls {
			return false
		}
		if m := bt.MaxAbs[j]; m > maxAbs {
			maxAbs = m
		}
	}
	// One combined test covers every lane: per-lane |x| bounds fold to
	// their max, per-lane inflation to the span-wide max from BeginSpan.
	return wAbs*float64(maxAbs)+b.maxInfl < fxp.NoSatBound
}

// dotRowSpanFast is the whole-row fast path: one blocked unchecked MAC
// over all lanes, then each lane's planned faults applied as additive
// corrections. Per lane this computes exactly what the per-lane span
// fast path computes; allSpanFast has already proven the bound for
// every lane.
func (b *BatchInjector) dotRowSpanFast(f fxp.Format, w []fxp.Value, bt *fxp.Batch, out []fxp.Value) {
	n := len(w)
	k := len(out)
	if cap(b.accs) < k {
		b.accs = make([]int64, k)
	}
	accs := b.accs[:k]
	fxp.DotUncheckedBatch(w, bt.Xs, bt.Stride, accs)
	for j := 0; j < k; j++ {
		sp := &b.spans[bt.Lane(j)]
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
		if end == sp.muls {
			sp.active = false
		}
	}
}

// dotPlanned replays a fault plan through the checked scalar kernel:
// exact saturating segments between sites, a saturating add of the
// faulted product at each site — element for element the computation
// Injector.DotRow performs, minus the (already consumed) draws.
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
