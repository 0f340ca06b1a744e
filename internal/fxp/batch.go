package fxp

import (
	"fmt"
	"math/bits"
)

// This file holds the batch-lane kernels: the fixed-point MAC of one
// weight row (one Mul per product in index order, SatAdd accumulation,
// ScaleProduct at the end), restructured so one walk over the row
// drives N independent activation lanes. The layout is structure-of-arrays
// and lane-major — lane j's activations live at
// Xs[j*Stride : j*Stride+len(w)] — so each lane streams contiguously
// while the weight row stays resident in L1 across lanes, and the
// per-row bounds checks, loop control, and weight loads are paid once
// per row instead of once per lane.
//
// Every batch kernel is bit-identical per lane to that scalar MAC
// (AccumExact is its exact form): the checked kernels run the identical saturating
// add sequence, and the unchecked fast path is only taken when a
// conservative magnitude bound proves no intermediate sum can leave
// the int64 range in any association order — in which case plain adds,
// reassociated adds, and saturating adds all compute the same value.

// Batch describes one packed batch of activation lanes for a batched
// MAC row. Packing is dense: packed position j holds an active lane;
// Lanes maps packed positions back to a unit's stable lane identities
// so lanes can drop out (ragged tails, expired deadlines) without
// disturbing the surviving lanes' state or streams.
type Batch struct {
	// Xs is the lane-major activation arena: packed lane j's inputs are
	// Xs[j*Stride : j*Stride+rowLen].
	Xs []Value
	// Stride is the lane pitch in Xs (>= the row length).
	Stride int
	// Lanes maps packed position j to the unit's lane identity. A nil
	// Lanes means the identity mapping (packed j is unit lane j).
	Lanes []int
	// MaxAbs, when non-nil, gives for each packed lane an upper bound
	// on |x| over that lane's activations. Units use it to prove the
	// no-saturation bound that unlocks the unchecked fast path; nil
	// means unknown, forcing the checked kernels.
	MaxAbs []int64
	// WAbs, when nonzero, is Σ|w| of the current weight row (the caller
	// typically precomputes it once per model). Zero means unknown; the
	// unit computes it on the fly if it wants the fast path.
	WAbs float64
	// Sums, when non-nil, holds each packed lane's unchecked MAC of the
	// current row, DotUnchecked(w, lane j's activations), computed
	// ahead of time. A unit that has proven a lane's no-saturation
	// bound reads Sums[j] instead of recomputing it (see UncheckedSums);
	// the checked kernels ignore it. Outside the bound a stored sum may
	// have wrapped, so it must never be read there.
	Sums []int64
}

// UncheckedSums returns the unchecked MACs of w over packed lanes
// [lo, lo+len(accs)): the stored sums when the batch carries them, one
// blocked DotUncheckedBatch walk into accs otherwise. A sum may be
// used only for a lane whose no-saturation bound the caller has
// proven; the returned slice may alias b.Sums and must not be written.
func (b *Batch) UncheckedSums(w []Value, lo int, accs []int64) []int64 {
	if b.Sums != nil {
		return b.Sums[lo : lo+len(accs)]
	}
	DotUncheckedBatch(w, b.Xs[lo*b.Stride:], b.Stride, accs)
	return accs
}

// Lane returns the unit lane identity of packed position j.
func (b *Batch) Lane(j int) int {
	if b.Lanes == nil {
		return j
	}
	return b.Lanes[j]
}

// BatchUnit is a multiply unit that can drive a whole batch of lanes
// down one weight row per call. Implementations must produce, for each
// packed lane, exactly the Value the scalar MAC would produce for that
// lane's multiplication sequence — one Mul per product in index order,
// SatAdd accumulation, ScaleProduct — so batching is a layout change,
// never a semantics change.
type BatchUnit interface {
	// DotRowBatch computes out[j], the MAC of w against lane j's
	// activations, for every packed lane j in [0, len(out)), with
	// per-lane state (fault streams, draw logs) addressed through
	// b.Lane(j).
	DotRowBatch(f Format, w []Value, b *Batch, out []Value)
}

// SpanPlanner is an optional BatchUnit extension: a unit that can
// presample all per-lane randomness for a span of multiplications in
// one pass per lane. Batched callers that know their total
// multiplication count up front (a forward pass is a fixed mul
// sequence) announce it so the unit can draw each lane's faults in one
// tight cache-hot loop instead of interleaving tiny per-row draws
// across many lanes — draw order and values per lane are unchanged.
//
// The contract is exact consumption: planning a lane draws from its
// stream, so after BeginSpan(lanes, muls) the subsequent DotRowBatch
// calls must address packed position j as unit lane lanes[j] (through
// Batch.Lanes, or nil Lanes for the identity list) and walk exactly
// muls multiplications on every announced position — and only those
// — before the next BeginSpan or any scalar use of a lane's stream.
//
// A unit lane may repeat. Positions that share a lane take consecutive
// windows of its stream in packed order: the first such position the
// next muls multiplications, the second the muls after those, and so
// on. That is how one program's windows run as lanes of one pass on
// the program's one stream, drawing exactly what a window-by-window
// walk draws. A row that arrives with no announced span is one window
// on each of its lanes (a one-row span), so a lane repeated in it has
// no windows to hand out: units must refuse it (panic) rather than
// interleave the windows' rows on one stream, and likewise refuse a row
// that mixes announced and unannounced positions.
type SpanPlanner interface {
	BeginSpan(lanes []int, muls int)
}

// NoSatBound is the magnitude budget under which the unchecked kernels
// are provably exact: if the sum of absolute contributions to a row's
// accumulator stays below 2^62, no partial sum in any association
// order can overflow int64 (the bound is evaluated in float64, whose
// rounding error at these magnitudes is dwarfed by the 2x headroom to
// 2^63). Fault units add their sampled bit-flip inflation (Σ 2^bit)
// to the weight-activation bound before comparing.
const NoSatBound = float64(1 << 62)

const noSatBound = NoSatBound

// SumAbs returns Σ|w| as an int64. With len(w) bounded by network
// fan-in (thousands) and |w| < 2^31 the sum cannot overflow.
func SumAbs(w []Value) int64 {
	var s int64
	for _, v := range w {
		x := int64(v)
		if x < 0 {
			x = -x
		}
		s += x
	}
	return s
}

// DotUnchecked is the fast-path row kernel: a 4-way unrolled plain MAC
// with independent partial accumulators, so the multiply latency is
// off the critical path and the loop runs at multiplier throughput.
// It is exact (bit-identical to AccumExact(0, w, x)) precisely when no
// partial sum in any order can overflow — the caller must establish
// that via the noSatBound test before choosing this kernel.
func DotUnchecked(w, x []Value) int64 {
	x = x[:len(w)] // one bounds check for the whole row
	var a0, a1, a2, a3 int64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		a0 += int64(w[i]) * int64(x[i])
		a1 += int64(w[i+1]) * int64(x[i+1])
		a2 += int64(w[i+2]) * int64(x[i+2])
		a3 += int64(w[i+3]) * int64(x[i+3])
	}
	for ; i < len(w); i++ {
		a0 += int64(w[i]) * int64(x[i])
	}
	return a0 + a1 + a2 + a3
}

// DotUncheckedBatch runs the unchecked MAC over all packed lanes,
// writing lane j's raw int64 sum of w against xs[j*stride:
// j*stride+len(w)] into accs[j]. It runs the kernel chosen for this
// CPU at init — AVX2 on amd64 when the CPU has it (dot_amd64.s),
// DotUncheckedBatchGo everywhere else — and every kernel returns the
// same bits for every input: each sums exact int64 products with
// wrapping int64 adds, which are associative and commutative, so
// neither the lane order nor the element order can change a sum.
// Exactness against the saturating kernels has the same precondition
// as DotUnchecked, which the caller must have proven for every lane.
// It panics unless every lane's row lies inside xs.
func DotUncheckedBatch(w, xs []Value, stride int, accs []int64) {
	if k := len(accs); k > 0 {
		// The last lane starts furthest in; its offset must not wrap.
		n := len(w)
		hi, last := bits.Mul64(uint64(k-1), uint64(stride))
		if stride < 0 || len(xs) < n || hi != 0 || last > uint64(len(xs)-n) {
			panic(fmt.Sprintf("fxp: DotUncheckedBatch %d lanes of %d at stride %d overrun %d inputs", k, n, stride, len(xs)))
		}
	}
	if !dotUncheckedBatchSIMD(w, xs, stride, accs) {
		DotUncheckedBatchGo(w, xs, stride, accs)
	}
}

// macKernel names the kernel DotUncheckedBatch runs; the architecture
// file that selects a SIMD kernel at init renames it.
var macKernel = "go"

// MACKernel names the kernel DotUncheckedBatch runs on this CPU: "avx2"
// or "go".
func MACKernel() string { return macKernel }

// DotUncheckedBatchGo is the portable DotUncheckedBatch kernel and the
// reference the SIMD kernels are tested against. Lanes are blocked
// four at a time so each weight element is loaded and sign-extended
// once per four lanes instead of once per lane; per lane the products
// are accumulated in ascending index order.
func DotUncheckedBatchGo(w, xs []Value, stride int, accs []int64) {
	n := len(w)
	k := len(accs)
	j := 0
	for ; j+4 <= k; j += 4 {
		x0 := xs[(j+0)*stride:]
		x1 := xs[(j+1)*stride:]
		x2 := xs[(j+2)*stride:]
		x3 := xs[(j+3)*stride:]
		x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
		var a0, a1, a2, a3 int64
		i := 0
		for ; i+2 <= n; i += 2 {
			wi, wk := int64(w[i]), int64(w[i+1])
			a0 += wi*int64(x0[i]) + wk*int64(x0[i+1])
			a1 += wi*int64(x1[i]) + wk*int64(x1[i+1])
			a2 += wi*int64(x2[i]) + wk*int64(x2[i+1])
			a3 += wi*int64(x3[i]) + wk*int64(x3[i+1])
		}
		if i < n {
			wi := int64(w[i])
			a0 += wi * int64(x0[i])
			a1 += wi * int64(x1[i])
			a2 += wi * int64(x2[i])
			a3 += wi * int64(x3[i])
		}
		accs[j+0] = a0
		accs[j+1] = a1
		accs[j+2] = a2
		accs[j+3] = a3
	}
	for ; j < k; j++ {
		accs[j] = DotUnchecked(w, xs[j*stride:j*stride+n])
	}
}

// BatchAccum extends one running accumulator per lane with the exact
// products of the shared weight row against each lane's activations,
// using AccumExact's saturating-add semantics per lane. Lanes are
// walked four at a time so the weight load and loop control amortize
// across lanes; the per-lane add sequence (and therefore saturation
// behavior) is identical to the scalar kernel. len(xs) must cover
// (len(accs)-1)*stride + len(w).
func BatchAccum(accs []Product, w, xs []Value, stride int) {
	n := len(w)
	k := len(accs)
	j := 0
	for ; j+4 <= k; j += 4 {
		x0 := xs[(j+0)*stride:]
		x1 := xs[(j+1)*stride:]
		x2 := xs[(j+2)*stride:]
		x3 := xs[(j+3)*stride:]
		x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
		a0 := int64(accs[j+0])
		a1 := int64(accs[j+1])
		a2 := int64(accs[j+2])
		a3 := int64(accs[j+3])
		for i := 0; i < n; i++ {
			wi := int64(w[i])
			a0 = satMac(a0, wi, int64(x0[i]))
			a1 = satMac(a1, wi, int64(x1[i]))
			a2 = satMac(a2, wi, int64(x2[i]))
			a3 = satMac(a3, wi, int64(x3[i]))
		}
		accs[j+0] = Product(a0)
		accs[j+1] = Product(a1)
		accs[j+2] = Product(a2)
		accs[j+3] = Product(a3)
	}
	for ; j < k; j++ {
		accs[j] = AccumExact(accs[j], w, xs[j*stride:j*stride+n])
	}
}

// satMac is one saturating multiply-accumulate step, the branchless-
// test body of AccumExact shared by the blocked kernel.
func satMac(a, w, x int64) int64 {
	p := w * x
	s := a + p
	if (a^s)&(p^s) < 0 {
		if a > 0 {
			return int64(maxProduct)
		}
		return int64(minProduct)
	}
	return s
}

const (
	maxProduct = Product(1<<63 - 1)
	minProduct = Product(-1 << 63)
)

// BatchDot runs the checked batch kernel from zero accumulators and
// scales each lane's sum back to Value precision: out[j] is
// f.ScaleProduct(AccumExact(0, w, xs[j*stride:j*stride+len(w)])).
func BatchDot(f Format, w, xs []Value, stride int, out []Value) {
	if stride < len(w) {
		panic(fmt.Sprintf("fxp: BatchDot stride %d shorter than row %d", stride, len(w)))
	}
	var accArr [16]Product
	accs := accArr[:0]
	if len(out) <= len(accArr) {
		accs = accArr[:len(out)]
	} else {
		accs = make([]Product, len(out))
	}
	for j := range accs {
		accs[j] = 0
	}
	BatchAccum(accs, w, xs, stride)
	for j := range out {
		out[j] = f.ScaleProduct(accs[j])
	}
}

// DotRowBatch implements BatchUnit for the exact multiplier. Lanes
// run in blocks of up to 64, each block one blocked unchecked walk over
// the row (or the batch's stored sums); a lane whose magnitude bound
// clears noSatBound takes its sum from the walk, any other lane — or
// every lane, when no bounds are known — runs the checked kernel.
// Either way each lane's result is bit-identical to the scalar exact
// MAC.
func (Exact) DotRowBatch(f Format, w []Value, b *Batch, out []Value) {
	if b.MaxAbs == nil {
		BatchDot(f, w, b.Xs, b.Stride, out)
		return
	}
	wAbs := b.WAbs
	if wAbs == 0 {
		wAbs = float64(SumAbs(w))
	}
	n := len(w)
	var accArr [64]int64
	for lo := 0; lo < len(out); lo += len(accArr) {
		hi := min(lo+len(accArr), len(out))
		accs := b.UncheckedSums(w, lo, accArr[:hi-lo])
		for j := lo; j < hi; j++ {
			if wAbs*float64(b.MaxAbs[j]) < noSatBound {
				out[j] = f.ScaleProduct(Product(accs[j-lo]))
			} else {
				out[j] = f.ScaleProduct(AccumExact(0, w, b.Xs[j*b.Stride:j*b.Stride+n]))
			}
		}
	}
}

var _ BatchUnit = Exact{}
