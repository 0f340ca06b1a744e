package fann

import (
	"math"
	"sync"

	"shmd/internal/fxp"
)

// fixedAct is an activation in exact fixed-point form: the function
// pre-activation → quantize(Activation.apply(pre·2^-F)), FANN's float
// expression, evaluated without leaving the integers.
// Pre-activations below lo map to below, above hi to above; inside
// [lo, hi] the result is vals[v-lo] when a table is present, v itself
// otherwise. That one shape covers all four activations:
//
//   - Sigmoid and SigmoidSymmetric are tabulated over the span where
//     the quantized output still moves, and constant outside it —
//     FANN's fixed-point mode tabulates its sigmoids the same way.
//   - Linear is the identity: v·2^-F and the ·2^F of quantization are
//     exact in float64, and an int32 never needs clamping.
//   - ReLU is max(v, 0), by the same exactness.
//
// A sigmoid whose table would exceed maxActTable entries (large F)
// keeps the float expression (exact by construction).
type fixedAct struct {
	lo, hi       fxp.Value
	below, above fxp.Value
	vals         []int16
	// act is the activation this form computes; float, when set,
	// evaluates it through float64 inside [lo, hi].
	act   Activation
	float bool
	scale float64
}

// maxActTable bounds a sigmoid table's entries (256 KB as int16).
const maxActTable = 1 << 17

// apply evaluates the activation at a fixed-point pre-activation.
func (t *fixedAct) apply(v fxp.Value) fxp.Value {
	if o, ok := t.lookup(v); ok {
		return o
	}
	return quantizeBatch(t.act.apply(float64(v)/t.scale), t.scale)
}

// lookup is apply without the float expression, small enough to inline
// into RunBatch's lane loop: ok is false only for a sigmoid without a
// table, which the caller evaluates through apply.
func (t *fixedAct) lookup(v fxp.Value) (o fxp.Value, ok bool) {
	// v-lo wraps mod 2^32, which maps every v outside the table to at
	// least 2^31 > len(vals): one unsigned compare tests both ends.
	if i := uint32(v - t.lo); i < uint32(len(t.vals)) {
		return fxp.Value(t.vals[i]), true
	}
	switch {
	case v < t.lo:
		return t.below, true
	case v > t.hi:
		return t.above, true
	}
	return v, !t.float
}

// actTables caches the sigmoid tables process-wide, one per
// (activation, FracBits); tables are immutable once built.
var actTables [2][31]struct {
	once sync.Once
	t    *fixedAct
}

// fixedActFor returns the exact fixed-point form of a in format f.
func fixedActFor(a Activation, f fxp.Format) *fixedAct {
	switch a {
	case Linear:
		return &fixedAct{lo: math.MinInt32, hi: math.MaxInt32, act: a}
	case ReLU:
		return &fixedAct{lo: 0, hi: math.MaxInt32, act: a}
	case Sigmoid, SigmoidSymmetric:
		c := &actTables[a][f.FracBits]
		c.once.Do(func() { c.t = buildSigmoidAct(a, f) })
		return c.t
	}
	panic("fann: unknown activation " + a.String())
}

// buildSigmoidAct tabulates a sigmoid-family activation from its exact
// float expression. The saturated outputs are the values at the
// int32 ends, and the table runs between the innermost pre-activations
// that reach them: scanning outward from 0, the edge on each side is
// one past the last output that still differs from the saturated
// value, once the output has held that value for 2^F further steps
// (one whole unit of x). Past that point the distance to the next
// rounding boundary only grows — the sigmoids approach their limits
// monotonically, e^-x shrinking by e per unit — so no later
// pre-activation can round differently. At F = 12 the tables hold
// 73,819 (Sigmoid) and 39,749 (SigmoidSymmetric) entries.
func buildSigmoidAct(a Activation, f fxp.Format) *fixedAct {
	scale := float64(int64(1) << f.FracBits)
	q := func(v int64) fxp.Value { return quantizeBatch(a.apply(float64(v)/scale), scale) }
	t := &fixedAct{below: q(math.MinInt32), above: q(math.MaxInt32), act: a, scale: scale}
	// edge scans away from 0 in direction step (±1) and returns the
	// innermost pre-activation past every output that differs from sat,
	// or false when that lies further out than a table may reach.
	settle := int64(1) << f.FracBits
	edge := func(sat fxp.Value, step int64) (int64, bool) {
		last := int64(0)
		for d := int64(0); d-last <= settle; d++ {
			if d > maxActTable {
				return 0, false
			}
			if q(d*step) != sat {
				last = d
			}
		}
		return (last + 1) * step, true
	}
	hi, okHi := edge(t.above, 1)
	lo, okLo := edge(t.below, -1)
	if !okHi || !okLo || hi-lo+1 > maxActTable {
		t.lo, t.hi, t.float = math.MinInt32, math.MaxInt32, true
		return t
	}
	vals := make([]int16, hi-lo+1)
	for i := range vals {
		v := q(lo + int64(i))
		if v < math.MinInt16 || v > math.MaxInt16 {
			t.lo, t.hi, t.float = math.MinInt32, math.MaxInt32, true
			return t
		}
		vals[i] = int16(v)
	}
	t.lo, t.hi, t.vals = fxp.Value(lo), fxp.Value(hi), vals
	return t
}
