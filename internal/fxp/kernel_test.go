package fxp

import (
	"math"
	"testing"
	"testing/quick"
)

// refDot is the scalar reference dot product: one exact Mul per
// product in index order, SatAdd accumulation, ScaleProduct. Every
// MAC kernel is held to it.
func refDot(f Format, w, x []Value) Value {
	var acc Product
	for i := range w {
		acc = SatAdd(acc, Exact{}.Mul(w[i], x[i]))
	}
	return f.ScaleProduct(acc)
}

// rowDot runs one row of w against x through u as a single packed
// lane, with x's magnitude bound when bounded is set (which unlocks
// the unchecked kernels) and without one otherwise.
func rowDot(u BatchUnit, f Format, w, x []Value, bounded bool) Value {
	b := &Batch{Xs: x, Stride: len(x)}
	if bounded {
		var m int64
		for _, v := range x[:len(w)] {
			m = max(m, int64(v), -int64(v))
		}
		b.MaxAbs = []int64{m}
	}
	out := make([]Value, 1)
	u.DotRowBatch(f, w, b, out)
	return out[0]
}

// exactDots returns w·x through every exact row path: Exact's batch
// form without and with a magnitude bound.
func exactDots(f Format, w, x []Value) [2]Value {
	return [2]Value{
		rowDot(Exact{}, f, w, x, false),
		rowDot(Exact{}, f, w, x, true),
	}
}

func TestDotExactMatchesReferenceTargeted(t *testing.T) {
	f := DefaultFormat
	max, min := Value(math.MaxInt32), Value(math.MinInt32)
	cases := [][2][]Value{
		{{}, {}},
		{{0}, {0}},
		{{max}, {max}}, // single saturating-scale product
		{{min}, {min}}, // MinInt32² = 2^62
		{{min}, {max}}, // most negative single product
		{{max, max, max, max}, {max, max, max, max}}, // accumulator saturates positive
		{{min, min, min, min}, {min, min, min, min}}, // products all +2^62, saturates
		{{max, min, max, min}, {max, max, min, min}}, // saturate then pull back
		{{min, min, min}, {max, max, max}},           // saturates negative
		{{max, min}, {max, max}},                     // cancel to ~0
	}
	// A long row that drives the accumulator to MaxInt64 and then keeps
	// adding: SatAdd semantics (sticky until an opposite sign arrives)
	// must match exactly.
	long := make([][2][]Value, 0)
	w := make([]Value, 64)
	x := make([]Value, 64)
	for i := range w {
		w[i], x[i] = max, max
	}
	w[40], x[40] = min, max // one huge negative product mid-row
	long = append(long, [2][]Value{w, x})
	cases = append(cases, long...)

	for i, c := range cases {
		want := refDot(f, c[0], c[1])
		for path, got := range exactDots(f, c[0], c[1]) {
			if got != want {
				t.Errorf("case %d path %d: %d, reference %d", i, path, got, want)
			}
		}
	}
}

// Property: for random rows (including extreme magnitudes), every
// exact row path and the scalar reference agree bit-exactly across
// formats.
func TestDotExactMatchesReferenceProperty(t *testing.T) {
	check := func(raw []int32, fracBits uint8) bool {
		f := Format{FracBits: uint(fracBits%30) + 1}
		n := len(raw) / 2
		w := make([]Value, n)
		x := make([]Value, n)
		for i := 0; i < n; i++ {
			w[i] = Value(raw[i])
			x[i] = Value(raw[n+i])
			// Push some elements to the extremes so saturation paths
			// are exercised, not just the common small-value regime.
			switch raw[i] % 7 {
			case 1:
				w[i] = math.MaxInt32
			case 2:
				w[i] = math.MinInt32
			case 3:
				x[i] = math.MinInt32
			}
		}
		want := refDot(f, w, x)
		return exactDots(f, w, x) == [2]Value{want, want}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzDotExact differentially fuzzes the checked saturating exact
// kernel (Exact.DotRowBatch without a magnitude bound) and the bounded
// path that may take the unchecked kernel against refDot, including
// saturation edge cases fed via the seed corpus.
func FuzzDotExact(f *testing.F) {
	f.Add([]byte{}, uint8(12))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F}, uint8(12))
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x80}, uint8(1))
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0xFF, 0xFF, 0xFF, 0x7F,
		0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x80}, uint8(30))
	f.Fuzz(func(t *testing.T, data []byte, fracBits uint8) {
		format := Format{FracBits: uint(fracBits%30) + 1}
		// Decode pairs of int32s: first half weights, second half inputs.
		vals := make([]Value, len(data)/4)
		for i := range vals {
			v := uint32(data[4*i]) | uint32(data[4*i+1])<<8 |
				uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
			vals[i] = Value(int32(v))
		}
		n := len(vals) / 2
		w, x := vals[:n], vals[n:2*n]
		want := refDot(format, w, x)
		for path, got := range exactDots(format, w, x) {
			if got != want {
				t.Fatalf("path %d = %d, scalar reference = %d (w=%v x=%v F=%d)",
					path, got, want, w, x, format.FracBits)
			}
		}
	})
}

// The accumulator-continuation kernel must compose: splitting a row at
// any point and chaining AccumExact equals one fused pass.
func TestAccumExactComposes(t *testing.T) {
	f := DefaultFormat
	w := []Value{math.MaxInt32, 12345, math.MinInt32, -987654, math.MaxInt32, 7}
	x := []Value{math.MaxInt32, -54321, math.MaxInt32, 123456, math.MaxInt32, -7}
	whole := AccumExact(0, w, x)
	for split := 0; split <= len(w); split++ {
		part := AccumExact(AccumExact(0, w[:split], x[:split]), w[split:], x[split:])
		if part != whole {
			t.Errorf("split at %d: %d != %d", split, part, whole)
		}
	}
	if got := f.ScaleProduct(whole); got != refDot(f, w, x) {
		t.Error("ScaleProduct(AccumExact) must equal the scalar reference")
	}
}
