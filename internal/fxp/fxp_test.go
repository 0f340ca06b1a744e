package fxp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatValidate(t *testing.T) {
	for _, bits := range []uint{1, 12, 30} {
		if err := (Format{FracBits: bits}).Validate(); err != nil {
			t.Errorf("FracBits %d should be valid: %v", bits, err)
		}
	}
	for _, bits := range []uint{0, 31, 64} {
		if err := (Format{FracBits: bits}).Validate(); err == nil {
			t.Errorf("FracBits %d should be invalid", bits)
		}
	}
}

func TestRoundTripExactValues(t *testing.T) {
	f := DefaultFormat
	// Values exactly representable in Q.12 round-trip without loss.
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 3.75, -100.0625} {
		if got := toFloat(f, f.FromFloat(x)); got != x {
			t.Errorf("round trip %v = %v", x, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	f := DefaultFormat
	if got := f.FromFloat(1e12); got != math.MaxInt32 {
		t.Errorf("positive saturation = %d", got)
	}
	if got := f.FromFloat(-1e12); got != math.MinInt32 {
		t.Errorf("negative saturation = %d", got)
	}
	if got := f.FromFloat(math.NaN()); got != 0 {
		t.Errorf("NaN should map to 0, got %d", got)
	}
	if got := f.FromFloat(math.Inf(1)); got != math.MaxInt32 {
		t.Errorf("+Inf should saturate, got %d", got)
	}
}

func TestOne(t *testing.T) {
	f := Format{FracBits: 10}
	if f.One() != 1024 {
		t.Errorf("One = %d", f.One())
	}
	if toFloat(f, f.One()) != 1.0 {
		t.Errorf("toFloat(One) = %v", toFloat(f, f.One()))
	}
}

func TestExactMul(t *testing.T) {
	f := DefaultFormat
	var u Exact
	a := f.FromFloat(2.5)
	b := f.FromFloat(-4.0)
	p := u.Mul(a, b)
	if want := Product(f.FromFloat(-10.0)) << f.FracBits; p != want {
		t.Errorf("2.5 * -4.0 = %d, want %d", p, want)
	}
	if got := toFloat(f, f.ScaleProduct(p)); got != -10.0 {
		t.Errorf("scaled product = %v", got)
	}
}

func TestScaleProductRounding(t *testing.T) {
	f := Format{FracBits: 4}
	// Product value 0b111 (7) with F=4: scaling divides by 16 and
	// rounds 7/16 -> 0; 9/16 -> 1 (round half away handled via +half).
	if got := f.ScaleProduct(7); got != 0 {
		t.Errorf("ScaleProduct(7) = %d, want 0", got)
	}
	if got := f.ScaleProduct(9); got != 1 {
		t.Errorf("ScaleProduct(9) = %d, want 1", got)
	}
	if got := f.ScaleProduct(-7); got != 0 {
		t.Errorf("ScaleProduct(-7) = %d, want 0", got)
	}
	if got := f.ScaleProduct(-9); got != -1 {
		t.Errorf("ScaleProduct(-9) = %d, want -1", got)
	}
}

func TestScaleProductSaturates(t *testing.T) {
	f := DefaultFormat
	if got := f.ScaleProduct(math.MaxInt64); got != math.MaxInt32 {
		t.Errorf("positive saturation = %d", got)
	}
	if got := f.ScaleProduct(math.MinInt64 + 1); got != math.MinInt32 {
		t.Errorf("negative saturation = %d", got)
	}
}

func TestSatAdd(t *testing.T) {
	if got := SatAdd(1, 2); got != 3 {
		t.Errorf("SatAdd(1,2) = %d", got)
	}
	if got := SatAdd(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("positive overflow = %d", got)
	}
	if got := SatAdd(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("negative overflow = %d", got)
	}
	if got := SatAdd(math.MaxInt64, math.MinInt64); got != -1 {
		t.Errorf("mixed signs = %d", got)
	}
}

// toFloat converts v back to a float64.
func toFloat(f Format, v Value) float64 {
	return float64(v) / float64(int64(1)<<f.FracBits)
}

// fromFloats converts xs to fixed point element by element.
func fromFloats(f Format, xs []float64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = f.FromFloat(x)
	}
	return out
}

func TestDotMatchesFloat(t *testing.T) {
	f := DefaultFormat
	w := fromFloats(f, []float64{0.5, -1.25, 2.0, 0.125})
	x := fromFloats(f, []float64{1.0, 2.0, -0.5, 8.0})
	got := toFloat(f, rowDot(Exact{}, f, w, x, false))
	want := 0.5*1.0 + -1.25*2.0 + 2.0*-0.5 + 0.125*8.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Dot = %v, want %v", got, want)
	}
}

// A row longer than its lane's inputs is a layer-wiring bug: the exact
// row path panics rather than read past the lane.
func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	rowDot(Exact{}, DefaultFormat, make([]Value, 3), make([]Value, 2), false)
}

// Property: conversion error is bounded by half an LSB for in-range values.
func TestQuantizationErrorBound(t *testing.T) {
	f := DefaultFormat
	lsb := 1.0 / float64(int64(1)<<f.FracBits)
	check := func(raw int32) bool {
		x := float64(raw) / float64(1<<16) // roughly [-32768, 32768)
		if math.Abs(x) > toFloat(f, math.MaxInt32)-1 {
			return true
		}
		got := toFloat(f, f.FromFloat(x))
		return math.Abs(got-x) <= lsb/2+1e-15
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: fixed-point dot product tracks the float dot product within
// an error bound linear in the vector length.
func TestDotErrorBound(t *testing.T) {
	f := DefaultFormat
	lsb := 1.0 / float64(int64(1)<<f.FracBits)
	check := func(rawW, rawX [8]int16) bool {
		w64 := make([]float64, 8)
		x64 := make([]float64, 8)
		for i := 0; i < 8; i++ {
			w64[i] = float64(rawW[i]) / (1 << 12) // [-8, 8)
			x64[i] = float64(rawX[i]) / (1 << 12)
		}
		w := fromFloats(f, w64)
		x := fromFloats(f, x64)
		got := toFloat(f, rowDot(Exact{}, f, w, x, true))
		want := 0.0
		for i := range w64 {
			want += w64[i] * x64[i]
		}
		// Each product contributes at most ~ (|w|+|x|)*lsb/2 error plus
		// the final scale-back rounding; a generous linear bound.
		bound := lsb * float64(len(w64)) * 20
		return math.Abs(got-want) <= bound
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: Exact.Mul is commutative and matches int64 multiplication.
func TestExactMulProperties(t *testing.T) {
	check := func(a, b int32) bool {
		u := Exact{}
		p1 := u.Mul(Value(a), Value(b))
		p2 := u.Mul(Value(b), Value(a))
		return p1 == p2 && int64(p1) == int64(a)*int64(b)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
