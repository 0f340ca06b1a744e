// Package fxp implements the FANN-style fixed-point arithmetic the
// Stochastic-HMD inference path runs on.
//
// FANN's fixed-point execution mode stores weights and activations as
// 32-bit integers with an implicit binary point. Every neuron input is
// a sum of products of two such values; the product is a 64-bit
// integer carrying twice the fractional bits. The paper's fault
// injector corrupts exactly those 64-bit multiplication outputs
// (Section II characterizes faults on 64-bit multiply results; Section
// VI-A injects "timing violation errors ... at the output of
// arithmetic operations").
//
// The Unit interface is the integration point: the exact multiplier
// and the undervolted (fault-injecting) multiplier are interchangeable,
// so the same pre-trained network runs either nominally or
// stochastically without any model change — mirroring the paper's
// claim that no retraining or model modification is needed.
package fxp

import (
	"fmt"
	"math"
)

// Value is a fixed-point number: a 32-bit integer with Format.FracBits
// fractional bits (Q notation: Q(31-F).F).
type Value int32

// Product is the full-width result of multiplying two Values. It
// carries 2*Format.FracBits fractional bits. Fig 1 of the paper plots
// fault locations over exactly these 64 output bits.
type Product int64

// Format fixes the binary-point position for a network execution.
type Format struct {
	// FracBits is the number of fractional bits F in Q(31-F).F.
	FracBits uint
}

// DefaultFracBits matches what FANN's save_to_fixed chooses for small
// MLPs with sigmoid activations: enough headroom for sums of a few
// hundred products of values in roughly [-8, 8).
const DefaultFracBits = 12

// DefaultFormat is the format used by the HMD inference path.
var DefaultFormat = Format{FracBits: DefaultFracBits}

// Validate reports whether the format is usable.
func (f Format) Validate() error {
	if f.FracBits < 1 || f.FracBits > 30 {
		return fmt.Errorf("fxp: FracBits %d outside [1,30]", f.FracBits)
	}
	return nil
}

// One returns the fixed-point representation of 1.0.
func (f Format) One() Value { return Value(1) << f.FracBits }

// FromFloat converts x to fixed point with round-to-nearest and
// saturation at the representable range.
func (f Format) FromFloat(x float64) Value {
	if math.IsNaN(x) {
		return 0
	}
	scaled := x * float64(int64(1)<<f.FracBits)
	scaled = math.RoundToEven(scaled)
	if scaled >= float64(math.MaxInt32) {
		return math.MaxInt32
	}
	if scaled <= float64(math.MinInt32) {
		return math.MinInt32
	}
	return Value(scaled)
}

// ScaleProduct reduces a full-width product back to Value precision
// (shift right by F with rounding) and saturates to the int32 range.
func (f Format) ScaleProduct(p Product) Value {
	half := Product(1) << (f.FracBits - 1)
	var shifted Product
	if p >= 0 {
		if p > math.MaxInt64-half {
			return math.MaxInt32 // rounding bias would overflow; already saturated
		}
		shifted = (p + half) >> f.FracBits
	} else {
		if p < math.MinInt64+half {
			return math.MinInt32
		}
		shifted = -((-p + half) >> f.FracBits)
	}
	return saturate32(shifted)
}

// saturate32 clamps a Product into the Value range.
func saturate32(p Product) Value {
	if p > math.MaxInt32 {
		return math.MaxInt32
	}
	if p < math.MinInt32 {
		return math.MinInt32
	}
	return Value(p)
}

// SatAdd adds two products with saturation at the int64 range, so a
// fault-inflated product cannot wrap the accumulator.
func SatAdd(a, b Product) Product {
	sum := a + b
	if a > 0 && b > 0 && sum < 0 {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && sum >= 0 {
		return math.MinInt64
	}
	return sum
}

// Unit performs the multiply step of a multiply-accumulate. The exact
// unit returns the true 64-bit product; the undervolted unit in
// internal/faults returns a product whose bits may have flipped.
//
// The paper's characterization found that additions, subtractions and
// bit-wise operations never faulted under the tested undervolting
// levels (shorter propagation paths), so accumulation is always exact
// and only Mul is behind the interface.
type Unit interface {
	// Mul multiplies two fixed-point values and returns the
	// full-width product with 2F fractional bits.
	Mul(a, b Value) Product
}

// Exact is the fault-free multiplier used at nominal voltage.
type Exact struct{}

// Mul returns the true product.
func (Exact) Mul(a, b Value) Product {
	return Product(int64(a) * int64(b))
}

// AccumExact extends a running accumulator with the exact products of
// w[i]*x[i], using the same saturating addition as SatAdd, in one
// fused loop with no per-element interface call. It is the kernel the
// checked exact batch rows and the fault injector's between-fault-sites
// segments are built on. Panics are the caller's concern: w and x must
// have equal length.
func AccumExact(acc Product, w, x []Value) Product {
	a := int64(acc)
	x = x[:len(w)] // one bounds check here instead of one per element
	for i := range w {
		p := int64(w[i]) * int64(x[i])
		s := a + p
		// Inline SatAdd via the branchless overflow test: a signed add
		// overflows iff both operands disagree in sign with the result.
		// A product of two int32s cannot itself overflow int64, but the
		// running sum can; the branch is never taken in trained-network
		// regimes, so it predicts perfectly.
		if (a^s)&(p^s) < 0 {
			if a > 0 {
				a = math.MaxInt64
			} else {
				a = math.MinInt64
			}
			continue
		}
		a = s
	}
	return Product(a)
}
