// Package faults implements the stochastic fault-injection tool of the
// paper's Section VI-A: it "emulates timing violations at the output of
// arithmetic operations, based on the error distribution model detailed
// in Section II". The injector is an fxp.BatchUnit, so it drops into the
// fixed-point inference path of the FANN-like network without any model
// change.
//
// The Section II characterization constraints encoded here:
//
//   - only multiplications fault (adds/subs/bit-ops have shorter
//     critical paths and never faulted), so only Mul is corrupted;
//   - the sign bit (bit 63 of the 64-bit product) never flips — it is a
//     single XOR of the operand sign bits, far off the critical path;
//   - the 8 least-significant product bits never flip — their
//     propagation delays are the shortest in the array multiplier;
//   - the fault location varies non-deterministically across runs with
//     identical operands (validated with the approximate-entropy test);
//   - the undervolting level controls the fault *rate*; the location
//     distribution keeps the same shape (Fig 1 snapshot at −130 mV).
package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// Product-bit index constants from the Section II characterization.
const (
	// MinFaultBit is the lowest product bit that can flip; bits 0..7
	// never faulted in the characterization.
	MinFaultBit = 8
	// MaxFaultBit is the highest product bit that can flip; bit 63
	// (the sign) never faulted.
	MaxFaultBit = 62
	// ProductBits is the width of a multiplication output.
	ProductBits = 64
)

// Distribution is a normalized fault-location distribution over the 64
// product bits. Weights outside [MinFaultBit, MaxFaultBit] are zero by
// construction.
type Distribution struct {
	weights [ProductBits]float64
	// Walker alias tables: Sample draws in O(1) — one uniform, one
	// table row — instead of binary-searching the CDF, whose ~6
	// data-dependent branches mispredict and dominate the per-fault
	// cost of the skip-ahead injector.
	aliasProb [ProductBits]float64
	alias     [ProductBits]int
	// bits32 is the integer-threshold form of the alias table read by
	// sampleBits32: row i accepts itself iff the 26-bit fraction is
	// below thresh, which is the exact same acceptance set as the float
	// comparison (see the threshold derivation in buildAlias), with the
	// row fused into 8 bytes so a draw touches one cache line and does
	// no int→float conversion.
	bits32 [ProductBits]aliasRow32
}

// aliasRow32 is one integer-threshold alias row.
type aliasRow32 struct {
	thresh uint32
	alias  uint16
}

// NewDistribution builds a Distribution from raw non-negative weights.
// Weights at the sign bit and the 8 LSBs are rejected, matching the
// physical constraints above.
func NewDistribution(weights [ProductBits]float64) (*Distribution, error) {
	total := 0.0
	for bit, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("faults: invalid weight %v at bit %d", w, bit)
		}
		if w > 0 && (bit < MinFaultBit || bit > MaxFaultBit) {
			return nil, fmt.Errorf("faults: bit %d cannot fault (weight %v)", bit, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("faults: distribution has no mass")
	}
	d := &Distribution{}
	for bit := range weights {
		d.weights[bit] = weights[bit] / total
	}
	d.buildAlias()
	return d, nil
}

// buildAlias fills the Walker alias tables from the normalized weights.
// The integer thresholds are exact: an m-bit fraction u accepts iff
// u·2⁻ᵐ < p, and since float64(u)·2⁻ᵐ and p·2ᵐ are both exact
// (power-of-two scaling), that holds iff u < ceil(p·2ᵐ) — so the
// integer compare draws the identical outcome for every random input.
func (d *Distribution) buildAlias() {
	prob, alias := aliasBuild(d.weights[:])
	copy(d.aliasProb[:], prob)
	copy(d.alias[:], alias)
	for i := range d.bits32 {
		d.bits32[i] = aliasRow32{
			thresh: uint32(math.Ceil(prob[i] * (1 << bitFracBits))),
			alias:  uint16(alias[i]),
		}
	}
}

// aliasBuild runs Vose's O(n) alias-table construction over normalized
// weights. Every table row (prob, alias) splits one 1/n-wide bucket
// between at most two outcomes, so sampling needs a single uniform:
// the integer part picks the row, the fractional part picks the side.
// Shared by the fault-location Distribution and the injector's
// geometric gap table.
func aliasBuild(weights []float64) (prob []float64, alias []int) {
	n := len(weights)
	prob = make([]float64, n)
	alias = make([]int, n)
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are exactly full buckets (up to rounding).
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return prob, alias
}

// Calibration constants for the default (Fig 1) fault-location model.
//
// The measured distribution at −130 mV spreads faults over bits 8..62
// with per-bit rates below 0.06%: the bulk of flips land in
// low-significance bits (short-but-failing paths are reached first as
// voltage drops) with a thinning tail into the high bits whose longer
// carry chains fail more rarely at this undervolting level. We model
// that as a two-component mixture:
//
//   - a dominant bump centered in the low product bits
//     (fig1LowCenter/fig1LowSigma), holding fig1LowMass of the mass;
//   - a wide, shallow bump over the mid/high bits
//     (fig1HighCenter/fig1HighSigma) for the rare catastrophic flips.
//
// These four constants — together with the voltage→rate curve in
// internal/volt — are the calibration surface of the reproduction; they
// were tuned so that the Fig 2(a) accuracy-vs-error-rate sweep matches
// the paper's shape (≈2% accuracy loss at er = 0.1, graceful
// degradation until ≈0.5, divergence toward er = 1).
const (
	fig1LowCenter  = 14.0
	fig1LowSigma   = 3.5
	fig1LowMass    = 0.995
	fig1HighCenter = 34.0
	fig1HighSigma  = 9.0
)

// Fig1Distribution returns the default fault-location model fitted to
// the shape of the paper's Fig 1 (i7-5557U at 2.2 GHz, 49 °C, −130 mV).
func Fig1Distribution() *Distribution {
	var w [ProductBits]float64
	for bit := MinFaultBit; bit <= MaxFaultBit; bit++ {
		b := float64(bit)
		low := math.Exp(-0.5 * sq((b-fig1LowCenter)/fig1LowSigma))
		high := math.Exp(-0.5 * sq((b-fig1HighCenter)/fig1HighSigma))
		w[bit] = fig1LowMass*low + (1-fig1LowMass)*high
	}
	d, err := NewDistribution(w)
	if err != nil {
		panic("faults: default distribution invalid: " + err.Error())
	}
	return d
}

// UniformDistribution returns a flat distribution over all faultable
// bits. It exists for the ablation bench that contrasts the measured
// low-bit-heavy shape with a uniform one (which is far more damaging).
func UniformDistribution() *Distribution {
	var w [ProductBits]float64
	for bit := MinFaultBit; bit <= MaxFaultBit; bit++ {
		w[bit] = 1
	}
	d, err := NewDistribution(w)
	if err != nil {
		panic("faults: uniform distribution invalid: " + err.Error())
	}
	return d
}

func sq(x float64) float64 { return x * x }

// Weights returns a copy of the normalized per-bit mass.
func (d *Distribution) Weights() [ProductBits]float64 { return d.weights }

// Sample draws a fault bit location via the alias tables: one uniform,
// one comparison.
func (d *Distribution) Sample(rnd *rand.Rand) int {
	u := rnd.Float64() * ProductBits
	i := int(u)
	if i >= ProductBits { // u == 1.0 cannot happen, but be safe
		i = ProductBits - 1
	}
	if u-float64(i) < d.aliasProb[i] {
		return i
	}
	return d.alias[i]
}

// Bit-sampler fraction split of a 32-bit draw: the top 6 bits index
// the alias row (ProductBits = 64 rows), the low 26 form the
// acceptance fraction.
const (
	bitFracBits = 26
	bitFracMask = 1<<bitFracBits - 1
)

// sampleBits32 draws a fault bit from 32 pre-drawn random bits. The
// injector's fused per-fault draw uses this so one 64-bit RNG output
// covers both the bit and the next gap; the 2^-26 fraction granularity
// biases each bit's mass by < 2^-31, far below the
// statistical-equivalence test tolerances.
func (d *Distribution) sampleBits32(u uint32) int {
	r := d.bits32[u>>bitFracBits]
	if u&bitFracMask < r.thresh {
		return int(u >> bitFracBits)
	}
	return int(r.alias)
}
