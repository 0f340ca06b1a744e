package faults

import (
	"math/rand"

	"shmd/internal/fxp"
)

// bernoulliInjector is the per-multiplication reference of the
// undervolted multiplier: one Bernoulli(rate) draw per multiplication
// and a binary search of the location CDF per fault bit, the direct
// transcription of the paper's fault model with neither skip-ahead nor
// alias tables. The statistical-equivalence tests hold the production
// Injector to it.
type bernoulliInjector struct {
	rate  float64
	cdf   [ProductBits]float64
	rnd   *rand.Rand
	stats Counters
}

// newBernoulliInjector builds the reference at rate over dist (nil
// means the Fig 1 model).
func newBernoulliInjector(rate float64, dist *Distribution, rnd *rand.Rand) *bernoulliInjector {
	if dist == nil {
		dist = Fig1Distribution()
	}
	in := &bernoulliInjector{rate: rate, rnd: rnd}
	acc := 0.0
	for bit, w := range dist.weights {
		acc += w
		in.cdf[bit] = acc
	}
	in.cdf[ProductBits-1] = 1 // guard against rounding
	return in
}

// Stats returns a snapshot of the injection counters.
func (in *bernoulliInjector) Stats() Counters { return in.stats }

// Mul multiplies two fixed-point values, then — with probability equal
// to the error rate — flips one product bit drawn by sampleCDF.
func (in *bernoulliInjector) Mul(a, b fxp.Value) fxp.Product {
	p := fxp.Product(int64(a) * int64(b))
	in.stats.Muls++
	if in.rate > 0 && in.rnd.Float64() < in.rate {
		bit := in.sampleCDF()
		p ^= fxp.Product(1) << uint(bit)
		in.stats.Faults++
		in.stats.PerBit[bit]++
	}
	return p
}

// sampleCDF draws a fault bit by binary-searching the CDF.
func (in *bernoulliInjector) sampleCDF() int {
	u := in.rnd.Float64()
	lo, hi := 0, ProductBits-1
	for lo < hi {
		mid := (lo + hi) / 2
		if in.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mulDot is the scalar reference row: one u.Mul per product in index
// order, SatAdd accumulation, ScaleProduct. It is the multiplication
// sequence every batch kernel's stream consumption is held to.
func mulDot(u fxp.Unit, f fxp.Format, w, x []fxp.Value) fxp.Value {
	var acc fxp.Product
	for i := range w {
		acc = fxp.SatAdd(acc, u.Mul(w[i], x[i]))
	}
	return f.ScaleProduct(acc)
}

// rowDot runs one row through u's batch form as a single packed lane
// with no magnitude bound, so the checked kernels run, drawing live
// unless a span is active.
func rowDot(u fxp.BatchUnit, f fxp.Format, w, x []fxp.Value) fxp.Value {
	out := make([]fxp.Value, 1)
	u.DotRowBatch(f, w, &fxp.Batch{Xs: x, Stride: len(x)}, out)
	return out[0]
}
