package fann

import (
	"fmt"

	"shmd/internal/fxp"
)

// FixedNetwork is the fixed-point execution form of a Network,
// mirroring FANN's fann_save_to_fixed/fann_run pipeline: weights are
// quantized once, and every forward-pass multiplication is routed
// through an fxp.Unit. Running it with fxp.Exact gives the nominal-
// voltage detector; running it with a faults.Injector gives the
// undervolted Stochastic-HMD — same weights, no retraining.
type FixedNetwork struct {
	format  fxp.Format
	layers  []int
	hidden  Activation
	output  Activation
	weights [][]fxp.Value

	// rowAbs caches Σ|w| per layer per neuron row (read-only, shared
	// across Clones): the magnitude bound the batch kernels use to
	// prove the unchecked fast path safe without re-walking weights.
	rowAbs [][]float64

	// hiddenAct and outputAct are the activations in exact fixed-point
	// form, the ones RunBatch applies (read-only, shared process-wide).
	hiddenAct, outputAct *fixedAct

	// scratch buffers reused across runs to keep the per-inference
	// allocation count flat (the detector is "always on").
	actA, actB []fxp.Value
	batch      batchScratch
}

// ToFixed quantizes the network into the given format.
func (n *Network) ToFixed(f fxp.Format) (*FixedNetwork, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	fn := &FixedNetwork{
		format: f,
		layers: append([]int(nil), n.layers...),
		hidden: n.hidden,
		output: n.output,
	}
	fn.weights = make([][]fxp.Value, len(n.weights))
	for l, w := range n.weights {
		q := make([]fxp.Value, len(w))
		for i, v := range w {
			q[i] = f.FromFloat(v)
		}
		fn.weights[l] = q
	}
	maxWidth := 0
	for _, width := range fn.layers {
		if width > maxWidth {
			maxWidth = width
		}
	}
	fn.hiddenAct = fixedActFor(n.hidden, f)
	fn.outputAct = fixedActFor(n.output, f)
	fn.actA = make([]fxp.Value, maxWidth+1)
	fn.actB = make([]fxp.Value, maxWidth+1)
	fn.rowAbs = make([][]float64, len(fn.weights))
	for l, w := range fn.weights {
		stride := fn.layers[l] + 1
		rows := make([]float64, fn.layers[l+1])
		for r := range rows {
			rows[r] = float64(fxp.SumAbs(w[r*stride : (r+1)*stride]))
		}
		fn.rowAbs[l] = rows
	}
	return fn, nil
}

// Clone returns a FixedNetwork sharing the (read-only) quantized
// weights but owning fresh scratch buffers, so each goroutine of a
// parallel evaluation can run its own copy safely.
func (fn *FixedNetwork) Clone() *FixedNetwork {
	c := *fn
	c.actA = make([]fxp.Value, len(fn.actA))
	c.actB = make([]fxp.Value, len(fn.actB))
	c.batch = batchScratch{}
	return &c
}

// Format returns the fixed-point format in use.
func (fn *FixedNetwork) Format() fxp.Format { return fn.format }

// Layers returns a copy of the layer sizes.
func (fn *FixedNetwork) Layers() []int { return append([]int(nil), fn.layers...) }

// NumInputs returns the input dimensionality.
func (fn *FixedNetwork) NumInputs() int { return fn.layers[0] }

// NumOutputs returns the output dimensionality.
func (fn *FixedNetwork) NumOutputs() int { return fn.layers[len(fn.layers)-1] }

// NumMuls returns the number of multiplications one forward pass
// issues — the quantity the TRNG-overhead comparison charges one RNG
// query per. Each neuron's MAC row is fanIn+1 long because the bias is
// a constant-1 input that multiplies like any other weight (FANN's
// representation), so bias multiplications are included; the count
// equals exactly what a fault injector observes over one Run.
func (fn *FixedNetwork) NumMuls() int {
	total := 0
	for l := 0; l < len(fn.weights); l++ {
		total += (fn.layers[l] + 1) * fn.layers[l+1]
	}
	return total
}

// Run performs a fixed-point forward pass with every multiplication
// going through u. Input is given in float64 and quantized on entry;
// outputs are returned in float64. The returned slice is fresh; the
// internal activation buffers are reused, so a FixedNetwork is not safe
// for concurrent Runs.
func (fn *FixedNetwork) Run(u fxp.Unit, input []float64) []float64 {
	if len(input) != fn.layers[0] {
		panic(fmt.Sprintf("fann: input length %d, network expects %d", len(input), fn.layers[0]))
	}
	f := fn.format
	cur := fn.actA[:len(input)+1]
	for i, x := range input {
		cur[i] = f.FromFloat(x)
	}

	nextBuf := fn.actB
	for l, w := range fn.weights {
		fanIn := fn.layers[l]
		fanOut := fn.layers[l+1]
		a := fn.activationAtFixed(l)
		cur = cur[:fanIn+1]
		cur[fanIn] = f.One() // bias input
		next := nextBuf[:fanOut+1]
		for j := 0; j < fanOut; j++ {
			row := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			pre := fxp.Dot(u, f, row, cur)
			// Activation is evaluated via float64: this is the oracle
			// RunBatch's exact fixed-point tables (fixedAct) are built
			// from and tested against, entry for entry. The multiplier
			// faults land in the MAC, which is where the paper
			// characterizes them; FANN's fixed-point mode looks its
			// sigmoids up in a table, which has no long carry chains.
			next[j] = f.FromFloat(a.apply(f.ToFloat(pre)))
		}
		cur, nextBuf = next, cur[:cap(cur)]
	}

	out := make([]float64, fn.NumOutputs())
	for j := range out {
		out[j] = f.ToFloat(cur[j])
	}
	return out
}

// activationAtFixed mirrors Network.activationAt.
func (fn *FixedNetwork) activationAtFixed(l int) Activation {
	if l == len(fn.weights)-1 {
		return fn.output
	}
	return fn.hidden
}

// fixedActAt is activationAtFixed in exact fixed-point form.
func (fn *FixedNetwork) fixedActAt(l int) *fixedAct {
	if l == len(fn.weights)-1 {
		return fn.outputAct
	}
	return fn.hiddenAct
}
