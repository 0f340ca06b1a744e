package fann

import (
	"slices"

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
	weights [][]fxp.Value

	// rowAbs caches Σ|w| per layer per neuron row (read-only, shared
	// across Clones): the magnitude bound the batch kernels use to
	// prove the unchecked fast path safe without re-walking weights.
	rowAbs [][]float64

	// hiddenAct and outputAct are the activations in exact fixed-point
	// form, the ones RunBatch applies (read-only, shared process-wide).
	hiddenAct, outputAct *fixedAct

	// maxWidth is the widest layer, the lane pitch of the scratch
	// arenas (plus the bias slot).
	maxWidth int

	// batch holds the arenas reused across runs to keep the
	// per-inference allocation count flat (the detector is "always
	// on").
	batch batchScratch
}

// ToFixed quantizes the network into the given format.
func (n *Network) ToFixed(f fxp.Format) (*FixedNetwork, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	fn := &FixedNetwork{
		format: f,
		layers: append([]int(nil), n.layers...),
	}
	fn.weights = make([][]fxp.Value, len(n.weights))
	for l, w := range n.weights {
		q := make([]fxp.Value, len(w))
		for i, v := range w {
			q[i] = f.FromFloat(v)
		}
		fn.weights[l] = q
	}
	fn.maxWidth = slices.Max(fn.layers)
	fn.hiddenAct = fixedActFor(n.hidden, f)
	fn.outputAct = fixedActFor(n.output, f)
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

// Run performs one fixed-point forward pass with every multiplication
// going through u: RunBatch on one lane. Input is given in float64
// and quantized on entry; the outputs are returned in a fresh slice.
// The scratch arenas are reused, so a FixedNetwork is not safe for
// concurrent Runs.
func (fn *FixedNetwork) Run(u fxp.BatchUnit, input []float64) []float64 {
	return fn.RunBatch(u, [][]float64{input}, nil, nil)
}

// fixedActAt returns layer l's activation in exact fixed-point form.
func (fn *FixedNetwork) fixedActAt(l int) *fixedAct {
	if l == len(fn.weights)-1 {
		return fn.outputAct
	}
	return fn.hiddenAct
}
