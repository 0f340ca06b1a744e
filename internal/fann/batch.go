package fann

import (
	"fmt"
	"math"

	"shmd/internal/fxp"
)

// This file holds the batch-lane forward pass: RunBatch pushes N
// independent input windows ("lanes") through the network with one
// weight-row walk per neuron driving every lane, via an fxp.BatchUnit.
// Activations live in lane-major structure-of-arrays arenas owned by
// the FixedNetwork and reused across calls, so a steady-state batched
// inference allocates nothing.
//
// It is the network's only forward pass (Run is one lane of it). Per
// lane the computation is the scalar FANN pipeline — quantize, MAC of
// each neuron row with the bias last, activation — with the same
// rounding and saturation at every step. What batching changes is
// layout, hoisted constants (the 2^F scale factor is precomputed;
// multiplying by the exact power-of-two reciprocal is the same IEEE
// operation as dividing by the scale), and the activation, which is
// looked up in its exact fixed-point form (fixedact.go) rather than
// recomputed through float64; the tests hold every lane to a scalar
// float-activation reference pass.

// batchScratch is the reusable lane-major state of batched runs.
type batchScratch struct {
	act, next  []fxp.Value // (maxWidth+1) * lanes activation arenas
	rowOut     []fxp.Value // one row's output per lane
	maxAbs     []int64     // per-lane |activation| bound, current layer
	nextMaxAbs []int64
	identity   []int     // 0..k-1 lane ids for nil lane maps
	bt         fxp.Batch // reused so the per-layer batch view never escapes
}

// grow sizes the arenas for k lanes of width maxWidth, reusing prior
// capacity.
func (s *batchScratch) grow(k, maxWidth int) {
	need := (maxWidth + 1) * k
	if cap(s.act) < need {
		s.act = make([]fxp.Value, need)
		s.next = make([]fxp.Value, need)
	}
	s.act = s.act[:need]
	s.next = s.next[:need]
	if cap(s.rowOut) < k {
		s.rowOut = make([]fxp.Value, k)
		s.maxAbs = make([]int64, k)
		s.nextMaxAbs = make([]int64, k)
	}
	s.rowOut = s.rowOut[:k]
	s.maxAbs = s.maxAbs[:k]
	s.nextMaxAbs = s.nextMaxAbs[:k]
}

// quantizeBatch is fxp.Format.FromFloat with the scale factor hoisted
// out of the per-element path; it must stay branch-for-branch
// identical to FromFloat so batched quantization is bit-identical.
func quantizeBatch(x, scale float64) fxp.Value {
	if math.IsNaN(x) {
		return 0
	}
	s := math.RoundToEven(x * scale)
	if s >= float64(math.MaxInt32) {
		return math.MaxInt32
	}
	if s <= float64(math.MinInt32) {
		return math.MinInt32
	}
	return fxp.Value(s)
}

// Inputs is a run of lanes' first-layer inputs in the form the batched
// forward pass consumes: quantized into a lane-major arena with the
// bias slot set, each lane's |x| bound (bias included), and optionally
// each lane's nominal first-layer row sums. Quantizing once and
// running many times — every (error rate, repeat) cell of a sweep over
// the same windows — is what Inputs is for: a fault is an additive
// correction on an exact product, so faulty passes over a lane share
// its nominal sums. Inputs are bound to the weights of the network
// that built them (and its Clones); RunInputs refuses any other. They
// are read-only once built, so concurrent runs may share them.
type Inputs struct {
	// w0 is the first layer's weights the lanes were built for.
	w0 []fxp.Value
	// xs holds lane j's quantized inputs and bias at
	// xs[j*stride : (j+1)*stride].
	xs     []fxp.Value
	stride int
	maxAbs []int64
	// sums holds the nominal first-layer sums row-major, row r's lanes
	// at sums[r*n : (r+1)*n], so a contiguous lane range of one row is
	// one slice; nil when not computed.
	sums []int64
	n    int
}

// Quantize builds the Inputs of vecs, lane j from vecs[j], with their
// nominal first-layer sums: each lane's DotUnchecked sum of every
// first-layer row, the value the unchecked fast path would compute on
// the fly. A sum is only read on a path that has proven the lane's
// no-saturation bound, where it is exact.
func (fn *FixedNetwork) Quantize(vecs [][]float64) *Inputs {
	in := fn.quantize(vecs, make([]fxp.Value, len(vecs)*(fn.layers[0]+1)), make([]int64, len(vecs)))
	in.sums = make([]int64, fn.layers[1]*in.n)
	for r := 0; r < fn.layers[1]; r++ {
		fxp.DotUncheckedBatch(fn.weights[0][r*in.stride:(r+1)*in.stride], in.xs, in.stride, in.sums[r*in.n:(r+1)*in.n])
	}
	return &in
}

// Quantized reports whether in was built by fn or a network sharing its
// weights (a Clone).
func (fn *FixedNetwork) Quantized(in *Inputs) bool {
	w := fn.weights[0]
	return in != nil && len(in.w0) == len(w) && &in.w0[0] == &w[0]
}

// quantize returns the lanes of vecs, quantized into the given arenas,
// without stored sums.
func (fn *FixedNetwork) quantize(vecs [][]float64, xs []fxp.Value, maxAbs []int64) Inputs {
	scale := float64(int64(1) << fn.format.FracBits)
	one := fn.format.One()
	stride := fn.layers[0] + 1
	for j, input := range vecs {
		if len(input) != fn.layers[0] {
			panic(fmt.Sprintf("fann: lane %d input length %d, network expects %d", j, len(input), fn.layers[0]))
		}
		lane := xs[j*stride : (j+1)*stride]
		m := int64(one) // the bias input
		for i, x := range input {
			v := quantizeBatch(x, scale)
			lane[i] = v
			if a := int64(v); a > m {
				m = a
			} else if -a > m {
				m = -a
			}
		}
		lane[len(input)] = one
		maxAbs[j] = m
	}
	return Inputs{w0: fn.weights[0], xs: xs, stride: stride, maxAbs: maxAbs, n: len(vecs)}
}

// RunBatch performs one fixed-point forward pass per lane, every
// multiplication going through u, with one DotRowBatch call per neuron
// driving all lanes. inputs[j] is packed lane j's input vector;
// lanes[j] maps packed positions to the unit's stable lane identities
// (nil = identity), which is how callers keep per-lane fault streams
// attached to the right program. Lane ids may repeat: positions on one
// unit lane are consecutive forward passes on its stream, in packed
// order (see fxp.SpanPlanner), so one program's windows can share a
// pass.
//
// Results are written lane-major into out (grown if needed) and
// returned: packed lane j's outputs are out[j*NumOutputs :
// (j+1)*NumOutputs]. Per lane the scores are bit-identical to
// Run(unit, inputs[j]) with the unit in the same stream state. The
// scratch arenas are reused, so a FixedNetwork is not safe for
// concurrent runs (Clone per goroutine).
//
// RunBatch quantizes the inputs into the scratch arenas and runs them
// as RunInputs does, without stored sums.
func (fn *FixedNetwork) RunBatch(u fxp.BatchUnit, inputs [][]float64, lanes []int, out []float64) []float64 {
	k := len(inputs)
	if k == 0 {
		return out[:0]
	}
	s := &fn.batch
	s.grow(k, fn.maxWidth)
	in := fn.quantize(inputs, s.act, s.maxAbs)
	return fn.run(u, &in, 0, k, lanes, out)
}

// RunInputs is RunBatch over lanes [lo, hi) of in, packed lane j being
// in's lane lo+j: the first layer reads in's arena — and its stored
// sums, on the paths that have proven their bound — and every later
// layer runs in the network's own scratch, so in is never written.
// Per lane the scores are bit-identical to RunBatch on the same input
// vector. It panics when in was built for another network's weights.
func (fn *FixedNetwork) RunInputs(u fxp.BatchUnit, in *Inputs, lo, hi int, lanes []int, out []float64) []float64 {
	if !fn.Quantized(in) {
		panic("fann: inputs were quantized for another network")
	}
	if lo < 0 || hi > in.n || lo > hi {
		panic(fmt.Sprintf("fann: lane range [%d, %d) outside %d lanes", lo, hi, in.n))
	}
	if lo == hi {
		return out[:0]
	}
	fn.batch.grow(hi-lo, fn.maxWidth)
	return fn.run(u, in, lo, hi, lanes, out)
}

// run is the one batched forward pass behind RunBatch and RunInputs:
// lanes [lo, hi) of in through every layer. The scratch arenas must
// already be grown for hi-lo lanes.
func (fn *FixedNetwork) run(u fxp.BatchUnit, in *Inputs, lo, hi int, lanes []int, out []float64) []float64 {
	k := hi - lo
	if lanes != nil && len(lanes) != k {
		panic(fmt.Sprintf("fann: %d lane ids for %d inputs", len(lanes), k))
	}
	f := fn.format
	inv := 1 / float64(int64(1)<<f.FracBits)
	one := f.One()
	s := &fn.batch

	// A forward pass is a fixed multiplication sequence; announce it so
	// fault units can presample each lane's draws in one hot loop.
	// Planning consumes lane streams, so the announced list must be
	// exactly the lanes this batch walks.
	if sp, ok := u.(fxp.SpanPlanner); ok {
		span := lanes
		if span == nil {
			if cap(s.identity) < k {
				s.identity = make([]int, k)
				for j := range s.identity {
					s.identity[j] = j
				}
			}
			span = s.identity[:k]
		}
		sp.BeginSpan(span, fn.NumMuls())
	}

	// The first layer reads in's lanes; each layer writes the next
	// one's inputs, bias slot included, into the scratch arena it is
	// not reading (s.next first, whatever in is), so in stays intact.
	cur, curMax := in.xs[lo*in.stride:hi*in.stride], in.maxAbs[lo:hi]
	dst, dstMax := s.next, s.nextMaxAbs
	spare, spareMax := s.act, s.maxAbs
	for l, w := range fn.weights {
		fanIn := fn.layers[l]
		fanOut := fn.layers[l+1]
		t := fn.fixedActAt(l)
		stride := fanIn + 1
		nextStride := fanOut + 1
		clear(dstMax)
		s.bt = fxp.Batch{Xs: cur, Stride: stride, Lanes: lanes, MaxAbs: curMax}
		for r := 0; r < fanOut; r++ {
			row := w[r*stride : (r+1)*stride]
			s.bt.WAbs = fn.rowAbs[l][r]
			if l == 0 && in.sums != nil {
				s.bt.Sums = in.sums[r*in.n+lo : r*in.n+hi]
			}
			u.DotRowBatch(f, row, &s.bt, s.rowOut)
			for j := 0; j < k; j++ {
				v, ok := t.lookup(s.rowOut[j])
				if !ok {
					v = t.apply(v)
				}
				dst[j*nextStride+r] = v
				if av := int64(v); av > dstMax[j] {
					dstMax[j] = av
				} else if -av > dstMax[j] {
					dstMax[j] = -av
				}
			}
		}
		s.bt.Sums = nil
		for j := 0; j < k; j++ {
			dst[j*nextStride+fanOut] = one // bias input
			if dstMax[j] < int64(one) {
				dstMax[j] = int64(one)
			}
		}
		cur, curMax = dst, dstMax
		dst, dstMax, spare, spareMax = spare, spareMax, dst, dstMax
	}

	numOut := fn.NumOutputs()
	if cap(out) < k*numOut {
		out = make([]float64, k*numOut)
	}
	out = out[:k*numOut]
	outStride := numOut + 1
	for j := 0; j < k; j++ {
		for o := 0; o < numOut; o++ {
			out[j*numOut+o] = float64(cur[j*outStride+o]) * inv
		}
	}
	return out
}
