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
// Per lane the computation is bit-identical to Run: the same quantize
// → MAC → activation pipeline with the same rounding and saturation at
// every step. The differences are layout, hoisted constants (the 2^F
// scale factor is precomputed; multiplying by the exact power-of-two
// reciprocal is the same IEEE operation as dividing by the scale), and
// the activation, which is looked up in its exact fixed-point form
// (fixedact.go) rather than recomputed through float64.

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
// Run(unit, inputs[j]) with the unit in the same stream state: the MAC
// is the same, and activations go through their exact fixed-point
// form (fixedAct) instead of Run's float expression. The scratch
// arenas are reused, so a FixedNetwork is not safe for concurrent runs
// (Clone per goroutine, as with Run).
func (fn *FixedNetwork) RunBatch(u fxp.BatchUnit, inputs [][]float64, lanes []int, out []float64) []float64 {
	k := len(inputs)
	if k == 0 {
		return out[:0]
	}
	if lanes != nil && len(lanes) != k {
		panic(fmt.Sprintf("fann: %d lane ids for %d inputs", len(lanes), k))
	}
	f := fn.format
	scale := float64(int64(1) << f.FracBits)
	inv := 1 / scale
	one := f.One()

	maxWidth := len(fn.actA) - 1
	fn.batch.grow(k, maxWidth)
	s := &fn.batch

	// Quantize every lane's input into the lane-major arena, tracking
	// the per-lane magnitude bound the fast-path MAC kernels need.
	stride := fn.layers[0] + 1
	for j, input := range inputs {
		if len(input) != fn.layers[0] {
			panic(fmt.Sprintf("fann: lane %d input length %d, network expects %d", j, len(input), fn.layers[0]))
		}
		base := j * stride
		var m int64
		for i, x := range input {
			v := quantizeBatch(x, scale)
			s.act[base+i] = v
			if a := int64(v); a > m {
				m = a
			} else if -a > m {
				m = -a
			}
		}
		s.maxAbs[j] = m
	}

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

	act, next := s.act, s.next
	maxAbs, nextMax := s.maxAbs, s.nextMaxAbs
	for l, w := range fn.weights {
		fanIn := fn.layers[l]
		fanOut := fn.layers[l+1]
		t := fn.fixedActAt(l)
		stride = fanIn + 1
		for j := 0; j < k; j++ {
			act[j*stride+fanIn] = one // bias input
			if maxAbs[j] < int64(one) {
				maxAbs[j] = int64(one)
			}
			nextMax[j] = 0
		}
		s.bt = fxp.Batch{Xs: act, Stride: stride, Lanes: lanes, MaxAbs: maxAbs}
		nextStride := fanOut + 1
		for r := 0; r < fanOut; r++ {
			row := w[r*stride : (r+1)*stride]
			s.bt.WAbs = fn.rowAbs[l][r]
			u.DotRowBatch(f, row, &s.bt, s.rowOut)
			for j := 0; j < k; j++ {
				v, ok := t.lookup(s.rowOut[j])
				if !ok {
					v = t.apply(v)
				}
				next[j*nextStride+r] = v
				if av := int64(v); av > nextMax[j] {
					nextMax[j] = av
				} else if -av > nextMax[j] {
					nextMax[j] = -av
				}
			}
		}
		act, next = next, act
		maxAbs, nextMax = nextMax, maxAbs
	}

	numOut := fn.NumOutputs()
	if cap(out) < k*numOut {
		out = make([]float64, k*numOut)
	}
	out = out[:k*numOut]
	outStride := numOut + 1
	for j := 0; j < k; j++ {
		for o := 0; o < numOut; o++ {
			out[j*numOut+o] = float64(act[j*outStride+o]) * inv
		}
	}
	return out
}
