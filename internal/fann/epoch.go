package fann

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// epochChunk is the number of samples whose activations and deltas a
// gradPass holds at once. It bounds the pass's buffers independently of
// the epoch size: a {64,32,1} network keeps 66 floats per sample, about
// 270 KB per chunk.
const epochChunk = 512

// sampleGrain is how many phase-A samples a worker claims at once, so
// neighbouring samples' slots are mostly written by one worker.
const sampleGrain = 16

// gradPass computes the summed squared-error gradient of a sample set,
// the quantity the batch trainers step on. It works through the
// samples a chunk at a time, in two phases per chunk, and keeps every
// floating-point addition in the order of the serial per-sample loop,
// so gradients, squared errors and therefore trained weights are
// bit-identical at any worker count:
//
//   - Phase A runs each sample's forward and backward pass into that
//     sample's slot of the chunk buffers (activations, deltas, squared
//     error). The weights are fixed during a pass, so the samples are
//     independent and are split over the workers.
//   - Phase B accumulates the gradient. Each weight row is owned by one
//     worker, which adds the chunk's samples into it in sample order;
//     the squared errors are summed in sample order.
//
// The worker count is runtime.GOMAXPROCS(0), read once per pass. A
// trainer owns one gradPass and reuses its buffers across epochs, so a
// steady-state pass allocates nothing but the goroutines it starts.
type gradPass struct {
	net *Network
	// grad is the summed gradient of the last pass, shaped like the
	// network's weights.
	grad [][]float64

	// Sample c of the chunk keeps the outputs of weight layer l at
	// acts[c*stride+off[l]:] and their deltas at deltas[c*stride+off[l]:];
	// sqErr[c] is its squared error.
	off                 []int
	stride              int
	acts, deltas, sqErr []float64
	// blocks partitions the weight rows into phase B's work items.
	blocks []rowBlock

	// State of the phase in progress, written before its workers start.
	chunk  []TrainSample
	phaseB bool
	units  int
	grain  int
	// next is the claim counter.
	next atomic.Int64
	wg   sync.WaitGroup
	// helper is one extra worker's body, bound once so that starting a
	// worker allocates no closure.
	helper func()
}

// rowBlock is rows consecutive weight rows of one layer, starting at
// row: 4, or a single row left over at the end of a layer.
type rowBlock struct{ layer, row, rows int }

// newGradPass creates a pass over net's current weight layout. The
// chunk buffers are sized on the first pass.
func newGradPass(net *Network) *gradPass {
	p := &gradPass{net: net, grad: net.newGradBuffer(), off: make([]int, len(net.weights))}
	for l := range net.weights {
		p.off[l] = p.stride
		p.stride += net.layers[l+1]
		for j := 0; j < net.layers[l+1]; {
			k := 4
			if j+k > net.layers[l+1] {
				k = 1
			}
			p.blocks = append(p.blocks, rowBlock{l, j, k})
			j += k
		}
	}
	p.helper = func() {
		p.drain()
		p.wg.Done()
	}
	return p
}

// run zeroes p.grad, accumulates the gradient of every sample into it
// and returns the summed squared error. Samples must have been
// validated against the network.
func (p *gradPass) run(samples []TrainSample) float64 {
	for _, g := range p.grad {
		clear(g)
	}
	if n := min(len(samples), epochChunk); cap(p.sqErr) < n {
		p.acts = make([]float64, n*p.stride)
		p.deltas = make([]float64, n*p.stride)
		p.sqErr = make([]float64, n)
	}
	workers := runtime.GOMAXPROCS(0)
	totalSq := 0.0
	for start := 0; start < len(samples); start += epochChunk {
		p.chunk = samples[start:min(start+epochChunk, len(samples))]
		p.parallel(false, len(p.chunk), sampleGrain, workers)
		for _, sq := range p.sqErr[:len(p.chunk)] {
			totalSq += sq
		}
		p.parallel(true, len(p.blocks), 1, workers)
	}
	p.chunk = nil
	return totalSq
}

// parallel runs one phase over units work items on up to w workers
// (no more than there are grains of work): the caller plus goroutines,
// all claiming grain items at a time from one counter.
func (p *gradPass) parallel(phaseB bool, units, grain, w int) {
	w = min(w, (units+grain-1)/grain)
	p.phaseB, p.units, p.grain = phaseB, units, grain
	p.next.Store(0)
	p.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go p.helper()
	}
	p.drain()
	p.wg.Wait()
}

// drain claims and runs work items of the current phase until none
// are left.
func (p *gradPass) drain() {
	for {
		lo := int(p.next.Add(int64(p.grain))) - p.grain
		if lo >= p.units {
			return
		}
		for k := lo; k < min(lo+p.grain, p.units); k++ {
			if p.phaseB {
				p.accumulateRows(p.blocks[k])
			} else {
				p.forwardBackward(k)
			}
		}
	}
}

// forwardBackward is phase A for chunk sample c: the forward pass, the
// output error and the deltas of every non-input layer.
func (p *gradPass) forwardBackward(c int) {
	n := p.net
	s := p.chunk[c]
	acts := p.acts[c*p.stride : (c+1)*p.stride]
	deltas := p.deltas[c*p.stride : (c+1)*p.stride]

	in := s.Input
	for l, w := range n.weights {
		fanIn := n.layers[l]
		fanOut := n.layers[l+1]
		next := acts[p.off[l] : p.off[l]+fanOut]
		a := n.activationAt(l)
		in = in[:fanIn]
		j := 0
		// Four rows at a time: four independent sums, each in the
		// serial order, keep more multiply-adds in flight.
		for ; j+4 <= fanOut; j += 4 {
			r0 := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			r1 := w[(j+1)*(fanIn+1) : (j+2)*(fanIn+1)]
			r2 := w[(j+2)*(fanIn+1) : (j+3)*(fanIn+1)]
			r3 := w[(j+3)*(fanIn+1) : (j+4)*(fanIn+1)]
			s0, s1, s2, s3 := r0[fanIn], r1[fanIn], r2[fanIn], r3[fanIn]
			r0, r1, r2, r3 = r0[:len(in)], r1[:len(in)], r2[:len(in)], r3[:len(in)]
			for i, x := range in {
				s0 += r0[i] * x
				s1 += r1[i] * x
				s2 += r2[i] * x
				s3 += r3[i] * x
			}
			next[j], next[j+1], next[j+2], next[j+3] = a.apply(s0), a.apply(s1), a.apply(s2), a.apply(s3)
		}
		for ; j < fanOut; j++ {
			row := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			sum := row[fanIn]
			row = row[:len(in)]
			for i, x := range in {
				sum += row[i] * x
			}
			next[j] = a.apply(sum)
		}
		in = next
	}

	last := len(n.weights) - 1
	out := in
	delta := deltas[p.off[last] : p.off[last]+len(out)]
	sqErr := 0.0
	for j := range out {
		err := out[j] - s.Target[j]
		sqErr += err * err
		delta[j] = err * n.output.derivFromOutput(out[j])
	}
	p.sqErr[c] = sqErr

	for l := last; l > 0; l-- {
		fanIn := n.layers[l]
		fanOut := n.layers[l+1]
		w := n.weights[l]
		prev := acts[p.off[l-1] : p.off[l-1]+fanIn]
		prevDelta := deltas[p.off[l-1] : p.off[l-1]+fanIn]
		a := n.activationAt(l - 1)
		for i := 0; i < fanIn; i++ {
			sum := 0.0
			for j := 0; j < fanOut; j++ {
				sum += delta[j] * w[j*(fanIn+1)+i]
			}
			prevDelta[i] = sum * a.derivFromOutput(prev[i])
		}
		delta = prevDelta
	}
}

// accumulateRows is phase B for one block of weight rows: it adds
// every chunk sample's gradient of those rows, in sample order.
func (p *gradPass) accumulateRows(b rowBlock) {
	fanIn := p.net.layers[b.layer]
	g := p.grad[b.layer]
	if b.rows == 1 {
		g := g[b.row*(fanIn+1) : (b.row+1)*(fanIn+1)]
		for c := range p.chunk {
			d := p.deltas[c*p.stride+p.off[b.layer]+b.row]
			prev := p.layerInput(c, b.layer)
			gs := g[:len(prev)]
			for i, x := range prev {
				gs[i] += d * x
			}
			g[fanIn] += d // bias
		}
		return
	}
	// Four rows at a time share each load of the sample's inputs.
	g0 := g[b.row*(fanIn+1) : (b.row+1)*(fanIn+1)]
	g1 := g[(b.row+1)*(fanIn+1) : (b.row+2)*(fanIn+1)]
	g2 := g[(b.row+2)*(fanIn+1) : (b.row+3)*(fanIn+1)]
	g3 := g[(b.row+3)*(fanIn+1) : (b.row+4)*(fanIn+1)]
	for c := range p.chunk {
		d := p.deltas[c*p.stride+p.off[b.layer]+b.row:]
		d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
		prev := p.layerInput(c, b.layer)
		gs0, gs1, gs2, gs3 := g0[:len(prev)], g1[:len(prev)], g2[:len(prev)], g3[:len(prev)]
		for i, x := range prev {
			gs0[i] += d0 * x
			gs1[i] += d1 * x
			gs2[i] += d2 * x
			gs3[i] += d3 * x
		}
		g0[fanIn] += d0 // bias
		g1[fanIn] += d1
		g2[fanIn] += d2
		g3[fanIn] += d3
	}
}

// layerInput returns chunk sample c's input to weight layer l: the
// sample's features for l = 0, else the outputs of layer l-1.
func (p *gradPass) layerInput(c, l int) []float64 {
	fanIn := p.net.layers[l]
	if l == 0 {
		return p.chunk[c].Input[:fanIn]
	}
	base := c*p.stride + p.off[l-1]
	return p.acts[base : base+fanIn]
}
