package fann

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"shmd/internal/rng"
)

// The serial per-sample training loop the two-phase gradPass replaced,
// kept verbatim as the oracle the pass must match bit for bit.

// forwardAll runs a forward pass keeping every layer's activations;
// used by training.
func (n *Network) forwardAll(input []float64) [][]float64 {
	acts := make([][]float64, len(n.layers))
	acts[0] = append([]float64(nil), input...)
	for l, w := range n.weights {
		fanIn := n.layers[l]
		fanOut := n.layers[l+1]
		next := make([]float64, fanOut)
		a := n.activationAt(l)
		for j := 0; j < fanOut; j++ {
			row := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			sum := row[fanIn]
			for i := 0; i < fanIn; i++ {
				sum += row[i] * acts[l][i]
			}
			next[j] = a.apply(sum)
		}
		acts[l+1] = next
	}
	return acts
}

// gradients computes per-weight MSE gradients for one sample and adds
// them into grad (same shape as weights). It returns the sample's
// squared error.
func (n *Network) gradients(input, target []float64, grad [][]float64) float64 {
	if len(target) != n.NumOutputs() {
		panic(fmt.Sprintf("fann: target length %d, network outputs %d", len(target), n.NumOutputs()))
	}
	acts := n.forwardAll(input)
	out := acts[len(acts)-1]

	// Output deltas.
	sqErr := 0.0
	delta := make([]float64, len(out))
	for j := range out {
		err := out[j] - target[j]
		sqErr += err * err
		delta[j] = err * n.output.derivFromOutput(out[j])
	}

	for l := len(n.weights) - 1; l >= 0; l-- {
		fanIn := n.layers[l]
		fanOut := n.layers[l+1]
		w := n.weights[l]
		g := grad[l]
		prev := acts[l]
		// Accumulate gradient for this layer.
		for j := 0; j < fanOut; j++ {
			base := j * (fanIn + 1)
			d := delta[j]
			for i := 0; i < fanIn; i++ {
				g[base+i] += d * prev[i]
			}
			g[base+fanIn] += d // bias
		}
		// Propagate deltas to the previous layer.
		if l > 0 {
			a := n.activationAt(l - 1)
			newDelta := make([]float64, fanIn)
			for i := 0; i < fanIn; i++ {
				sum := 0.0
				for j := 0; j < fanOut; j++ {
					sum += delta[j] * w[j*(fanIn+1)+i]
				}
				newDelta[i] = sum * a.derivFromOutput(prev[i])
			}
			delta = newDelta
		}
	}
	return sqErr
}

// oracleRPROPEpoch is RPROPTrainer.Epoch's serial loop.
func oracleRPROPEpoch(t *RPROPTrainer, samples []TrainSample) float64 {
	n := t.net
	grad := n.newGradBuffer()
	totalSq := 0.0
	for _, s := range samples {
		totalSq += n.gradients(s.Input, s.Target, grad)
	}

	for l := range n.weights {
		w := n.weights[l]
		g := grad[l]
		pg := t.prevGrad[l]
		st := t.steps[l]
		for i := range w {
			sign := g[i] * pg[i]
			switch {
			case sign > 0:
				st[i] = math.Min(st[i]*t.EtaPlus, t.DeltaMax)
				w[i] -= math.Copysign(st[i], g[i])
				pg[i] = g[i]
			case sign < 0:
				st[i] = math.Max(st[i]*t.EtaMinus, t.DeltaMin)
				// iRPROP−: no weight revert, just zero the stored
				// gradient so the next epoch restarts adaptation.
				pg[i] = 0
			default:
				if g[i] != 0 {
					w[i] -= math.Copysign(st[i], g[i])
				}
				pg[i] = g[i]
			}
		}
	}
	return totalSq / float64(len(samples)*n.NumOutputs())
}

// oracleAlgo is one training algorithm under comparison: start binds a
// fresh epoch function to a network, through the production trainer or
// the oracle loop.
type oracleAlgo struct {
	name  string
	start func(n *Network, oracle bool) func([]TrainSample) (float64, error)
}

var oracleAlgos = []oracleAlgo{
	{"rprop", func(n *Network, oracle bool) func([]TrainSample) (float64, error) {
		t := NewRPROPTrainer(n)
		if oracle {
			return func(s []TrainSample) (float64, error) { return oracleRPROPEpoch(t, s), nil }
		}
		return t.Epoch
	}},
}

// oracleSamples returns count deterministic samples for a network with
// in inputs and out outputs, targets inside every activation's range.
func oracleSamples(count, in, out int, seed uint64) []TrainSample {
	r := rng.NewRand(seed, 0x0AC1E)
	samples := make([]TrainSample, count)
	for k := range samples {
		s := TrainSample{Input: make([]float64, in), Target: make([]float64, out)}
		for i := range s.Input {
			s.Input[i] = r.Float64()*2 - 1
		}
		for j := range s.Target {
			s.Target[j] = r.Float64()
		}
		samples[k] = s
	}
	return samples
}

// trajectory is what a training run is compared on: every epoch's MSE
// and the final weights, as bits.
type trajectory struct {
	mse     []uint64
	weights []uint64
}

func trainTrajectory(t *testing.T, cfg Config, algo oracleAlgo, samples []TrainSample, epochs int, oracle bool) trajectory {
	t.Helper()
	n := mustNew(t, cfg)
	epoch := algo.start(n, oracle)
	var tr trajectory
	for e := 0; e < epochs; e++ {
		mse, err := epoch(samples)
		if err != nil {
			t.Fatal(err)
		}
		tr.mse = append(tr.mse, math.Float64bits(mse))
	}
	for _, w := range n.weights {
		for _, v := range w {
			tr.weights = append(tr.weights, math.Float64bits(v))
		}
	}
	return tr
}

// TestEpochMatchesSerialOracle trains iRPROP− through the
// two-phase pass and through the serial loop it replaced, and requires
// bit-identical per-epoch MSE and final weights at 1, 2 and 3 workers
// and at the machine's GOMAXPROCS, for sample counts around the chunk
// boundary, 0/1/2 hidden layers and every activation pairing.
func TestEpochMatchesSerialOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	counts := []int{1, epochChunk - 1, epochChunk, epochChunk + 1, 2*epochChunk + 3}
	acts := []Activation{Sigmoid, SigmoidSymmetric, Linear, ReLU}
	topologies := [][]int{{5, 2}, {5, 4, 2}, {5, 4, 3, 2}}
	const epochs = 3

	var cfgs []Config
	for _, layers := range topologies {
		for _, out := range acts {
			for _, hidden := range acts {
				cfgs = append(cfgs, Config{Layers: layers, Hidden: hidden, Output: out, Seed: uint64(len(cfgs) + 1)})
				if len(layers) == 2 {
					break // no hidden layer: the hidden activation is unused
				}
			}
		}
	}
	for _, algo := range oracleAlgos {
		for _, cfg := range cfgs {
			for _, count := range counts {
				samples := oracleSamples(count, cfg.Layers[0], cfg.Layers[len(cfg.Layers)-1], cfg.Seed)
				want := trainTrajectory(t, cfg, algo, samples, epochs, true)
				for _, p := range procs {
					runtime.GOMAXPROCS(p)
					got := trainTrajectory(t, cfg, algo, samples, epochs, false)
					name := fmt.Sprintf("%s %v %v/%v samples=%d procs=%d", algo.name, cfg.Layers, cfg.Hidden, cfg.Output, count, p)
					for e := range want.mse {
						if got.mse[e] != want.mse[e] {
							t.Fatalf("%s: epoch %d MSE %v, oracle %v", name, e+1,
								math.Float64frombits(got.mse[e]), math.Float64frombits(want.mse[e]))
						}
					}
					for i := range want.weights {
						if got.weights[i] != want.weights[i] {
							t.Fatalf("%s: weight %d = %v, oracle %v", name, i,
								math.Float64frombits(got.weights[i]), math.Float64frombits(want.weights[i]))
						}
					}
				}
			}
		}
	}
}

// TestEpochAllocatesNothing pins the steady state of a trainer: after
// its first epoch sized the chunk buffers, a serial epoch allocates
// nothing (testing.AllocsPerRun runs at GOMAXPROCS 1).
func TestEpochAllocatesNothing(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{8, 6, 1}, Hidden: SigmoidSymmetric, Output: Sigmoid, Seed: 3})
	samples := oracleSamples(2*epochChunk+3, 8, 1, 3)
	rp := NewRPROPTrainer(n)
	if _, err := rp.Epoch(samples); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { rp.Epoch(samples) }); allocs != 0 {
		t.Errorf("rprop epoch allocates %v times, want 0", allocs)
	}
}
