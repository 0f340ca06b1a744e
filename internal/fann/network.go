package fann

import (
	"fmt"
	"math"

	"shmd/internal/rng"
)

// Config describes a fully-connected feed-forward network.
type Config struct {
	// Layers lists the neuron counts from input to output,
	// e.g. {64, 32, 1}. At least two layers are required.
	Layers []int
	// Hidden is the activation of every hidden layer.
	Hidden Activation
	// Output is the activation of the output layer.
	Output Activation
	// Seed drives the deterministic Nguyen-Widrow-style weight
	// initialization; equal seeds yield identical networks.
	Seed uint64
}

// Network is a float64 multi-layer perceptron. Weights are stored per
// layer as a (fan-out × fan-in+1) row-major matrix; the +1 column is
// the bias, matching FANN's bias-neuron convention.
type Network struct {
	layers  []int
	hidden  Activation
	output  Activation
	weights [][]float64
}

// New creates a network with small random initial weights.
func New(cfg Config) (*Network, error) {
	if len(cfg.Layers) < 2 {
		return nil, fmt.Errorf("fann: need at least input and output layers, got %d", len(cfg.Layers))
	}
	for i, n := range cfg.Layers {
		if n < 1 {
			return nil, fmt.Errorf("fann: layer %d has %d neurons", i, n)
		}
	}
	if !cfg.Hidden.valid() || !cfg.Output.valid() {
		return nil, fmt.Errorf("fann: unknown activation")
	}
	n := &Network{
		layers: append([]int(nil), cfg.Layers...),
		hidden: cfg.Hidden,
		output: cfg.Output,
	}
	r := rng.NewRand(cfg.Seed, 0xFA22)
	n.weights = make([][]float64, len(cfg.Layers)-1)
	for l := range n.weights {
		fanIn := cfg.Layers[l]
		fanOut := cfg.Layers[l+1]
		w := make([]float64, fanOut*(fanIn+1))
		// Scaled uniform init: keeps pre-activations in the sigmoid's
		// responsive region regardless of fan-in.
		scale := 1.0 / math.Sqrt(float64(fanIn))
		for i := range w {
			w[i] = (r.Float64()*2 - 1) * scale
		}
		n.weights[l] = w
	}
	return n, nil
}

// Layers returns a copy of the layer sizes.
func (n *Network) Layers() []int { return append([]int(nil), n.layers...) }

// NumInputs returns the input dimensionality.
func (n *Network) NumInputs() int { return n.layers[0] }

// NumOutputs returns the output dimensionality.
func (n *Network) NumOutputs() int { return n.layers[len(n.layers)-1] }

// NumWeights returns the total parameter count including biases.
func (n *Network) NumWeights() int {
	total := 0
	for _, w := range n.weights {
		total += len(w)
	}
	return total
}

// HiddenActivation returns the hidden-layer activation.
func (n *Network) HiddenActivation() Activation { return n.hidden }

// OutputActivation returns the output-layer activation.
func (n *Network) OutputActivation() Activation { return n.output }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{
		layers: append([]int(nil), n.layers...),
		hidden: n.hidden,
		output: n.output,
	}
	c.weights = make([][]float64, len(n.weights))
	for l, w := range n.weights {
		c.weights[l] = append([]float64(nil), w...)
	}
	return c
}

// activationAt returns the activation used after layer l (0-based
// weight-layer index).
func (n *Network) activationAt(l int) Activation {
	if l == len(n.weights)-1 {
		return n.output
	}
	return n.hidden
}

// Run performs a float64 forward pass. The input length must equal
// NumInputs; the returned slice is freshly allocated.
func (n *Network) Run(input []float64) []float64 {
	if len(input) != n.layers[0] {
		panic(fmt.Sprintf("fann: input length %d, network expects %d", len(input), n.layers[0]))
	}
	act := append([]float64(nil), input...)
	for l, w := range n.weights {
		fanIn := n.layers[l]
		fanOut := n.layers[l+1]
		next := make([]float64, fanOut)
		a := n.activationAt(l)
		for j := 0; j < fanOut; j++ {
			row := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			sum := row[fanIn] // bias
			for i := 0; i < fanIn; i++ {
				sum += row[i] * act[i]
			}
			next[j] = a.apply(sum)
		}
		act = next
	}
	return act
}

// newGradBuffer allocates a zeroed gradient accumulator matching the
// weight layout.
func (n *Network) newGradBuffer() [][]float64 {
	g := make([][]float64, len(n.weights))
	for l := range g {
		g[l] = make([]float64, len(n.weights[l]))
	}
	return g
}
