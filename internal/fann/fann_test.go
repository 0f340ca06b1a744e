package fann

import (
	"math"
	"testing"

	"shmd/internal/rng"
)

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Layers: []int{4}}); err == nil {
		t.Error("single layer must be rejected")
	}
	if _, err := New(Config{Layers: []int{4, 0, 1}}); err == nil {
		t.Error("zero-width layer must be rejected")
	}
	if _, err := New(Config{Layers: []int{4, 1}, Hidden: Activation(99)}); err == nil {
		t.Error("unknown activation must be rejected")
	}
}

func TestNewDeterministicPerSeed(t *testing.T) {
	cfg := Config{Layers: []int{3, 4, 2}, Hidden: Sigmoid, Output: Sigmoid, Seed: 7}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	in := []float64{0.1, -0.2, 0.3}
	outA, outB := a.Run(in), b.Run(in)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatal("same seed must give identical networks")
		}
	}
	cfg.Seed = 8
	c := mustNew(t, cfg)
	outC := c.Run(in)
	if outA[0] == outC[0] && outA[1] == outC[1] {
		t.Error("different seeds should give different networks")
	}
}

func TestDimensions(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{5, 7, 3}, Hidden: Sigmoid, Output: Sigmoid})
	if n.NumInputs() != 5 || n.NumOutputs() != 3 {
		t.Errorf("dims = %d/%d", n.NumInputs(), n.NumOutputs())
	}
	want := 7*(5+1) + 3*(7+1)
	if n.NumWeights() != want {
		t.Errorf("NumWeights = %d, want %d", n.NumWeights(), want)
	}
	layers := n.Layers()
	layers[0] = 99
	if n.NumInputs() != 5 {
		t.Error("Layers must return a copy")
	}
}

func TestRunPanicsOnBadInput(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{3, 2}, Hidden: Sigmoid, Output: Sigmoid})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input length")
		}
	}()
	n.Run([]float64{1, 2})
}

func TestLinearNetworkComputesAffineMap(t *testing.T) {
	// A 2->1 linear network is an affine function; set the weights by
	// training on an exactly realizable target and verify convergence
	// to near-zero error, which pins both forward pass and gradients.
	n := mustNew(t, Config{Layers: []int{2, 1}, Hidden: Linear, Output: Linear, Seed: 1})
	samples := []TrainSample{
		{Input: []float64{0, 0}, Target: []float64{1}},
		{Input: []float64{1, 0}, Target: []float64{3}},
		{Input: []float64{0, 1}, Target: []float64{0}},
		{Input: []float64{1, 1}, Target: []float64{2}},
	}
	mse, _, err := n.Train(samples, TrainOptions{MaxEpochs: 500, TargetMSE: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 1e-8 {
		t.Fatalf("affine fit MSE = %v", mse)
	}
	// f(x, y) = 1 + 2x - y
	if got := n.Run([]float64{2, 1})[0]; math.Abs(got-4) > 1e-3 {
		t.Errorf("f(2,1) = %v, want 4", got)
	}
}

func TestXORConvergesWithRPROP(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{2, 8, 1}, Hidden: SigmoidSymmetric, Output: Sigmoid, Seed: 1})
	samples := []TrainSample{
		{Input: []float64{0, 0}, Target: []float64{0}},
		{Input: []float64{0, 1}, Target: []float64{1}},
		{Input: []float64{1, 0}, Target: []float64{1}},
		{Input: []float64{1, 1}, Target: []float64{0}},
	}
	mse, epochs, err := n.Train(samples, TrainOptions{MaxEpochs: 2000, TargetMSE: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.01 {
		t.Fatalf("XOR failed to converge: MSE %v after %d epochs", mse, epochs)
	}
	for _, s := range samples {
		out := n.Run(s.Input)[0]
		if math.Abs(out-s.Target[0]) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", s.Input, out, s.Target[0])
		}
	}
}

func TestTrainValidation(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{2, 1}, Hidden: Sigmoid, Output: Sigmoid})
	opts := TrainOptions{MaxEpochs: 1}
	if _, _, err := n.Train(nil, opts); err != ErrNoSamples {
		t.Errorf("empty set err = %v", err)
	}
	if _, _, err := n.Train([]TrainSample{{Input: []float64{1}, Target: []float64{0}}}, opts); err == nil {
		t.Error("bad input shape must error")
	}
	if _, _, err := n.Train([]TrainSample{{Input: []float64{1, 2}, Target: []float64{0, 1}}}, opts); err == nil {
		t.Error("bad target shape must error")
	}
}

func TestEarlyStopping(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{2, 2, 1}, Hidden: Sigmoid, Output: Sigmoid, Seed: 9})
	samples := []TrainSample{
		{Input: []float64{0, 0}, Target: []float64{0.5}},
	}
	_, epochs, err := n.Train(samples, TrainOptions{
		MaxEpochs:      5000,
		MinImprovement: 1e-9,
		Patience:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs >= 5000 {
		t.Errorf("early stopping never fired (epochs=%d)", epochs)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{2, 3, 1}, Hidden: Sigmoid, Output: Sigmoid, Seed: 2})
	c := n.Clone()
	in := []float64{0.3, 0.7}
	if n.Run(in)[0] != c.Run(in)[0] {
		t.Fatal("clone must compute the same function")
	}
	// Train the clone; the original must not move.
	before := n.Run(in)[0]
	if _, _, err := c.Train([]TrainSample{{Input: in, Target: []float64{0}}}, TrainOptions{MaxEpochs: 5}); err != nil {
		t.Fatal(err)
	}
	if n.Run(in)[0] != before {
		t.Error("training the clone mutated the original")
	}
}

func TestSigmoidOutputsInRange(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{4, 8, 2}, Hidden: Sigmoid, Output: Sigmoid, Seed: 11})
	r := rng.NewRand(12)
	for i := 0; i < 200; i++ {
		in := []float64{r.NormFloat64() * 10, r.NormFloat64() * 10, r.NormFloat64() * 10, r.NormFloat64() * 10}
		for _, o := range n.Run(in) {
			if o < 0 || o > 1 || math.IsNaN(o) {
				t.Fatalf("sigmoid output %v outside [0,1]", o)
			}
		}
	}
}

func TestActivationString(t *testing.T) {
	for _, a := range []Activation{Sigmoid, SigmoidSymmetric, Linear, ReLU} {
		if a.String() == "" {
			t.Errorf("empty name for activation %d", a)
		}
	}
	if Activation(42).String() != "activation(42)" {
		t.Errorf("unknown activation name = %q", Activation(42).String())
	}
}

func TestActivationRange(t *testing.T) {
	// The sigmoid family saturates at its documented output range;
	// Linear is unbounded.
	for _, c := range []struct {
		a      Activation
		lo, hi float64
	}{{Sigmoid, 0, 1}, {SigmoidSymmetric, -1, 1}} {
		if got := c.a.apply(-50); got < c.lo || got > c.lo+1e-9 {
			t.Errorf("%v(-50) = %v, want just above %v", c.a, got, c.lo)
		}
		if got := c.a.apply(50); got > c.hi || got < c.hi-1e-9 {
			t.Errorf("%v(50) = %v, want just below %v", c.a, got, c.hi)
		}
	}
	if got := Linear.apply(-1e300); got != -1e300 {
		t.Errorf("linear(-1e300) = %v", got)
	}
}

func TestActivationShapes(t *testing.T) {
	// Sanity anchors for each activation.
	if got := Sigmoid.apply(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if got := SigmoidSymmetric.apply(0); got != 0 {
		t.Errorf("symmetric(0) = %v", got)
	}
	if got := ReLU.apply(-2); got != 0 {
		t.Errorf("relu(-2) = %v", got)
	}
	if got := ReLU.apply(3); got != 3 {
		t.Errorf("relu(3) = %v", got)
	}
	if got := Linear.apply(-1.5); got != -1.5 {
		t.Errorf("linear(-1.5) = %v", got)
	}
	// tanh identity: symmetric sigmoid equals tanh.
	for _, x := range []float64{-2, -0.5, 0.5, 2} {
		if math.Abs(SigmoidSymmetric.apply(x)-math.Tanh(x)) > 1e-12 {
			t.Errorf("symmetric(%v) != tanh", x)
		}
	}
}

func TestDerivativesMatchNumerical(t *testing.T) {
	const h = 1e-6
	for _, a := range []Activation{Sigmoid, SigmoidSymmetric, Linear} {
		for _, x := range []float64{-1.5, -0.2, 0.4, 2.0} {
			y := a.apply(x)
			numeric := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			analytic := a.derivFromOutput(y)
			if math.Abs(numeric-analytic) > 1e-5 {
				t.Errorf("%v'(%v): numeric %v, analytic %v", a, x, numeric, analytic)
			}
		}
	}
}
