package fann

import (
	"errors"
	"fmt"
	"math"
)

// TrainSample is one supervised example.
type TrainSample struct {
	Input  []float64
	Target []float64
}

// Dataset validation errors.
var (
	ErrNoSamples = errors.New("fann: empty training set")
)

// checkSamples validates sample shapes against the network.
func (n *Network) checkSamples(samples []TrainSample) error {
	if len(samples) == 0 {
		return ErrNoSamples
	}
	for i, s := range samples {
		if len(s.Input) != n.NumInputs() {
			return fmt.Errorf("fann: sample %d input length %d, want %d", i, len(s.Input), n.NumInputs())
		}
		if len(s.Target) != n.NumOutputs() {
			return fmt.Errorf("fann: sample %d target length %d, want %d", i, len(s.Target), n.NumOutputs())
		}
	}
	return nil
}

// TrainIncremental runs one epoch of per-sample gradient descent
// (FANN_TRAIN_INCREMENTAL) with the given learning rate and returns the
// epoch mean squared error.
func (n *Network) TrainIncremental(samples []TrainSample, learningRate float64) (float64, error) {
	if err := n.checkSamples(samples); err != nil {
		return 0, err
	}
	if learningRate <= 0 {
		return 0, fmt.Errorf("fann: learning rate %v must be positive", learningRate)
	}
	pass := newGradPass(n)
	totalSq := 0.0
	for k := range samples {
		totalSq += pass.run(samples[k : k+1])
		for l := range n.weights {
			w := n.weights[l]
			g := pass.grad[l]
			for i := range w {
				w[i] -= learningRate * g[i]
			}
		}
	}
	return totalSq / float64(len(samples)*n.NumOutputs()), nil
}

// RPROPTrainer implements iRPROP− (FANN_TRAIN_RPROP, FANN's default
// training algorithm), the batch method the paper's HMDs are trained
// with. Per-weight step sizes adapt by the sign of successive
// gradients; weight updates ignore the gradient magnitude, which makes
// the method robust to the saturated-sigmoid plateaus common in
// frequency-feature HMD training.
type RPROPTrainer struct {
	// EtaPlus/EtaMinus grow/shrink the per-weight step (defaults 1.2, 0.5).
	EtaPlus, EtaMinus float64
	// DeltaMin/DeltaMax bound the step (defaults 1e-6, 50).
	DeltaMin, DeltaMax float64
	// DeltaZero is the initial step (default 0.1).
	DeltaZero float64

	net      *Network
	pass     *gradPass
	steps    [][]float64
	prevGrad [][]float64
}

// NewRPROPTrainer creates a trainer bound to net with FANN's default
// hyper-parameters.
func NewRPROPTrainer(net *Network) *RPROPTrainer {
	t := &RPROPTrainer{
		EtaPlus:   1.2,
		EtaMinus:  0.5,
		DeltaMin:  1e-6,
		DeltaMax:  50,
		DeltaZero: 0.1,
		net:       net,
		pass:      newGradPass(net),
		steps:     net.newGradBuffer(),
		prevGrad:  net.newGradBuffer(),
	}
	for l := range t.steps {
		for i := range t.steps[l] {
			t.steps[l][i] = t.DeltaZero
		}
	}
	return t
}

// Epoch runs one batch epoch over samples and returns the mean squared
// error measured before the weight update.
func (t *RPROPTrainer) Epoch(samples []TrainSample) (float64, error) {
	n := t.net
	if err := n.checkSamples(samples); err != nil {
		return 0, err
	}
	totalSq := t.pass.run(samples)

	for l := range n.weights {
		w := n.weights[l]
		g := t.pass.grad[l]
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
	return totalSq / float64(len(samples)*n.NumOutputs()), nil
}

// TrainOptions configures Train.
type TrainOptions struct {
	// MaxEpochs bounds the training run (default 200).
	MaxEpochs int
	// TargetMSE stops training early when reached (default 0: never).
	TargetMSE float64
	// MinImprovement and Patience implement early stopping: training
	// stops when MSE has not improved by MinImprovement for Patience
	// consecutive epochs. Patience 0 disables the check.
	MinImprovement float64
	Patience       int
}

// Train fits the network on samples with iRPROP− and returns the final
// mean squared error and the number of epochs run.
func (n *Network) Train(samples []TrainSample, opts TrainOptions) (mse float64, epochs int, err error) {
	if opts.MaxEpochs <= 0 {
		opts.MaxEpochs = 200
	}
	trainer := NewRPROPTrainer(n)
	best := math.Inf(1)
	stale := 0
	for epochs = 1; epochs <= opts.MaxEpochs; epochs++ {
		mse, err = trainer.Epoch(samples)
		if err != nil {
			return 0, epochs, err
		}
		if opts.TargetMSE > 0 && mse <= opts.TargetMSE {
			return mse, epochs, nil
		}
		if opts.Patience > 0 {
			if best-mse > opts.MinImprovement {
				best = mse
				stale = 0
			} else {
				stale++
				if stale >= opts.Patience {
					return mse, epochs, nil
				}
			}
		}
	}
	return mse, opts.MaxEpochs, nil
}

// MSE computes the mean squared error of the network on samples
// without updating weights.
func (n *Network) MSE(samples []TrainSample) (float64, error) {
	if err := n.checkSamples(samples); err != nil {
		return 0, err
	}
	total := 0.0
	for _, s := range samples {
		out := n.Run(s.Input)
		for j := range out {
			d := out[j] - s.Target[j]
			total += d * d
		}
	}
	return total / float64(len(samples)*n.NumOutputs()), nil
}
