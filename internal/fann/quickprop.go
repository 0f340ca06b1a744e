package fann

import "math"

// QuickpropTrainer implements Fahlman's Quickprop (FANN_TRAIN_QUICKPROP),
// the second batch algorithm FANN ships alongside iRPROP−. Each weight
// is updated by a local quadratic (secant) approximation of the error
// surface:
//
//	Δw = Δw_prev · g / (g_prev − g)
//
// clamped by the growth factor Mu, with a plain gradient-descent term
// when no previous step exists. It is provided for completeness of the
// FANN substrate and for training experiments; the HMDs default to
// iRPROP−, which FANN also defaults to.
type QuickpropTrainer struct {
	// LearningRate scales the plain gradient term (default 0.7,
	// FANN's quickprop factor).
	LearningRate float64
	// Mu is the maximum growth factor of a step (default 1.75).
	Mu float64
	// Decay is a small weight-shrink term stabilizing the quadratic
	// estimate (default 1e-4, FANN's quickprop decay is -0.0001).
	Decay float64

	net      *Network
	pass     *gradPass
	prevStep [][]float64
	prevGrad [][]float64
}

// NewQuickpropTrainer creates a trainer bound to net with FANN's
// default hyper-parameters.
func NewQuickpropTrainer(net *Network) *QuickpropTrainer {
	return &QuickpropTrainer{
		LearningRate: 0.7,
		Mu:           1.75,
		Decay:        1e-4,
		net:          net,
		pass:         newGradPass(net),
		prevStep:     net.newGradBuffer(),
		prevGrad:     net.newGradBuffer(),
	}
}

// Epoch runs one batch epoch over samples and returns the mean squared
// error measured before the update.
func (t *QuickpropTrainer) Epoch(samples []TrainSample) (float64, error) {
	n := t.net
	if err := n.checkSamples(samples); err != nil {
		return 0, err
	}
	totalSq := t.pass.run(samples)

	shrink := t.Mu / (1 + t.Mu)
	for l := range n.weights {
		w := n.weights[l]
		g := t.pass.grad[l]
		prevSlopes := t.prevGrad[l] // stores previous slopes (−gradient)
		ps := t.prevStep[l]
		for i := range w {
			// Slope is the downhill direction; weight decay keeps the
			// quadratic model bounded.
			slope := -(g[i] + t.Decay*w[i])
			prevSlope := prevSlopes[i]

			step := 0.0
			switch {
			case ps[i] > 1e-12: // previous step moved up
				if slope > 0 {
					step += t.LearningRate * slope
				}
				if slope > shrink*prevSlope {
					step += t.Mu * ps[i] // quadratic would overshoot: cap growth
				} else {
					step += ps[i] * slope / (prevSlope - slope)
				}
			case ps[i] < -1e-12: // previous step moved down
				if slope < 0 {
					step += t.LearningRate * slope
				}
				if slope < shrink*prevSlope {
					step += t.Mu * ps[i]
				} else {
					step += ps[i] * slope / (prevSlope - slope)
				}
			default:
				// No usable history: plain gradient descent.
				step = t.LearningRate * slope
			}

			// Clamp pathological secant steps.
			if math.IsNaN(step) || math.IsInf(step, 0) {
				step = t.LearningRate * slope
			}
			if step > 1000 {
				step = 1000
			}
			if step < -1000 {
				step = -1000
			}

			w[i] += step
			ps[i] = step
			prevSlopes[i] = slope
		}
	}
	return totalSq / float64(len(samples)*n.NumOutputs()), nil
}

// TrainQuickprop fits the network on samples with Quickprop under the
// same stopping rules as Train.
func (n *Network) TrainQuickprop(samples []TrainSample, opts TrainOptions) (mse float64, epochs int, err error) {
	if opts.MaxEpochs <= 0 {
		opts.MaxEpochs = 200
	}
	trainer := NewQuickpropTrainer(n)
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
