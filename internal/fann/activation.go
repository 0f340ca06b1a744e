// Package fann is a from-scratch reimplementation of the subset of the
// Fast Artificial Neural Network Library (FANN) that the Stochastic-HMD
// paper relies on: fully-connected multi-layer perceptrons with
// sigmoid-family activations, iRPROP− gradient training,
// serialization, and — crucially — a fixed-point
// execution mode whose every multiplication goes through an fxp.Unit.
// The paper integrated its stochastic fault-injection tool into FANN at
// exactly that point ("we integrated our tool to the Fast Artificial
// Neural Network Library (FANN) to simulate the behavior of our neural
// network model under undervolting").
package fann

import (
	"fmt"
	"math"
)

// Activation selects a neuron activation function.
type Activation int

// Supported activations (the FANN names in comments).
const (
	// Sigmoid is the logistic function with outputs in (0, 1)
	// (FANN_SIGMOID).
	Sigmoid Activation = iota
	// SigmoidSymmetric is the tanh-shaped logistic with outputs in
	// (-1, 1) (FANN_SIGMOID_SYMMETRIC).
	SigmoidSymmetric
	// Linear is the identity (FANN_LINEAR).
	Linear
	// ReLU is the rectifier (FANN_LINEAR_PIECE_RECT).
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case SigmoidSymmetric:
		return "sigmoid-symmetric"
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// valid reports whether a names a supported activation.
func (a Activation) valid() bool {
	return a >= Sigmoid && a <= ReLU
}

// apply evaluates the activation at x.
func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case SigmoidSymmetric:
		return 2/(1+math.Exp(-2*x)) - 1
	case Linear:
		return x
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		panic("fann: unknown activation " + a.String())
	}
}

// derivFromOutput returns the derivative of the activation expressed in
// terms of its output y (the usual backprop shortcut for the sigmoid
// family). For ReLU the output is enough to recover the derivative
// except exactly at 0, where the subgradient 0 is used.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case SigmoidSymmetric:
		return 1 - y*y
	case Linear:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		panic("fann: unknown activation " + a.String())
	}
}
