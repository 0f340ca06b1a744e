// Package mlkit provides the classical ML algorithms the paper's
// attacker uses for reverse-engineering — logistic regression (chosen
// for its simplicity) and a CART decision tree (chosen for its
// non-differentiability) — behind a shared Classifier interface also
// implemented by the MLP proxy. (Section VII-A: "we perform reverse
// engineering using Multi-Layer Perceptron (MLP) neural network,
// Logistic Regression (LR), and Decision Tree (DT)".)
package mlkit

import (
	"errors"
	"fmt"
)

// Sample is one labelled feature vector; Label true means malware.
type Sample struct {
	Features []float64
	Label    bool
}

// Classifier scores feature vectors. Score is a malware probability in
// [0, 1]; Predict applies the 0.5 threshold.
type Classifier interface {
	Score(features []float64) float64
	Predict(features []float64) bool
}

// Common training errors.
var (
	ErrNoTrainingData = errors.New("mlkit: empty training set")
	ErrOneClass       = errors.New("mlkit: training set contains a single class")
)

// checkSamples validates a training set and returns its feature
// dimensionality.
func checkSamples(samples []Sample) (dim int, err error) {
	if len(samples) == 0 {
		return 0, ErrNoTrainingData
	}
	dim = len(samples[0].Features)
	if dim == 0 {
		return 0, fmt.Errorf("mlkit: zero-dimensional features")
	}
	pos, neg := false, false
	for i, s := range samples {
		if len(s.Features) != dim {
			return 0, fmt.Errorf("mlkit: sample %d has %d features, want %d", i, len(s.Features), dim)
		}
		if s.Label {
			pos = true
		} else {
			neg = true
		}
	}
	if !pos || !neg {
		return 0, ErrOneClass
	}
	return dim, nil
}
