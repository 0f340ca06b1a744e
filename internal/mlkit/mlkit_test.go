package mlkit

import (
	"errors"
	"math"
	"testing"

	"shmd/internal/rng"
)

// blobSamples generates two Gaussian blobs, label true centered at
// +sep/2 and false at -sep/2 on every coordinate.
func blobSamples(n, dim int, sep float64, seed uint64) []Sample {
	r := rng.NewRand(seed)
	out := make([]Sample, n)
	for i := range out {
		label := i%2 == 0
		center := -sep / 2
		if label {
			center = sep / 2
		}
		f := make([]float64, dim)
		for j := range f {
			f[j] = center + r.NormFloat64()
		}
		out[i] = Sample{Features: f, Label: label}
	}
	return out
}

func TestCheckSamples(t *testing.T) {
	if _, err := checkSamples(nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty err = %v", err)
	}
	oneClass := []Sample{
		{Features: []float64{1}, Label: true},
		{Features: []float64{2}, Label: true},
	}
	if _, err := checkSamples(oneClass); !errors.Is(err, ErrOneClass) {
		t.Errorf("one-class err = %v", err)
	}
	ragged := []Sample{
		{Features: []float64{1, 2}, Label: true},
		{Features: []float64{1}, Label: false},
	}
	if _, err := checkSamples(ragged); err == nil {
		t.Error("ragged features must be rejected")
	}
	zeroDim := []Sample{
		{Features: nil, Label: true},
		{Features: nil, Label: false},
	}
	if _, err := checkSamples(zeroDim); err == nil {
		t.Error("zero-dim features must be rejected")
	}
}

func TestLogisticSeparatesBlobs(t *testing.T) {
	train := blobSamples(400, 4, 3.0, 1)
	test := blobSamples(400, 4, 3.0, 2)
	m, err := TrainLogistic(train, LogisticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.95 {
		t.Errorf("logistic accuracy = %v, want >= 0.95", acc)
	}
}

func TestLogisticScoreRange(t *testing.T) {
	train := blobSamples(100, 3, 2.0, 3)
	m, err := TrainLogistic(train, LogisticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewRand(4)
	for i := 0; i < 100; i++ {
		f := []float64{r.NormFloat64() * 5, r.NormFloat64() * 5, r.NormFloat64() * 5}
		s := m.Score(f)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v outside [0,1]", s)
		}
		if (s >= 0.5) != m.Predict(f) {
			t.Fatal("Predict inconsistent with Score")
		}
	}
}

func TestLogisticValidation(t *testing.T) {
	train := blobSamples(50, 2, 2.0, 5)
	if _, err := TrainLogistic(train, LogisticOptions{LearningRate: -1}); err == nil {
		t.Error("negative learning rate must be rejected")
	}
	if _, err := TrainLogistic(train, LogisticOptions{L2: -1}); err == nil {
		t.Error("negative L2 must be rejected")
	}
	if _, err := TrainLogistic(nil, LogisticOptions{}); !errors.Is(err, ErrNoTrainingData) {
		t.Error("empty training set must be rejected")
	}
}

func TestLogisticPanicsOnDimMismatch(t *testing.T) {
	m := &LogisticRegression{Weights: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Score([]float64{1})
}

func TestTreeSeparatesBlobs(t *testing.T) {
	train := blobSamples(400, 4, 3.0, 6)
	test := blobSamples(400, 4, 3.0, 7)
	m, err := TrainTree(train, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.9 {
		t.Errorf("tree accuracy = %v, want >= 0.9", acc)
	}
}

func TestTreeLearnsNonlinearBoundary(t *testing.T) {
	// XOR-style checkerboard: linearly inseparable, tree-friendly.
	r := rng.NewRand(8)
	make2 := func(n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x, y := r.Float64()*2-1, r.Float64()*2-1
			out[i] = Sample{Features: []float64{x, y}, Label: (x > 0) != (y > 0)}
		}
		return out
	}
	train, test := make2(600), make2(300)
	tree, err := TrainTree(train, TreeOptions{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, test); acc < 0.9 {
		t.Errorf("tree XOR accuracy = %v", acc)
	}
	// Logistic regression cannot do better than chance-ish here —
	// the contrast motivating the paper's model diversity.
	lr, err := TrainLogistic(train, LogisticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(lr, test); acc > 0.7 {
		t.Errorf("logistic XOR accuracy = %v, unexpectedly high", acc)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	train := blobSamples(500, 3, 1.0, 9)
	for _, depth := range []int{1, 2, 4} {
		tree, err := TrainTree(train, TreeOptions{MaxDepth: depth, MinLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Depth(); got > depth {
			t.Errorf("MaxDepth %d produced depth %d", depth, got)
		}
	}
}

// leaves counts the leaf nodes under n.
func leaves(n *treeNode) int {
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	// Perfectly separable on one feature: the tree needs depth 1.
	var train []Sample
	for i := 0; i < 40; i++ {
		v := float64(i)
		train = append(train, Sample{Features: []float64{v}, Label: v >= 20})
	}
	tree, err := TrainTree(train, TreeOptions{MaxDepth: 8, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 1 {
		t.Errorf("separable data grew depth %d, want 1", tree.Depth())
	}
	if n := leaves(tree.root); n != 2 {
		t.Errorf("leaves = %d, want 2", n)
	}
	if tree.Predict([]float64{5}) || !tree.Predict([]float64{35}) {
		t.Error("tree predictions wrong on separable data")
	}
}

func TestTreeScoreIsLeafFraction(t *testing.T) {
	// With MaxDepth 0 forced to 1 via defaults... use MinLeaf large
	// enough that the root stays a leaf: score = global malware rate.
	train := []Sample{
		{Features: []float64{0}, Label: true},
		{Features: []float64{1}, Label: false},
		{Features: []float64{2}, Label: false},
		{Features: []float64{3}, Label: false},
	}
	tree, err := TrainTree(train, TreeOptions{MaxDepth: 5, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Score([]float64{99}); got != 0.25 {
		t.Errorf("root-leaf score = %v, want 0.25", got)
	}
}

func TestTreePanicsOnDimMismatch(t *testing.T) {
	train := blobSamples(50, 2, 2.0, 10)
	tree, err := TrainTree(train, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tree.Score([]float64{1, 2, 3})
}

// accuracy is the fraction of samples c labels correctly.
func accuracy(c Classifier, samples []Sample) float64 {
	correct := 0
	for _, s := range samples {
		if c.Predict(s.Features) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
