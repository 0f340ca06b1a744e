package mlkit

import (
	"fmt"
	"sort"
)

// DecisionTree is a CART-style binary classification tree with Gini
// splitting. The paper picks a decision tree as one of the
// reverse-engineering models precisely because it is
// non-differentiable — gradient-based evasion guidance does not apply,
// which is why DT-crafted evasive malware transfers worst even against
// the undefended baseline (Fig 4).
type DecisionTree struct {
	root *treeNode
	dim  int
}

// treeNode is either an internal split (left if x[feature] <= threshold)
// or a leaf carrying the malware fraction of its training samples.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode

	leaf  bool
	score float64
}

// TreeOptions configures TrainTree.
type TreeOptions struct {
	// MaxDepth bounds the tree height (default 10).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 5).
	MinLeaf int
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.MaxDepth == 0 {
		o.MaxDepth = 10
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 5
	}
	return o
}

// TrainTree grows a CART tree on samples.
func TrainTree(samples []Sample, opts TreeOptions) (*DecisionTree, error) {
	dim, err := checkSamples(samples)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.MaxDepth < 1 || opts.MinLeaf < 1 {
		return nil, fmt.Errorf("mlkit: invalid tree options %+v", opts)
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := &DecisionTree{dim: dim}
	t.root = t.grow(samples, idx, opts, 0)
	return t, nil
}

// malwareFraction returns the positive-label fraction of the indexed
// samples.
func malwareFraction(samples []Sample, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	pos := 0
	for _, i := range idx {
		if samples[i].Label {
			pos++
		}
	}
	return float64(pos) / float64(len(idx))
}

// gini computes the Gini impurity of a malware fraction.
func gini(p float64) float64 { return 2 * p * (1 - p) }

// grow recursively builds the tree over the indexed samples.
func (t *DecisionTree) grow(samples []Sample, idx []int, opts TreeOptions, depth int) *treeNode {
	frac := malwareFraction(samples, idx)
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf || frac == 0 || frac == 1 {
		return &treeNode{leaf: true, score: frac}
	}

	bestFeature, bestThreshold, bestImpurity := -1, 0.0, gini(frac)
	n := float64(len(idx))
	values := make([]float64, 0, len(idx))
	for feature := 0; feature < t.dim; feature++ {
		// Sort sample indices by this feature to scan thresholds.
		order := append([]int(nil), idx...)
		sort.Slice(order, func(a, b int) bool {
			return samples[order[a]].Features[feature] < samples[order[b]].Features[feature]
		})
		values = values[:0]
		for _, i := range order {
			values = append(values, samples[i].Features[feature])
		}
		leftPos := 0
		totalPos := 0
		for _, i := range order {
			if samples[i].Label {
				totalPos++
			}
		}
		for k := 0; k < len(order)-1; k++ {
			if samples[order[k]].Label {
				leftPos++
			}
			if values[k] == values[k+1] {
				continue // no threshold separates equal values
			}
			nLeft := float64(k + 1)
			nRight := n - nLeft
			if int(nLeft) < opts.MinLeaf || int(nRight) < opts.MinLeaf {
				continue
			}
			pLeft := float64(leftPos) / nLeft
			pRight := float64(totalPos-leftPos) / nRight
			impurity := (nLeft*gini(pLeft) + nRight*gini(pRight)) / n
			if impurity < bestImpurity-1e-12 {
				bestImpurity = impurity
				bestFeature = feature
				bestThreshold = (values[k] + values[k+1]) / 2
			}
		}
	}

	if bestFeature < 0 {
		return &treeNode{leaf: true, score: frac}
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if samples[i].Features[bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      t.grow(samples, leftIdx, opts, depth+1),
		right:     t.grow(samples, rightIdx, opts, depth+1),
	}
}

// Score returns the malware fraction of the leaf the features land in.
func (t *DecisionTree) Score(features []float64) float64 {
	if len(features) != t.dim {
		panic(fmt.Sprintf("mlkit: tree got %d features, model has %d", len(features), t.dim))
	}
	node := t.root
	for !node.leaf {
		if features[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.score
}

// Predict applies the 0.5 decision threshold.
func (t *DecisionTree) Predict(features []float64) bool {
	return t.Score(features) >= 0.5
}

// Depth returns the height of the tree (a leaf-only tree has depth 0).
func (t *DecisionTree) Depth() int { return t.root.depth() }

func (n *treeNode) depth() int {
	if n.leaf {
		return 0
	}
	l, r := n.left.depth(), n.right.depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

var _ Classifier = (*DecisionTree)(nil)
