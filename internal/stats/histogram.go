package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binning of float64 samples over [Lo, Hi).
// Samples outside the range are clamped into the first/last bin so that
// confidence scores that saturate at exactly 1.0 still register.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins < 1 or hi <= lo, which are programming errors.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("stats: histogram needs >=1 bin, got %d", bins))
	}
	if hi <= lo || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("stats: invalid histogram range [%v,%v)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	idx := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int { return h.total }

// Density returns the fraction of samples in each bin. An empty
// histogram yields all-zero densities.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
