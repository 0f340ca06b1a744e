package stats

import (
	"math"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(0.05) // bin 0
	h.Add(0.95) // bin 9
	h.Add(0.55) // bin 5
	h.Add(0.55) // bin 5
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-3)  // clamps into bin 0
	h.Add(1.0) // exactly hi clamps into last bin
	h.Add(42)  // clamps into last bin
	if h.Counts[0] != 1 {
		t.Errorf("low clamp: counts = %v", h.Counts)
	}
	if h.Counts[3] != 2 {
		t.Errorf("high clamp: counts = %v", h.Counts)
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(math.NaN())
	if h.Total() != 0 {
		t.Errorf("NaN must not be recorded, total = %d", h.Total())
	}
}

func TestHistogramDensity(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if d := h.Density(); d[0] != 0 || d[1] != 0 {
		t.Errorf("empty density = %v", d)
	}
	for _, x := range []float64{0.1, 0.2, 0.8, 0.9} {
		h.Add(x)
	}
	d := h.Density()
	if !almostEqual(d[0], 0.5, 1e-12) || !almostEqual(d[1], 0.5, 1e-12) {
		t.Errorf("density = %v", d)
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("density sums to %v", sum)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v", got)
	}
	if got := h.BinCenter(4); !almostEqual(got, 9, 1e-12) {
		t.Errorf("BinCenter(4) = %v", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bins", func() { NewHistogram(0, 1, 0) })
	mustPanic("inverted range", func() { NewHistogram(1, 0, 4) })
	mustPanic("NaN bound", func() { NewHistogram(math.NaN(), 1, 4) })
}
