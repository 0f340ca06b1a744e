package fann

import (
	"math"
	"math/rand"
	"testing"

	"shmd/internal/fxp"
)

// actFormats are the formats the activation tables are checked in:
// the deployed format, two smaller ones, and F = 13, where the
// symmetric sigmoid is tabulated and the logistic one is too wide and
// keeps the float expression.
var actFormats = []uint{4, 8, fxp.DefaultFracBits, 13}

// toFloat converts v back to a float64.
func toFloat(f fxp.Format, v fxp.Value) float64 {
	return float64(v) / float64(int64(1)<<f.FracBits)
}

// floatAct is refRun's activation of a fixed-point pre-activation:
// the oracle every fixed-point form is held to.
func floatAct(a Activation, f fxp.Format, v fxp.Value) fxp.Value {
	return f.FromFloat(a.apply(toFloat(f, v)))
}

// TestSigmoidTablesExhaustive checks both sigmoid kinds entry for
// entry: every int32 pre-activation with |x| < 16, then a sample out
// to both int32 ends, against refRun's float expression.
func TestSigmoidTablesExhaustive(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for _, bits := range actFormats {
		f := fxp.Format{FracBits: bits}
		for _, a := range []Activation{Sigmoid, SigmoidSymmetric} {
			tab := fixedActFor(a, f)
			lim := int64(16) << bits
			for v := -lim + 1; v < lim; v++ {
				if got, want := tab.apply(fxp.Value(v)), floatAct(a, f, fxp.Value(v)); got != want {
					t.Fatalf("F=%d %v at %d: table %d, float %d", bits, a, v, got, want)
				}
			}
			check := func(v fxp.Value) {
				if got, want := tab.apply(v), floatAct(a, f, v); got != want {
					t.Fatalf("F=%d %v at %d: table %d, float %d", bits, a, v, got, want)
				}
			}
			for _, v := range []fxp.Value{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32, tab.lo - 1, tab.lo, tab.hi, tab.hi + 1} {
				check(v)
			}
			for i := 0; i < 200000; i++ {
				check(fxp.Value(rnd.Uint32()))
				// Log-uniform magnitudes cover every scale out to the ends.
				m := fxp.Value(rnd.Int63n(1 << uint(rnd.Intn(32))))
				check(m)
				check(-m)
			}
		}
	}
}

// TestSigmoidTableSizes pins the table geometry: the deployed format's
// sizes, and the entry bound on every valid format.
func TestSigmoidTableSizes(t *testing.T) {
	f := fxp.DefaultFormat
	if n := len(fixedActFor(SigmoidSymmetric, f).vals); n != 39749 {
		t.Errorf("sigmoid-symmetric table at F=12: %d entries, want 39749", n)
	}
	if n := len(fixedActFor(Sigmoid, f).vals); n != 73819 {
		t.Errorf("sigmoid table at F=12: %d entries, want 73819", n)
	}
	for bits := uint(1); bits <= 30; bits++ {
		for _, a := range []Activation{Sigmoid, SigmoidSymmetric} {
			tab := fixedActFor(a, fxp.Format{FracBits: bits})
			if len(tab.vals) > maxActTable {
				t.Errorf("F=%d %v: %d entries, bound %d", bits, a, len(tab.vals), maxActTable)
			}
			if tab.vals == nil && !tab.float {
				t.Errorf("F=%d %v: neither tabulated nor float", bits, a)
			}
		}
	}
}

// TestLinearAndReLUAreExact is the property behind the table-free
// activations: Linear is the identity and ReLU is max(v, 0) on
// fixed-point values, and both equal refRun's float expression, over the
// int32 extremes and random values in every valid format.
func TestLinearAndReLUAreExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	vals := []fxp.Value{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for i := 0; i < 2000; i++ {
		vals = append(vals, fxp.Value(rnd.Uint32()))
	}
	for bits := uint(1); bits <= 30; bits++ {
		f := fxp.Format{FracBits: bits}
		lin, relu := fixedActFor(Linear, f), fixedActFor(ReLU, f)
		for _, v := range vals {
			if got := lin.apply(v); got != v || got != floatAct(Linear, f, v) {
				t.Fatalf("F=%d linear at %d: %d (float %d)", bits, v, got, floatAct(Linear, f, v))
			}
			if got := relu.apply(v); got != max(v, 0) || got != floatAct(ReLU, f, v) {
				t.Fatalf("F=%d relu at %d: %d (float %d)", bits, v, got, floatAct(ReLU, f, v))
			}
		}
	}
}

// TestRunBatchActivationsMatchRun runs every activation pairing
// through RunBatch against the float-activation reference pass
// (refRun), so each fixed-point form is exercised inside the forward
// pass, not only in isolation.
func TestRunBatchActivationsMatchRun(t *testing.T) {
	acts := []Activation{Sigmoid, SigmoidSymmetric, Linear, ReLU}
	for _, hidden := range acts {
		for _, output := range acts {
			n, err := New(Config{Layers: []int{6, 5, 2}, Hidden: hidden, Output: output, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, bits := range actFormats {
				fn, err := n.ToFixed(fxp.Format{FracBits: bits})
				if err != nil {
					t.Fatal(err)
				}
				ins := batchInputs(int64(bits), 9, 6)
				for j := range ins {
					for i := range ins[j] {
						ins[j][i] *= 40 // drive pre-activations past saturation
					}
				}
				got := fn.RunBatch(fxp.Exact{}, ins, nil, nil)
				for j, in := range ins {
					for o, w := range refRun(fn, fxp.Exact{}, in) {
						if got[j*2+o] != w {
							t.Fatalf("%v/%v F=%d lane %d out %d: batch %v, run %v", hidden, output, bits, j, o, got[j*2+o], w)
						}
					}
				}
			}
		}
	}
}
