package fann

import (
	"math"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// refRun is the scalar reference forward pass: one u.Mul per product,
// layer by layer and row by row, in index order with the bias input
// last, SatAdd accumulation, and every activation evaluated through
// float64 and quantized back (floatAct, FANN's expression). It shares
// no kernel, arena or activation table with RunBatch, which makes it
// the oracle RunBatch, Run and fixedAct are held to.
func refRun(fn *FixedNetwork, u fxp.Unit, input []float64) []float64 {
	f := fn.format
	cur := make([]fxp.Value, len(input)+1)
	for i, x := range input {
		cur[i] = f.FromFloat(x)
	}
	for l, w := range fn.weights {
		fanIn, fanOut := fn.layers[l], fn.layers[l+1]
		cur[fanIn] = f.One() // bias input
		next := make([]fxp.Value, fanOut+1)
		for j := 0; j < fanOut; j++ {
			row := w[j*(fanIn+1) : (j+1)*(fanIn+1)]
			var acc fxp.Product
			for i := range row {
				acc = fxp.SatAdd(acc, u.Mul(row[i], cur[i]))
			}
			next[j] = floatAct(fn.fixedActAt(l).act, f, f.ScaleProduct(acc))
		}
		cur = next
	}
	out := make([]float64, fn.NumOutputs())
	for j := range out {
		out[j] = toFloat(f, cur[j])
	}
	return out
}

// mulOnly is the test-local Mul walk: a one-lane fxp.BatchUnit that
// issues u.Mul once per product of each row it is handed, in index
// order, with SatAdd accumulation.
type mulOnly struct{ u fxp.Unit }

func (m mulOnly) DotRowBatch(f fxp.Format, w []fxp.Value, b *fxp.Batch, out []fxp.Value) {
	if len(out) > 1 {
		panic("mulOnly: one stream, one packed lane")
	}
	for j := range out {
		var acc fxp.Product
		for i, x := range b.Xs[:len(w)] {
			acc = fxp.SatAdd(acc, m.u.Mul(w[i], x))
		}
		out[j] = f.ScaleProduct(acc)
	}
}

// mulRecorder is a Mul-only exact unit that logs every operand pair in
// the order it is asked to multiply them.
type mulRecorder struct{ ops [][2]fxp.Value }

func (r *mulRecorder) Mul(a, b fxp.Value) fxp.Product {
	r.ops = append(r.ops, [2]fxp.Value{a, b})
	return fxp.Exact{}.Mul(a, b)
}

// TestRunMulSequenceMatchesRefRun pins the multiplication order of a
// forward pass: walked product by product, Run's rows issue exactly
// refRun's (a, b) Mul sequence — every product once, bias last in each
// row — over one to three weight layers, and an injector's span-planned
// batch form scores exactly what refRun scores walking the same stream
// one Mul at a time. Draw logs are recorded and replayed in this order.
func TestRunMulSequenceMatchesRefRun(t *testing.T) {
	r := rng.NewRand(61)
	for _, layers := range [][]int{{3, 2}, {4, 5, 1}, {5, 3, 4, 2}} {
		n := mustNew(t, Config{Layers: layers, Hidden: SigmoidSymmetric, Output: Sigmoid, Seed: 62})
		fn, err := n.ToFixed(fxp.DefaultFormat)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]float64, layers[0])
		for i := range in {
			in[i] = r.Float64()*2 - 1
		}
		var got, want mulRecorder
		fn.Run(mulOnly{&got}, in)
		refRun(fn, &want, in)
		if len(got.ops) != fn.NumMuls() || len(got.ops) != len(want.ops) {
			t.Fatalf("layers %v: Run issued %d muls, refRun %d, NumMuls %d", layers, len(got.ops), len(want.ops), fn.NumMuls())
		}
		for i := range got.ops {
			if got.ops[i] != want.ops[i] {
				t.Fatalf("layers %v: mul %d is %v, refRun's is %v", layers, i, got.ops[i], want.ops[i])
			}
		}
		a, _ := faults.NewInjectorSource(0.3, nil, rng.NewSource64(63))
		b, _ := faults.NewInjector(0.3, nil, rng.NewRand(63))
		for rep := 0; rep < 20; rep++ {
			g, w := fn.Run(a, in), refRun(fn, b, in)
			for o := range w {
				if g[o] != w[o] {
					t.Fatalf("layers %v pass %d out %d: Run %v, refRun %v", layers, rep, o, g[o], w[o])
				}
			}
		}
	}
}

func trainedToy(t *testing.T) *Network {
	t.Helper()
	n := mustNew(t, Config{Layers: []int{4, 6, 1}, Hidden: SigmoidSymmetric, Output: Sigmoid, Seed: 21})
	samples := []TrainSample{
		{Input: []float64{1, 0, 1, 0}, Target: []float64{1}},
		{Input: []float64{0, 1, 0, 1}, Target: []float64{0}},
		{Input: []float64{1, 1, 0, 0}, Target: []float64{1}},
		{Input: []float64{0, 0, 1, 1}, Target: []float64{0}},
	}
	if _, _, err := n.Train(samples, TrainOptions{MaxEpochs: 500, TargetMSE: 0.001}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestToFixedValidation(t *testing.T) {
	n := trainedToy(t)
	if _, err := n.ToFixed(fxp.Format{FracBits: 0}); err == nil {
		t.Error("invalid format must be rejected")
	}
}

func TestFixedMatchesFloat(t *testing.T) {
	n := trainedToy(t)
	fn, err := n.ToFixed(fxp.DefaultFormat)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewRand(31)
	for i := 0; i < 200; i++ {
		in := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		want := n.Run(in)[0]
		got := fn.Run(fxp.Exact{}, in)[0]
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("fixed/float divergence: %v vs %v on %v", got, want, in)
		}
	}
}

func TestFixedDeterministicWithExactUnit(t *testing.T) {
	n := trainedToy(t)
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	in := []float64{0.2, 0.8, 0.5, 0.1}
	first := fn.Run(fxp.Exact{}, in)[0]
	for i := 0; i < 20; i++ {
		if fn.Run(fxp.Exact{}, in)[0] != first {
			t.Fatal("exact fixed-point inference must be deterministic")
		}
	}
}

func TestFixedStochasticWithInjector(t *testing.T) {
	// The defining property of the Stochastic-HMD: with the undervolted
	// multiplier, repeated inference on the same input yields varying
	// outputs — the moving-target decision boundary.
	n := trainedToy(t)
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	inj, err := faults.NewInjector(0.5, nil, rng.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.2, 0.8, 0.5, 0.1}
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		seen[fn.Run(inj, in)[0]] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct outputs across 100 undervolted runs", len(seen))
	}
}

func TestFixedZeroRateInjectorMatchesExact(t *testing.T) {
	n := trainedToy(t)
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	inj, err := faults.NewInjector(0, nil, rng.NewRand(43))
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.9, 0.1, 0.4, 0.6}
	if fn.Run(inj, in)[0] != fn.Run(fxp.Exact{}, in)[0] {
		t.Error("zero-rate injector must match the exact unit")
	}
}

func TestFixedRunPanicsOnBadInput(t *testing.T) {
	n := trainedToy(t)
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input length")
		}
	}()
	fn.Run(fxp.Exact{}, []float64{1})
}

func TestNumMuls(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{64, 32, 2}, Hidden: Sigmoid, Output: Sigmoid})
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	// Each MAC row is fanIn+1 long (the bias input multiplies too), so
	// bias multiplications are part of the count.
	if got, want := fn.NumMuls(), (64+1)*32+(32+1)*2; got != want {
		t.Errorf("NumMuls = %d, want %d", got, want)
	}
	// The TRNG-overhead accounting and the injector's observed counters
	// must agree: one forward pass issues exactly NumMuls
	// multiplications through the fault unit.
	inj, _ := faults.NewInjector(0, nil, rng.NewRand(1))
	fn.Run(inj, make([]float64, 64))
	if got := inj.Stats().Muls; got != uint64(fn.NumMuls()) {
		t.Errorf("observed muls = %d, want NumMuls = %d", got, fn.NumMuls())
	}
}

func TestFixedAccessors(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{3, 5, 2}, Hidden: Sigmoid, Output: Sigmoid})
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	if fn.NumInputs() != 3 || fn.NumOutputs() != 2 {
		t.Errorf("dims = %d/%d", fn.NumInputs(), fn.NumOutputs())
	}
	if fn.Format() != fxp.DefaultFormat {
		t.Error("Format mismatch")
	}
	ls := fn.Layers()
	if len(ls) != 3 || ls[1] != 5 {
		t.Errorf("Layers = %v", ls)
	}
	ls[0] = 99
	if fn.NumInputs() != 3 {
		t.Error("Layers must return a copy")
	}
}

// The multi-layer buffer swap must not corrupt activations in deeper
// networks (regression guard for the scratch-buffer reuse).
func TestFixedDeepNetwork(t *testing.T) {
	n := mustNew(t, Config{Layers: []int{6, 9, 4, 7, 2}, Hidden: SigmoidSymmetric, Output: Sigmoid, Seed: 77})
	fn, _ := n.ToFixed(fxp.DefaultFormat)
	r := rng.NewRand(78)
	for i := 0; i < 50; i++ {
		in := make([]float64, 6)
		for j := range in {
			in[j] = r.Float64()*2 - 1
		}
		want := n.Run(in)
		got := fn.Run(fxp.Exact{}, in)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 0.02 {
				t.Fatalf("deep net divergence at output %d: %v vs %v", j, got[j], want[j])
			}
		}
	}
}
