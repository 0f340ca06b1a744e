package fann

import (
	"math/rand"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/rng"
)

// trainedWide builds a trained network with the deployed model's
// shape class (multi-layer, sigmoid hidden) but small enough for fast
// tests.
func trainedWide(t *testing.T) *FixedNetwork {
	t.Helper()
	n := trainedToy(t)
	fn, err := n.ToFixed(fxp.DefaultFormat)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func batchInputs(seed int64, k, dim int) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	ins := make([][]float64, k)
	for j := range ins {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rnd.Float64()*2 - 1
		}
		ins[j] = v
	}
	return ins
}

// TestRunBatchExactMatchesRun pins RunBatch with the exact unit to the
// scalar reference pass (refRun) at every batch size: same inputs,
// bit-identical scores.
func TestRunBatchExactMatchesRun(t *testing.T) {
	fn := trainedWide(t)
	dim := fn.NumInputs()
	for _, k := range []int{1, 2, 7, 64} {
		ins := batchInputs(int64(k), k, dim)
		got := fn.RunBatch(fxp.Exact{}, ins, nil, nil)
		for j := 0; j < k; j++ {
			want := refRun(fn, fxp.Exact{}, ins[j])
			for o, wv := range want {
				if got[j*fn.NumOutputs()+o] != wv {
					t.Fatalf("k=%d lane %d out %d: batch %v, scalar %v", k, j, o, got[j*fn.NumOutputs()+o], wv)
				}
			}
		}
	}
}

// TestRunBatchInjectorMatchesRun is the end-to-end bit-identity test
// through the fault path: each lane of a batched faulty forward pass
// must equal the scalar reference pass (refRun, one Mul per product)
// through an identically-seeded injector, across batch sizes and
// multiple sequential windows (so gap state carries across RunBatch
// calls exactly as it carries across scalar passes).
func TestRunBatchInjectorMatchesRun(t *testing.T) {
	fn := trainedWide(t)
	dim := fn.NumInputs()
	const windows = 9
	for _, rate := range []float64{0.05, 0.3} {
		for _, k := range []int{1, 2, 7, 64} {
			streams := make([]rand.Source64, k)
			refs := make([]*faults.Injector, k)
			for l := 0; l < k; l++ {
				streams[l] = rng.NewSource64(0xFA, uint64(k), uint64(l))
				ref, err := faults.NewInjector(rate, nil, rng.NewRand(0xFA, uint64(k), uint64(l)))
				if err != nil {
					t.Fatal(err)
				}
				refs[l] = ref
			}
			b, err := faults.NewBatchInjector(rate, nil, streams)
			if err != nil {
				t.Fatal(err)
			}
			batch := fn.Clone()
			for wdx := 0; wdx < windows; wdx++ {
				ins := batchInputs(int64(100*wdx+k), k, dim)
				got := batch.RunBatch(b, ins, nil, nil)
				for j := 0; j < k; j++ {
					want := refRun(fn, refs[j], ins[j])
					for o, wv := range want {
						if got[j*fn.NumOutputs()+o] != wv {
							t.Fatalf("rate %v k=%d window %d lane %d out %d: batch %v, scalar %v",
								rate, k, wdx, j, o, got[j*fn.NumOutputs()+o], wv)
						}
					}
				}
			}
		}
	}
}

// TestRunBatchRaggedLanes drops lanes across calls (shrinking packed
// batches with a Lanes map) and checks survivors match a full-width
// run lane for lane.
func TestRunBatchRaggedLanes(t *testing.T) {
	fn := trainedWide(t)
	dim := fn.NumInputs()
	const k, windows = 7, 6
	laneWindows := []int{6, 5, 5, 3, 2, 1, 1}
	mkStreams := func() []rand.Source64 {
		s := make([]rand.Source64, k)
		for l := range s {
			s[l] = rng.NewSource64(0xBAD9, uint64(l))
		}
		return s
	}

	run := func(ragged bool) map[int][]float64 {
		b, err := faults.NewBatchInjector(0.2, nil, mkStreams())
		if err != nil {
			t.Fatal(err)
		}
		net := fn.Clone()
		outs := make(map[int][]float64)
		for wdx := 0; wdx < windows; wdx++ {
			var lanes []int
			for l := 0; l < k; l++ {
				if !ragged || wdx < laneWindows[l] {
					lanes = append(lanes, l)
				}
			}
			all := batchInputs(int64(wdx), k, dim)
			ins := make([][]float64, len(lanes))
			for p, l := range lanes {
				ins[p] = all[l]
			}
			got := net.RunBatch(b, ins, lanes, nil)
			for p, l := range lanes {
				outs[l] = append(outs[l], got[p*fn.NumOutputs()])
			}
		}
		return outs
	}

	full := run(false)
	ragged := run(true)
	for l := 0; l < k; l++ {
		for wdx := 0; wdx < laneWindows[l]; wdx++ {
			if full[l][wdx] != ragged[l][wdx] {
				t.Fatalf("lane %d window %d: full %v, ragged %v", l, wdx, full[l][wdx], ragged[l][wdx])
			}
		}
	}
}

// TestRunBatchZeroAlloc pins the zero-alloc steady state: after
// warmup, batched runs reuse the arenas.
func TestRunBatchZeroAlloc(t *testing.T) {
	fn := trainedWide(t)
	ins := batchInputs(7, 16, fn.NumInputs())
	out := make([]float64, 16*fn.NumOutputs())
	fn.RunBatch(fxp.Exact{}, ins, nil, out) // warm the arenas
	allocs := testing.AllocsPerRun(50, func() {
		fn.RunBatch(fxp.Exact{}, ins, nil, out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunBatch allocates %v times per call", allocs)
	}
}

// TestRunBatchValidation covers the panic contracts.
func TestRunBatchValidation(t *testing.T) {
	fn := trainedWide(t)
	if got := fn.RunBatch(fxp.Exact{}, nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad input length", func() {
		fn.RunBatch(fxp.Exact{}, [][]float64{{1}}, nil, nil)
	})
	mustPanic("lane map length mismatch", func() {
		in := make([]float64, fn.NumInputs())
		fn.RunBatch(fxp.Exact{}, [][]float64{in}, []int{0, 1}, nil)
	})
}
