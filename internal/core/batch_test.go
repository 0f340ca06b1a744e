package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// programDecision is the per-program path every set lane must match:
// program idx scored alone, through a scalar injector on the stream
// the detector derives for it (seed, shardStreamLabel, rate, idx).
func programDecision(s *StochasticHMD, idx int, windows []trace.WindowCounts) hmd.Decision {
	rate := s.ErrorRate()
	inj, err := faults.NewInjectorSource(rate, s.dist,
		rng.NewSource64(s.seed, shardStreamLabel, math.Float64bits(rate), uint64(idx)))
	if err != nil {
		panic(err)
	}
	h := s.Base().WithFreshBuffers()
	return h.DecideFromScores(h.ScoreWindowsUnit(inj, windows))
}

// programConfusion is the confusion matrix of programDecision over
// programs.
func programConfusion(s *StochasticHMD, programs []dataset.TracedProgram) stats.Confusion {
	var c stats.Confusion
	for i, p := range programs {
		c.Record(programDecision(s, i, p.Windows).Malware, p.IsMalware())
	}
	return c
}

// mustSet extracts programs for base.
func mustSet(t *testing.T, base *hmd.HMD, programs []dataset.TracedProgram) *hmd.Set {
	t.Helper()
	set, err := hmd.NewSet(base, programs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestStochasticDetectBatchBitIdentity is the tentpole guarantee at
// the detector level: set evaluation is bit-identical per program to
// the per-program derived path — same verdicts, same score bits — for
// batch sizes covering single-lane, ragged, and full-width groupings,
// and wherever in its batch a program lands.
func TestStochasticDetectBatchBitIdentity(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	if len(test) > 48 {
		test = test[:48]
	}
	set := mustSet(t, base, test)
	for _, rate := range []float64{0.1, 0.5} {
		s, err := New(base, Options{ErrorRate: rate, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]hmd.Decision, len(test))
		for i := range test {
			want[i] = programDecision(s, i, test[i].Windows)
		}
		check := func(what string, lo int, got []hmd.Decision) {
			t.Helper()
			for j, dec := range got {
				if w := want[lo+j]; dec.Malware != w.Malware || math.Float64bits(dec.Score) != math.Float64bits(w.Score) {
					t.Fatalf("rate %v %s program %d: set %+v != per-program %+v", rate, what, lo+j, dec, w)
				}
			}
		}
		for _, batch := range []int{1, 2, 7, 64} {
			for lo := 0; lo < len(test); lo += batch {
				got := make([]hmd.Decision, min(lo+batch, len(test))-lo)
				s.DetectSet(set, lo, lo+len(got), got)
				check(fmt.Sprintf("batch=%d", batch), lo, got)
			}
		}
		// The packed position must not matter: every suffix batch.
		for lo := 1; lo < 16; lo++ {
			got := make([]hmd.Decision, 16-lo)
			s.DetectSet(set, lo, 16, got)
			check("suffix", lo, got)
		}
	}
}

// TestStochasticEvaluateBatchMatchesSharded pins the evaluation-level
// equivalence: set evaluation and the per-program reference produce
// the same confusion matrix at every batch size.
func TestStochasticEvaluateBatchMatchesSharded(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	s, err := New(base, Options{ErrorRate: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := programConfusion(s, test)
	set := mustSet(t, base, test)
	for _, batch := range []int{1, 7, 64} {
		if got := hmd.EvaluateSet([]hmd.SetDetector{s}, set, hmd.EvalOptions{Workers: 2, Batch: batch})[0]; got != ref {
			t.Errorf("batch=%d: confusion %+v != per-program reference %+v", batch, got, ref)
		}
	}
}

// TestPooledKitsKeepDetectorsApart runs set evaluation on three
// detectors at once, from several goroutines each, while their
// DetectSet calls trade lane kits through one pool. The detectors
// differ in seed, rate, fault distribution and base network (another
// hidden width, so even the network buffers differ in shape), and two
// of them score one shared set concurrently — alone and as the two
// cells of one evaluation. Each must still match its own per-program
// path: its confusion matrix, and every batched decision to the score
// bit. A kit that carried a rate, distribution, stream or buffer from
// one caller into the next, or a pass that wrote into the shared set,
// would break one or the other. Run it under -race as well: the pool
// hands a kit from one worker to another, and the set is read by all.
func TestPooledKitsKeepDetectorsApart(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	if len(test) > 40 {
		test = test[:40]
	}
	other, err := hmd.Train(d.Select(split.VictimTrain), hmd.Config{Seed: 2, Hidden: 12, Epochs: 20})
	if err != nil {
		t.Fatal(err)
	}
	shared, otherSet := mustSet(t, base, test), mustSet(t, other, test)
	type detector struct {
		s    *StochasticHMD
		set  *hmd.Set
		conf stats.Confusion
		want []hmd.Decision
	}
	var dets []detector
	for _, c := range []struct {
		base *hmd.HMD
		set  *hmd.Set
		opts Options
	}{
		{base, shared, Options{ErrorRate: 0.1, Seed: 11}},
		{other, otherSet, Options{ErrorRate: 0.35, Seed: 23, Dist: faults.UniformDistribution()}},
		{base, shared, Options{ErrorRate: 0.2, Seed: 31, Dist: faults.UniformDistribution()}},
	} {
		s, err := New(c.base, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]hmd.Decision, len(test))
		for i := range test {
			want[i] = programDecision(s, i, test[i].Windows)
		}
		dets = append(dets, detector{s, c.set, programConfusion(s, test), want})
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for di := range dets {
		det := dets[di]
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if got := hmd.EvaluateSet([]hmd.SetDetector{det.s}, det.set, hmd.EvalOptions{Workers: 2, Batch: 7})[0]; got != det.conf {
						errs <- fmt.Sprintf("detector %d round %d: confusion %+v, per-program %+v", di, r, got, det.conf)
					}
					// Batches of another width and offset per goroutine, so
					// kits change hands between widths too.
					width := 5 + 4*g
					for lo := g; lo < len(test); lo += width {
						got := make([]hmd.Decision, min(lo+width, len(test))-lo)
						det.s.DetectSet(det.set, lo, lo+len(got), got)
						for j, dec := range got {
							if w := det.want[lo+j]; dec.Malware != w.Malware || math.Float64bits(dec.Score) != math.Float64bits(w.Score) {
								errs <- fmt.Sprintf("detector %d program %d: batched %+v, per-program %+v", di, lo+j, dec, w)
							}
						}
					}
				}
			}()
		}
	}
	// The two detectors on the shared set, as the cells of one
	// evaluation, concurrently with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		got := hmd.EvaluateSet([]hmd.SetDetector{dets[0].s, dets[2].s}, shared, hmd.EvalOptions{Workers: 2, Batch: 9})
		for i, di := range []int{0, 2} {
			if got[i] != dets[di].conf {
				errs <- fmt.Sprintf("cell %d (detector %d): confusion %+v, per-program %+v", i, di, got[i], dets[di].conf)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWarmDetectBatchAllocatesNoLaneSource pins the pooled lane kit: a
// warm 64-program DetectSet re-seeds pooled sources and re-arms a
// pooled injector over a set extracted beforehand, so it allocates
// nothing per lane or per window. Each lane built afresh costs a
// source, a rand.Rand and an Injector, far past the bound. Under -race
// sync.Pool drops a share of its items on purpose, so the pin holds
// only without it.
func TestWarmDetectBatchAllocatesNoLaneSource(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	d, base := fixtures(t)
	programs := d.Programs[:64]
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set := mustSet(t, base, programs)
	out := make([]hmd.Decision, len(programs))
	s.DetectSet(set, 0, len(programs), out)
	allocs := testing.AllocsPerRun(20, func() {
		s.DetectSet(set, 0, len(programs), out)
	})
	if allocs > 2 {
		t.Fatalf("warm 64-program DetectSet: %.0f allocs/op, want <= 2 (no per-lane or per-window allocation)", allocs)
	}
}
