package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// hideBatch masks DetectBatch so evaluation takes the per-program
// sharded reference path.
type hideBatch struct{ s *StochasticHMD }

func (h hideBatch) ScoreWindows(w []trace.WindowCounts) []float64 { return h.s.ScoreWindows(w) }
func (h hideBatch) DetectProgram(w []trace.WindowCounts) hmd.Decision {
	return h.s.DetectProgram(w)
}
func (h hideBatch) DetectorForProgram(idx int) hmd.Detector { return h.s.DetectorForProgram(idx) }

// TestStochasticDetectBatchBitIdentity is the tentpole guarantee at
// the detector level: batched stochastic evaluation is bit-identical
// per program to the per-program derived path — same verdicts, same
// score bits — for batch sizes covering single-lane, ragged, and
// full-width groupings, and for any lane order.
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
	for _, rate := range []float64{0.1, 0.5} {
		s, err := New(base, Options{ErrorRate: rate, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// Per-program reference decisions through DetectorForProgram —
		// the exact contract DetectBatch lanes must reproduce.
		want := make([]hmd.Decision, len(test))
		for i := range test {
			want[i] = s.DetectorForProgram(i).DetectProgram(test[i].Windows)
		}
		for _, batch := range []int{1, 2, 7, 64} {
			for start := 0; start < len(test); start += batch {
				end := start + batch
				if end > len(test) {
					end = len(test)
				}
				idxs := make([]int, 0, end-start)
				for i := start; i < end; i++ {
					idxs = append(idxs, i)
				}
				got := s.DetectBatch(idxs, test)
				for j, idx := range idxs {
					if got[j].Malware != want[idx].Malware ||
						math.Float64bits(got[j].Score) != math.Float64bits(want[idx].Score) {
						t.Fatalf("rate %v batch=%d program %d: batched %+v != per-program %+v",
							rate, batch, idx, got[j], want[idx])
					}
				}
			}
		}
		// Lane order must not matter: reversed batch, same decisions.
		n := len(test)
		if n > 16 {
			n = 16
		}
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		got := s.DetectBatch(rev, test)
		for j, idx := range rev {
			if got[j].Malware != want[idx].Malware ||
				math.Float64bits(got[j].Score) != math.Float64bits(want[idx].Score) {
				t.Fatalf("rate %v reversed lane %d (program %d): %+v != %+v",
					rate, j, idx, got[j], want[idx])
			}
		}
	}
}

// TestStochasticEvaluateBatchMatchesSharded pins the evaluation-level
// equivalence: the batched evaluator and the per-program sharded
// reference produce the same confusion matrix at every batch size.
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
	ref := hmd.EvaluateParallel(hideBatch{s}, test, 2)
	for _, batch := range []int{1, 7, 64} {
		if got := hmd.EvaluateBatch(s, test, batch, 2); got != ref {
			t.Errorf("batch=%d: confusion %+v != per-program reference %+v", batch, got, ref)
		}
	}
}

// TestPooledKitsKeepDetectorsApart runs batched evaluation on two
// detectors at once, from several goroutines each, while their
// DetectBatch calls trade lane kits through one pool. The detectors
// differ in seed, rate, fault distribution and base network (another
// hidden width, so even the network buffers differ in shape). Each
// must still match its own per-program DetectorForProgram path: its
// confusion matrix through hmd.Evaluate, and every batched decision to
// the score bit. A kit that carried a rate, distribution, stream or
// buffer from one caller into the next would break one or the other.
// Run it under -race as well: the pool hands a kit from one worker to
// another.
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
	type detector struct {
		s    *StochasticHMD
		conf stats.Confusion
		want []hmd.Decision
	}
	var dets []detector
	for _, c := range []struct {
		base *hmd.HMD
		opts Options
	}{
		{base, Options{ErrorRate: 0.1, Seed: 11}},
		{other, Options{ErrorRate: 0.35, Seed: 23, Dist: faults.UniformDistribution()}},
	} {
		s, err := New(c.base, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]hmd.Decision, len(test))
		for i := range test {
			want[i] = s.DetectorForProgram(i).DetectProgram(test[i].Windows)
		}
		dets = append(dets, detector{s, hmd.EvaluateParallel(hideBatch{s}, test, 2), want})
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
					if got := hmd.EvaluateBatch(det.s, test, 7, 2); got != det.conf {
						errs <- fmt.Sprintf("detector %d round %d: confusion %+v, per-program %+v", di, r, got, det.conf)
					}
					// Batches of another width and offset per goroutine, so
					// kits change hands between widths too.
					width := 5 + 4*g
					for start := g; start < len(test); start += width {
						idxs := make([]int, 0, width)
						for i := start; i < min(start+width, len(test)); i++ {
							idxs = append(idxs, i)
						}
						for j, dec := range det.s.DetectBatch(idxs, test) {
							if w := det.want[idxs[j]]; dec.Malware != w.Malware || math.Float64bits(dec.Score) != math.Float64bits(w.Score) {
								errs <- fmt.Sprintf("detector %d program %d: batched %+v, per-program %+v", di, idxs[j], dec, w)
							}
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWarmDetectBatchAllocatesNoLaneSource pins the pooled lane kit: a
// warm 64-program DetectBatch re-seeds pooled sources and re-arms a
// pooled injector, so it allocates what scoring itself needs (the
// feature vectors, score slices and decisions) and nothing per lane.
// Each lane built afresh costs a source, a rand.Rand and an Injector,
// far past the bound. Under -race sync.Pool drops a share of its items
// on purpose, so the pin holds only without it.
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
	idxs := make([]int, len(programs))
	windows := 0
	for i := range idxs {
		idxs[i] = i
		windows += len(programs[i].Windows)
	}
	s.DetectBatch(idxs, programs)
	allocs := testing.AllocsPerRun(20, func() {
		if s.DetectBatch(idxs, programs) == nil {
			t.Fatal("DetectBatch declined")
		}
	})
	// features.Extract allocates at most one vector per window plus two
	// slices per program; scoring adds a few slices per call.
	limit := float64(windows + 2*len(programs) + 16)
	if allocs > limit {
		t.Fatalf("warm 64-program DetectBatch: %.0f allocs/op, want <= %.0f (no per-lane allocation)", allocs, limit)
	}
}
