package hmd

import (
	"math"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// mustSet extracts programs for h.
func mustSet(t *testing.T, h *HMD, programs []dataset.TracedProgram) *Set {
	t.Helper()
	set, err := NewSet(h, programs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// evaluateWith evaluates one set detector over programs with opts.
func evaluateWith(t *testing.T, d SetDetector, programs []dataset.TracedProgram, opts EvalOptions) stats.Confusion {
	t.Helper()
	return EvaluateSet([]SetDetector{d}, mustSet(t, d.SetBase(), programs), opts)[0]
}

// TestDetectBatchMatchesDetectProgram pins per-lane bit-identity of
// the exact set evaluator: every program's batched decision — verdict
// and score bits — equals its scalar DetectProgram decision, at batch
// sizes covering single-lane, ragged-tail, and full-width groupings.
func TestDetectBatchMatchesDetectProgram(t *testing.T) {
	programs, h := evalPrograms(t)
	set := mustSet(t, h, programs)
	want := make([]Decision, len(programs))
	for i, p := range programs {
		want[i] = h.DetectProgram(p.Windows)
	}
	for _, batch := range []int{1, 2, 7, 64} {
		for lo := 0; lo < len(programs); lo += batch {
			hi := min(lo+batch, len(programs))
			got := make([]Decision, hi-lo)
			h.DetectSet(set, lo, hi, got)
			for j := range got {
				if got[j].Malware != want[lo+j].Malware ||
					math.Float64bits(got[j].Score) != math.Float64bits(want[lo+j].Score) {
					t.Fatalf("batch=%d program %d: batched %+v != scalar %+v",
						batch, lo+j, got[j], want[lo+j])
				}
			}
		}
	}
}

// TestEvaluateBatchSizeInvariance is the evaluation-level guarantee:
// the confusion matrix is identical for every batch size and worker
// count, and equal to the serial reference.
func TestEvaluateBatchSizeInvariance(t *testing.T) {
	programs, h := evalPrograms(t)
	serial := Evaluate(hideSharder{h}, programs)
	for _, batch := range []int{1, 2, 7, 64} {
		for _, workers := range []int{1, 4} {
			if got := evaluateWith(t, h, programs, EvalOptions{Workers: workers, Batch: batch}); got != serial {
				t.Errorf("batch=%d workers=%d: confusion %+v != serial %+v",
					batch, workers, got, serial)
			}
		}
	}
}

// TestDetectBatchLaneOrderInvariance: a program's decision depends
// only on its index, never on the packed position it lands at or on
// which programs share its batch.
func TestDetectBatchLaneOrderInvariance(t *testing.T) {
	programs, h := evalPrograms(t)
	n := min(16, len(programs))
	set := mustSet(t, h, programs)
	whole := make([]Decision, n)
	h.DetectSet(set, 0, n, whole)
	for lo := 1; lo < n; lo++ {
		tail := make([]Decision, n-lo)
		h.DetectSet(set, lo, n, tail)
		for j, dec := range tail {
			if dec != whole[lo+j] {
				t.Fatalf("program %d: decision %+v at position %d, %+v at position %d",
					lo+j, whole[lo+j], lo+j, dec, j)
			}
		}
	}
}

// invertingWrapper embeds the HMD — inheriting its set path — but
// flips every verdict, and opts out of set evaluation so the flip is
// not bypassed.
type invertingWrapper struct{ *HMD }

func (w invertingWrapper) DetectProgram(win []trace.WindowCounts) Decision {
	dec := w.HMD.DetectProgram(win)
	dec.Malware = !dec.Malware
	return dec
}

func (invertingWrapper) SetBase() *HMD { return nil }

// TestEvaluateHonoursSetOptOut pins the embedding contract of
// SetDetector: a wrapper that changes the embedded detector's verdicts
// and returns a nil SetBase is evaluated through its own DetectProgram,
// not the promoted set path.
func TestEvaluateHonoursSetOptOut(t *testing.T) {
	programs, h := evalPrograms(t)
	plain := Evaluate(h, programs)
	got := Evaluate(invertingWrapper{h}, programs)
	if got.TP != plain.FN || got.FN != plain.TP || got.TN != plain.FP || got.FP != plain.TN {
		t.Errorf("wrapper confusion %+v is not the inverse of %+v", got, plain)
	}
}

// TestSetRefusesOtherNetwork pins the binding of a set to the network
// it was extracted for: a detector with other weights — even an
// identically configured one — is refused before any job runs, while
// buffer-fresh copies of the extracting detector share its weights and
// are accepted.
func TestSetRefusesOtherNetwork(t *testing.T) {
	programs, h := evalPrograms(t)
	programs = programs[:8]
	set := mustSet(t, h, programs)
	other, err := FromNetwork(h.Network(), h.Config())
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a set extracted for one network was scored by another")
			}
		}()
		EvaluateSet([]SetDetector{other}, set, EvalOptions{})
	}()
	if got, want := EvaluateSet([]SetDetector{h.WithFreshBuffers()}, set, EvalOptions{})[0], Evaluate(h, programs); got != want {
		t.Errorf("buffer-fresh copy: confusion %+v, want %+v", got, want)
	}
}
