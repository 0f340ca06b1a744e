package core

import (
	"runtime"
	"testing"

	"shmd/internal/hmd"
	"shmd/internal/stats"
	"shmd/internal/volt"
)

// TestStochasticEvaluateDeterministicAcrossWorkers is the satellite
// determinism guarantee on the stochastic detector itself: with fault
// streams derived per program from the root seed, parallel Evaluate
// produces identical confusion matrices for worker counts 1, 2, and
// GOMAXPROCS on the same seed — the stochasticity is in the faults,
// never in the scheduling.
func TestStochasticEvaluateDeterministicAcrossWorkers(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	for _, rate := range []float64{0.1, 0.5} {
		s, err := New(base, Options{ErrorRate: rate, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		set := mustSet(t, base, test)
		evaluate := func(workers int) stats.Confusion {
			return hmd.EvaluateSet([]hmd.SetDetector{s}, set, hmd.EvalOptions{Workers: workers})[0]
		}
		ref := evaluate(1)
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			if got := evaluate(workers); got != ref {
				t.Errorf("rate %v workers=%d: confusion %+v != workers=1 %+v",
					rate, workers, got, ref)
			}
		}
		// Evaluate (auto worker count) and a rebuilt detector with the
		// same seed must also agree: the result is a pure function of
		// (seed, rate, programs).
		if got := hmd.Evaluate(s, test); got != ref {
			t.Errorf("rate %v: Evaluate %+v != workers=1 %+v", rate, got, ref)
		}
		s2, err := New(base, Options{ErrorRate: rate, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if got := hmd.Evaluate(s2, test); got != ref {
			t.Errorf("rate %v: rebuilt same-seed detector %+v != %+v", rate, got, ref)
		}
	}
}

// TestStochasticEvaluateSeedSensitivity: different seeds must give
// different fault streams (with overwhelming probability the verdict
// scores differ somewhere), and evaluating must not consume the
// detector's own stream — a DetectProgram call after Evaluate sees the
// same faults it would have seen before.
func TestStochasticEvaluateSeedSensitivity(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	p := d.Programs[0]

	s, err := New(base, Options{ErrorRate: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	before := s.DetectProgram(p.Windows).Score
	// Re-derive an identical detector, run a full evaluation first, and
	// check the own-stream detection is unaffected by it.
	s2, err := New(base, Options{ErrorRate: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	hmd.Evaluate(s2, test)
	if after := s2.DetectProgram(p.Windows).Score; after != before {
		t.Errorf("Evaluate consumed the detector's own fault stream: %v != %v", after, before)
	}
}

// TestPlaneDetectorEvaluatesAsSet: a detector on a caller-supplied
// plane derives its per-program evaluation streams from its seed like
// any other, so it evaluates as a set and agrees with an
// ideal-hardware detector of the same seed and rate.
func TestPlaneDetectorEvaluatesAsSet(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)

	reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewOnPlane(base, reg, Options{ErrorRate: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if s.SetBase() == nil {
		t.Fatal("plane-built detector declined set evaluation")
	}
	ideal, err := New(base, Options{ErrorRate: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	got, want := hmd.Evaluate(s, test), hmd.Evaluate(ideal, test)
	if got.TP+got.TN+got.FP+got.FN != len(test) {
		t.Errorf("recorded %+v verdicts, want %d", got, len(test))
	}
	if got != want {
		t.Errorf("plane-built confusion %+v != ideal %+v", got, want)
	}
}
