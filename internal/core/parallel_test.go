package core

import (
	"runtime"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
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

// TestHardwareDetectorDeclinesSharding: a detector on caller-supplied
// hardware cannot re-derive per-program fault streams, so it must
// decline sharding and still evaluate (serially) with correct counts.
func TestHardwareDetectorDeclinesSharding(t *testing.T) {
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
	inj, err := faults.NewInjector(0, nil, rng.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithHardware(base, reg, inj, Options{ErrorRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if s.SetBase() != nil {
		t.Fatal("hardware-supplied detector must decline set evaluation")
	}
	c := hmd.Evaluate(s, test)
	if c.TP+c.TN+c.FP+c.FN != len(test) {
		t.Errorf("serial fallback recorded %+v verdicts, want %d", c, len(test))
	}
}
