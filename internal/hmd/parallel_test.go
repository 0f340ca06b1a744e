package hmd

import (
	"runtime"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// hideSharder masks a detector's SetDetector implementation so
// Evaluate takes the serial reference path.
type hideSharder struct{ d Detector }

func (h hideSharder) ScoreWindows(w []trace.WindowCounts) []float64 { return h.d.ScoreWindows(w) }
func (h hideSharder) DetectProgram(w []trace.WindowCounts) Decision { return h.d.DetectProgram(w) }

// decliningSharder implements SetDetector but declines set evaluation,
// exercising the nil-fallback contract.
type decliningSharder struct{ *HMD }

func (decliningSharder) SetBase() *HMD { return nil }

func evalPrograms(t *testing.T) ([]dataset.TracedProgram, *HMD) {
	t.Helper()
	d, h := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	return d.Select(split.Test), h
}

// TestEvaluateParallelDeterministic is the satellite guarantee:
// identical confusion matrices for worker counts 1, 2, and GOMAXPROCS,
// and all of them equal to the serial reference path.
func TestEvaluateParallelDeterministic(t *testing.T) {
	programs, h := evalPrograms(t)
	serial := Evaluate(hideSharder{h}, programs)
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	results := make([]stats.Confusion, len(counts))
	for i, workers := range counts {
		results[i] = evaluateWith(t, h, programs, EvalOptions{Workers: workers})
	}
	for i, workers := range counts {
		if results[i] != serial {
			t.Errorf("workers=%d: confusion %+v, serial reference %+v",
				workers, results[i], serial)
		}
	}
	if got := Evaluate(h, programs); got != serial {
		t.Errorf("Evaluate: confusion %+v, serial reference %+v", got, serial)
	}
}

// TestEvaluateFallsBackWithoutSharder pins the compatibility contract:
// detectors that do not (or decline to) shard still evaluate correctly
// through the serial path.
func TestEvaluateFallsBackWithoutSharder(t *testing.T) {
	programs, h := evalPrograms(t)
	var want stats.Confusion
	for _, p := range programs {
		want.Record(h.DetectProgram(p.Windows).Malware, p.IsMalware())
	}
	if got := Evaluate(hideSharder{h}, programs); got != want {
		t.Errorf("non-sharder Evaluate %+v != serial %+v", got, want)
	}
	if got := Evaluate(decliningSharder{h}, programs); got != want {
		t.Errorf("declining sharder Evaluate %+v != serial %+v", got, want)
	}
}

// TestEvaluateEmptyPrograms guards the degenerate inputs the sharded
// path has to special-case.
func TestEvaluateEmptyPrograms(t *testing.T) {
	_, h := fixtures(t)
	if got := Evaluate(h, nil); got != (stats.Confusion{}) {
		t.Errorf("empty evaluation = %+v, want zero confusion", got)
	}
	if got := evaluateWith(t, h, nil, EvalOptions{Workers: 8}); got != (stats.Confusion{}) {
		t.Errorf("empty parallel evaluation = %+v, want zero confusion", got)
	}
	if _, err := NewSet(h, []dataset.TracedProgram{{Windows: nil}}); err == nil {
		t.Error("a program with no complete window was extracted")
	}
}
