package features

import (
	"fmt"
	"math"
	"testing"

	"shmd/internal/trace"
)

// aggregateAll merges groups of `period` consecutive windows. A trailing
// partial group is dropped, matching a detector that only fires on
// full windows.
func aggregateAll(windows []trace.WindowCounts, period int) ([]trace.WindowCounts, error) {
	if period < 1 {
		return nil, fmt.Errorf("features: period %d < 1", period)
	}
	if period == 1 {
		return append([]trace.WindowCounts(nil), windows...), nil
	}
	out := make([]trace.WindowCounts, len(windows)/period)
	for g := range out {
		aggregate(&out[g], windows[g*period:(g+1)*period])
	}
	return out, nil
}

// fromWindow computes the feature vector of a single (possibly
// aggregated) window.
func fromWindow(w trace.WindowCounts, s Set) []float64 {
	dim, err := s.Dim()
	if err != nil {
		panic(fmt.Sprintf("features: unknown set %d", int(s)))
	}
	out := make([]float64, dim)
	fill(out, &w, s)
	return out
}

// extractOracle is Extract as it was before it read windows in place:
// aggregate a copy of every window, then one fresh vector per window.
func extractOracle(windows []trace.WindowCounts, s Set, period int) ([][]float64, error) {
	if _, err := s.Dim(); err != nil {
		return nil, err
	}
	agg, err := aggregateAll(windows, period)
	if err != nil {
		return nil, err
	}
	if len(agg) == 0 {
		return nil, fmt.Errorf("features: no complete windows at period %d", period)
	}
	out := make([][]float64, len(agg))
	for i, w := range agg {
		out[i] = fromWindow(w, s)
	}
	return out, nil
}

// TestExtractMatchesOracle holds Extract bit for bit to the oracle for
// every feature family at periods 1 and 2, including a trailing
// partial group and all-zero windows.
func TestExtractMatchesOracle(t *testing.T) {
	ws := testWindows(t, trace.Worm, 9)
	ws = append(ws, trace.WindowCounts{}, trace.WindowCounts{})
	for _, s := range []Set{SetInstrFreq, SetMemory, SetArchEvents} {
		for _, period := range []int{Period1, Period2} {
			got, err := Extract(ws, s, period)
			if err != nil {
				t.Fatal(err)
			}
			want, err := extractOracle(ws, s, period)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v period %d: %d vectors, oracle %d", s, period, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
					t.Fatalf("%v period %d window %d: len %d cap %d, oracle len %d",
						s, period, i, len(got[i]), cap(got[i]), len(want[i]))
				}
				for k := range want[i] {
					if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("%v period %d window %d feature %d = %v, oracle %v",
							s, period, i, k, got[i][k], want[i][k])
					}
				}
			}
		}
	}
	for _, period := range []int{0, 20} {
		if _, err := Extract(ws, SetInstrFreq, period); err == nil {
			t.Errorf("period %d accepted", period)
		}
	}
	if _, err := Extract(ws, Set(9), 1); err == nil {
		t.Error("unknown set accepted")
	}
}

// TestExtractAllocs pins Extract's allocations: the vector headers and
// one backing array, whatever the window count or period.
func TestExtractAllocs(t *testing.T) {
	ws := testWindows(t, trace.Benign, 16)
	for _, period := range []int{Period1, Period2} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Extract(ws, SetInstrFreq, period); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("period %d: Extract allocates %v times, want 2", period, allocs)
		}
	}
}
