package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/stats"
)

// accuracySweepOracle is AccuracySweep as one evaluation per (rate,
// repeat) cell, each cell a detector built with the cell's seed and
// every program scored alone through a scalar injector on its own
// stream: no shared set, no stored sums, no flat job list.
func accuracySweepOracle(base *hmd.HMD, programs []dataset.TracedProgram, rates []float64, repeats int, seed uint64) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(rates))
	for ri, rate := range rates {
		accs := make([]float64, repeats)
		fprs := make([]float64, repeats)
		fnrs := make([]float64, repeats)
		for rep := 0; rep < repeats; rep++ {
			s, err := New(base.WithFreshBuffers(), Options{
				ErrorRate: rate,
				Seed:      rng.DeriveSeed(seed, uint64(ri)+1, uint64(rep)+1),
			})
			if err != nil {
				return nil, err
			}
			c := programConfusion(s, programs)
			accs[rep], fprs[rep], fnrs[rep] = c.Accuracy(), c.FPR(), c.FNR()
		}
		accS, _ := stats.Summarize(accs)
		fprS, _ := stats.Summarize(fprs)
		fnrS, _ := stats.Summarize(fnrs)
		out[ri] = SweepPoint{ErrorRate: rate, Accuracy: accS, FPR: fprS, FNR: fnrS}
	}
	return out, nil
}

// confidenceOracle is ConfidenceDistributions as it ran before sets:
// every (repeat, program) job scored alone through its own scalar
// injector, re-extracting the program.
func confidenceOracle(base *hmd.HMD, programs []dataset.TracedProgram, rate float64, repeats, bins int, seed uint64) (benign, malware *stats.Histogram) {
	benign = stats.NewHistogram(0, 1, bins)
	malware = stats.NewHistogram(0, 1, bins)
	for rep := 0; rep < repeats; rep++ {
		for pi, p := range programs {
			inj, err := faults.NewInjectorSource(rate, nil, rng.NewSource64(seed, 0xC0F, uint64(rep)+1, uint64(pi)))
			if err != nil {
				panic(err)
			}
			h := base.WithFreshBuffers()
			score := h.DecideFromScores(h.ScoreWindowsUnit(inj, p.Windows)).Score
			if p.IsMalware() {
				malware.Add(score)
			} else {
				benign.Add(score)
			}
		}
	}
	return benign, malware
}

// sweepDetectors are the base detectors the sweep oracle runs on: the
// fixture (F1, period 1), an F2 detector and a period-2 detector.
func sweepDetectors(t *testing.T) map[string]*hmd.HMD {
	t.Helper()
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	dets := map[string]*hmd.HMD{"F1": base}
	for name, cfg := range map[string]hmd.Config{
		"F2":       {FeatureSet: features.SetMemory, Seed: 3, Hidden: 12, Epochs: 15},
		"period-2": {Period: features.Period2, Seed: 4, Hidden: 12, Epochs: 15},
	} {
		h, err := hmd.Train(d.Select(split.VictimTrain), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dets[name] = h
	}
	return dets
}

// TestAccuracySweepMatchesPerCellOracle holds the flat-job sweep over
// one extracted set to the per-cell, per-program oracle — every
// SweepPoint bit for bit — at rates including 0 (no draws) and 1 (the
// generic draw path), for F1, F2 and period 2, at GOMAXPROCS 1, 2
// and 3.
func TestAccuracySweepMatchesPerCellOracle(t *testing.T) {
	d, _ := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	if testing.Short() && len(test) > 40 {
		test = test[:40]
	}
	rates := []float64{0, 0.1, 0.5, 1}
	const repeats = 3
	for name, base := range sweepDetectors(t) {
		want, err := accuracySweepOracle(base, test, rates, repeats, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, err := AccuracySweep(base, test, rates, repeats, 99)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sweep %+v\noracle %+v", got, want)
				}
			})
		}
	}
}

// TestConfidenceDistributionsMatchOracle holds Fig 2(b) over one set
// to the per-job oracle: both histograms bit-identical.
func TestConfidenceDistributionsMatchOracle(t *testing.T) {
	d, base := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	if testing.Short() && len(test) > 40 {
		test = test[:40]
	}
	for _, rate := range []float64{0.1, 1} {
		benign, malware, err := ConfidenceDistributions(base, test, rate, 3, 20, 8)
		if err != nil {
			t.Fatal(err)
		}
		wantB, wantM := confidenceOracle(base, test, rate, 3, 20, 8)
		if !reflect.DeepEqual(benign, wantB) || !reflect.DeepEqual(malware, wantM) {
			t.Errorf("rate %v: histograms differ from the per-job oracle", rate)
		}
	}
}
