package hmd

import (
	"sync"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/fxp"
)

// Shared fixtures: dataset generation and HMD training dominate test
// time, so build them once.
var (
	fixtureOnce sync.Once
	fixtureData *dataset.Dataset
	fixtureHMD  *HMD
	fixtureErr  error
)

func fixtures(t *testing.T) (*dataset.Dataset, *HMD) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureData, fixtureErr = dataset.Generate(dataset.QuickConfig(1))
		if fixtureErr != nil {
			return
		}
		split, err := fixtureData.ThreeFold(0)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureHMD, fixtureErr = Train(fixtureData.Select(split.VictimTrain), Config{Seed: 1})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureData, fixtureHMD
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty training set must error")
	}
	d, _ := fixtures(t)
	progs := d.Programs[:4]
	if _, err := Train(progs, Config{Threshold: 1.5}); err == nil {
		t.Error("threshold outside (0,1) must error")
	}
	if _, err := Train(progs, Config{FeatureSet: features.Set(9)}); err == nil {
		t.Error("unknown feature set must error")
	}
	if _, err := Train(progs, Config{Hidden: -1}); err == nil {
		t.Error("negative hidden width must error")
	}
}

func TestBaselineAccuracy(t *testing.T) {
	d, h := fixtures(t)
	split, _ := d.ThreeFold(0)
	c := Evaluate(h, d.Select(split.Test))
	t.Logf("baseline test confusion: %v", c)
	if acc := c.Accuracy(); acc < 0.85 {
		t.Errorf("baseline accuracy = %v, want >= 0.85", acc)
	}
	// Both error modes must stay moderate: the detector is not allowed
	// to degenerate into the majority class.
	if c.FNR() > 0.25 {
		t.Errorf("FNR = %v, detector missing too much malware", c.FNR())
	}
	if c.FPR() > 0.35 {
		t.Errorf("FPR = %v, detector flagging too many benign programs", c.FPR())
	}
}

func TestScoreWindowsShape(t *testing.T) {
	d, h := fixtures(t)
	p := d.Programs[0]
	scores := h.ScoreWindows(p.Windows)
	if len(scores) != len(p.Windows) {
		t.Fatalf("scores = %d, want %d", len(scores), len(p.Windows))
	}
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("score %d = %v outside [0,1]", i, s)
		}
	}
}

func TestDetectDeterministicAtNominal(t *testing.T) {
	d, h := fixtures(t)
	p := d.Programs[3]
	first := h.DetectProgram(p.Windows)
	for i := 0; i < 5; i++ {
		if got := h.DetectProgram(p.Windows); got != first {
			t.Fatal("nominal-voltage detection must be deterministic")
		}
	}
}

func TestDecideFromScores(t *testing.T) {
	_, h := fixtures(t)
	if dec := h.DecideFromScores([]float64{0.9, 0.8, 0.7}); !dec.Malware {
		t.Error("high scores must flag malware")
	}
	if dec := h.DecideFromScores([]float64{0.1, 0.2}); dec.Malware {
		t.Error("low scores must pass as benign")
	}
	dec := h.DecideFromScores([]float64{0.2, 0.8})
	if dec.Score != 0.5 {
		t.Errorf("mean score = %v", dec.Score)
	}
}

func TestDetectProgramUnitMatchesExact(t *testing.T) {
	d, h := fixtures(t)
	p := d.Programs[5]
	a := h.DetectProgram(p.Windows)
	b := h.DecideFromScores(h.ScoreWindowsUnit(fxp.Exact{}, p.Windows))
	if a != b {
		t.Error("deciding ScoreWindowsUnit(Exact) must equal DetectProgram")
	}
}

func TestFromNetworkValidation(t *testing.T) {
	net, err := fann.New(fann.Config{Layers: []int{10, 4, 1}, Hidden: fann.Sigmoid, Output: fann.Sigmoid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetwork(net, Config{}); err == nil {
		t.Error("input-width mismatch must be rejected")
	}
	twoOut, err := fann.New(fann.Config{Layers: []int{features.DimInstrFreq, 4, 2}, Hidden: fann.Sigmoid, Output: fann.Sigmoid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetwork(twoOut, Config{}); err == nil {
		t.Error("multi-output network must be rejected")
	}
}

func TestConfigDefaults(t *testing.T) {
	_, h := fixtures(t)
	cfg := h.Config()
	if cfg.Period != features.Period1 || cfg.Hidden != 32 || cfg.Threshold != 0.5 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestPeriod2Detector(t *testing.T) {
	d, _ := fixtures(t)
	split, _ := d.ThreeFold(0)
	h2, err := Train(d.Select(split.VictimTrain), Config{Period: features.Period2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Programs[0]
	scores := h2.ScoreWindows(p.Windows)
	if len(scores) != len(p.Windows)/2 {
		t.Errorf("period-2 scores = %d, want %d", len(scores), len(p.Windows)/2)
	}
	c := Evaluate(h2, d.Select(split.Test))
	if c.Accuracy() < 0.8 {
		t.Errorf("period-2 accuracy = %v", c.Accuracy())
	}
}

func TestMemoryFeatureDetector(t *testing.T) {
	d, _ := fixtures(t)
	split, _ := d.ThreeFold(0)
	h, err := Train(d.Select(split.VictimTrain), Config{FeatureSet: features.SetMemory, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(h, d.Select(split.Test))
	t.Logf("F2 detector confusion: %v", c)
	// The memory-feature detector is weaker than F1 but must beat
	// chance clearly: RHMD depends on diverse usable detectors.
	if c.Accuracy() < 0.7 {
		t.Errorf("F2 accuracy = %v", c.Accuracy())
	}
}
