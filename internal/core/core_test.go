package core

import (
	"math"
	"sync"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/hmd"
	"shmd/internal/volt"
)

var (
	fixtureOnce sync.Once
	fixtureData *dataset.Dataset
	fixtureHMD  *hmd.HMD
	fixtureErr  error
)

func fixtures(t *testing.T) (*dataset.Dataset, *hmd.HMD) {
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
		fixtureHMD, fixtureErr = hmd.Train(fixtureData.Select(split.VictimTrain), hmd.Config{Seed: 1})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureData, fixtureHMD
}

func TestNewValidation(t *testing.T) {
	_, base := fixtures(t)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil base must be rejected")
	}
	if _, err := New(base, Options{ErrorRate: 0.1, UndervoltMV: 130}); err == nil {
		t.Error("both knobs set must be rejected")
	}
	if _, err := New(base, Options{ErrorRate: -1}); err == nil {
		t.Error("negative rate must be rejected")
	}
	if _, err := New(base, Options{ErrorRate: 2}); err == nil {
		t.Error("rate 2 must be rejected")
	}
	if _, err := New(base, Options{UndervoltMV: -5}); err == nil {
		t.Error("negative depth must be rejected")
	}
	if _, err := NewOnPlane(base, nil, Options{}); err == nil {
		t.Error("nil plane must be rejected")
	}
}

func TestTrustedControlLocked(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The adversary cannot restore nominal voltage: the regulator is
	// locked to the detector.
	if err := s.Regulator().SetUndervolt("malware", 0); err == nil {
		t.Error("adversary voltage write must fail")
	}
	if s.Regulator().Owner() != Owner {
		t.Errorf("owner = %q", s.Regulator().Owner())
	}
}

func TestErrorRateCalibration(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ErrorRate(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("ErrorRate = %v", got)
	}
	// The regulator really moved: supply voltage is below nominal,
	// near the −130 mV operating point of the default device.
	depth := volt.DepthAtVoltage(s.SupplyVoltage())
	if depth < 110 || depth > 155 {
		t.Errorf("calibrated depth = %v mV, want ≈130", depth)
	}
}

func TestUndervoltKnob(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{UndervoltMV: 130, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if er := s.ErrorRate(); er < 0.05 || er > 0.2 {
		t.Errorf("error rate at -130 mV = %v", er)
	}
	if math.Abs(s.SupplyVoltage()-1.05) > 0.001 {
		t.Errorf("supply voltage = %v", s.SupplyVoltage())
	}
}

func TestTemperatureRecalibration(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	coldDepth := volt.DepthAtVoltage(s.SupplyVoltage())
	if err := s.SetTemperature(80); err != nil {
		t.Fatal(err)
	}
	hotDepth := volt.DepthAtVoltage(s.SupplyVoltage())
	if math.Abs(s.ErrorRate()-0.1) > 1e-9 {
		t.Errorf("rate after temp change = %v", s.ErrorRate())
	}
	if hotDepth >= coldDepth {
		t.Errorf("hot depth %v should be shallower than cold %v", hotDepth, coldDepth)
	}
}

func TestStochasticDetectionVaries(t *testing.T) {
	d, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Programs[0]
	seen := map[float64]bool{}
	for i := 0; i < 30; i++ {
		seen[s.DetectProgram(p.Windows).Score] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct program scores across 30 runs", len(seen))
	}
}

func TestZeroRateMatchesBaseline(t *testing.T) {
	d, base := fixtures(t)
	s, err := New(base, Options{Seed: 6}) // no knob: nominal voltage
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Programs[:20] {
		if s.DetectProgram(p.Windows) != base.DetectProgram(p.Windows) {
			t.Fatal("zero-rate stochastic HMD must equal the baseline")
		}
	}
}

func TestAccuracySweepShape(t *testing.T) {
	// The headline Fig 2(a) property at test scale: at er = 0.1 the
	// accuracy loss is small (paper: < 2%), and degradation grows
	// toward er = 1.
	d, base := fixtures(t)
	split, _ := d.ThreeFold(0)
	test := d.Select(split.Test)

	baseAcc := hmd.Evaluate(base, test).Accuracy()
	points, err := AccuracySweep(base, test, []float64{0.1, 0.5, 1.0}, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		t.Logf("er=%.1f acc=%.4f±%.4f fpr=%.4f fnr=%.4f",
			pt.ErrorRate, pt.Accuracy.Mean, pt.Accuracy.StdDev, pt.FPR.Mean, pt.FNR.Mean)
	}
	if loss := baseAcc - points[0].Accuracy.Mean; loss > 0.04 {
		t.Errorf("accuracy loss at er=0.1 is %v, want < 0.04 (baseline %v)", loss, baseAcc)
	}
	if points[2].Accuracy.Mean >= points[0].Accuracy.Mean {
		t.Errorf("accuracy must degrade from er=0.1 (%v) to er=1 (%v)",
			points[0].Accuracy.Mean, points[2].Accuracy.Mean)
	}
	// Stochasticity: the er=0.5 point must show clearly nonzero
	// run-to-run standard deviation.
	if points[1].Accuracy.StdDev <= 0 {
		t.Error("er=0.5 accuracy must vary across repeats")
	}
}

func TestAccuracySweepValidation(t *testing.T) {
	d, base := fixtures(t)
	if _, err := AccuracySweep(base, nil, []float64{0.1}, 1, 1); err == nil {
		t.Error("no programs must error")
	}
	if _, err := AccuracySweep(base, d.Select([]int{0}), []float64{0.1}, 0, 1); err == nil {
		t.Error("zero repeats must error")
	}
}

func TestConfidenceDistributions(t *testing.T) {
	d, base := fixtures(t)
	split, _ := d.ThreeFold(0)
	test := d.Select(split.Test)
	benign, malware, err := ConfidenceDistributions(base, test, 0.1, 4, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if benign.Total() == 0 || malware.Total() == 0 {
		t.Fatal("empty confidence distributions")
	}
	// Malware samples must concentrate high, benign low.
	meanOf := func(h interface {
		Density() []float64
		BinCenter(int) float64
	}) float64 {
		m := 0.0
		for i, p := range h.Density() {
			m += p * h.BinCenter(i)
		}
		return m
	}
	if mb, bb := meanOf(malware), meanOf(benign); mb <= bb {
		t.Errorf("malware confidence mean %v must exceed benign %v", mb, bb)
	}
}

func TestConfidenceDistributionsValidation(t *testing.T) {
	d, base := fixtures(t)
	test := d.Select([]int{0, 1})
	if _, _, err := ConfidenceDistributions(base, nil, 0.1, 1, 10, 1); err == nil {
		t.Error("no programs must error")
	}
	if _, _, err := ConfidenceDistributions(base, test, 0.1, 0, 10, 1); err == nil {
		t.Error("zero repeats must error")
	}
	if _, _, err := ConfidenceDistributions(base, test, 0.1, 1, 0, 1); err == nil {
		t.Error("zero bins must error")
	}
}
