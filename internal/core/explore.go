package core

import (
	"fmt"

	"shmd/internal/dataset"
	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/stats"
)

// Space exploration (Section VI): sweep the error rate and measure
// detection accuracy and the stochasticity of the decision boundary,
// to pick the operating point that maximizes robustness under the
// constraint of minimal accuracy loss.

// SweepPoint is one error-rate sample of the Fig 2(a) exploration:
// accuracy/FPR/FNR summarized over repeated stochastic evaluations.
// The standard deviation is the paper's stochasticity signal ("the
// standard deviation represents the stochasticity that undervolting
// adds to the output").
type SweepPoint struct {
	ErrorRate float64
	Accuracy  stats.Summary
	FPR       stats.Summary
	FNR       stats.Summary
}

// AccuracySweep evaluates the protected detector at every error rate,
// repeating each evaluation `repeats` times with independent fault
// streams. The programs are extracted once, and every (rate, repeat)
// cell's program batches run as one flat job list over GOMAXPROCS
// workers. Cell (ri, rep) is the detector New(base, rate, seed
// DeriveSeed(seed, ri+1, rep+1)) would evaluate, so every draw is the
// one a per-cell hmd.Evaluate of that detector makes.
func AccuracySweep(base *hmd.HMD, programs []dataset.TracedProgram, rates []float64, repeats int, seed uint64) ([]SweepPoint, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("core: no evaluation programs")
	}
	if repeats < 1 {
		return nil, fmt.Errorf("core: repeats %d < 1", repeats)
	}
	set, err := hmd.NewSet(base, programs)
	if err != nil {
		return nil, err
	}
	cells := make([]hmd.SetDetector, 0, len(rates)*repeats)
	for ri, rate := range rates {
		for rep := 0; rep < repeats; rep++ {
			s, err := New(base, Options{
				ErrorRate: rate,
				Seed:      rng.DeriveSeed(seed, uint64(ri)+1, uint64(rep)+1),
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, s)
		}
	}
	conf := hmd.EvaluateSet(cells, set, hmd.EvalOptions{})
	out := make([]SweepPoint, len(rates))
	for ri, rate := range rates {
		accs := make([]float64, repeats)
		fprs := make([]float64, repeats)
		fnrs := make([]float64, repeats)
		for rep, c := range conf[ri*repeats : (ri+1)*repeats] {
			accs[rep] = c.Accuracy()
			fprs[rep] = c.FPR()
			fnrs[rep] = c.FNR()
		}
		accS, _ := stats.Summarize(accs)
		fprS, _ := stats.Summarize(fprs)
		fnrS, _ := stats.Summarize(fnrs)
		out[ri] = SweepPoint{ErrorRate: rate, Accuracy: accS, FPR: fprS, FNR: fnrS}
	}
	return out, nil
}

// ConfidenceDistributions computes the Fig 2(b) view: the distribution
// of program-level malware-class confidence for benign samples and for
// malware samples, at a given error rate, pooled over repeats.
//
// The programs are extracted once and each repeat is one cell of a set
// evaluation: program pi of repeat rep scores on its own stream derived
// from (seed, rep, pi), so the pooled histograms are a pure function of
// the arguments — independent of GOMAXPROCS and of the order jobs
// complete in.
func ConfidenceDistributions(base *hmd.HMD, programs []dataset.TracedProgram, rate float64, repeats, bins int, seed uint64) (benign, malware *stats.Histogram, err error) {
	if len(programs) == 0 {
		return nil, nil, fmt.Errorf("core: no evaluation programs")
	}
	if repeats < 1 || bins < 1 {
		return nil, nil, fmt.Errorf("core: invalid repeats %d / bins %d", repeats, bins)
	}
	if rate < 0 || rate > 1 {
		return nil, nil, fmt.Errorf("core: error rate %v outside [0,1]", rate)
	}
	set, err := hmd.NewSet(base, programs)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]hmd.SetDetector, repeats)
	for rep := range cells {
		cells[rep] = laneCell{base: base, rate: rate, dist: faults.Fig1Distribution(),
			stream: [3]uint64{seed, 0xC0F, uint64(rep) + 1}}
	}
	benign = stats.NewHistogram(0, 1, bins)
	malware = stats.NewHistogram(0, 1, bins)
	hmd.EvaluateSet(cells, set, hmd.EvalOptions{Sink: func(tr hmd.DecisionTrace) {
		if programs[tr.Program].IsMalware() {
			malware.Add(tr.Decision.Score)
		} else {
			benign.Add(tr.Decision.Score)
		}
	}})
	return benign, malware, nil
}
