package core

import (
	"fmt"
	"runtime"
	"sync"

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
// streams. Repeats run in parallel.
func AccuracySweep(base *hmd.HMD, programs []dataset.TracedProgram, rates []float64, repeats int, seed uint64) ([]SweepPoint, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("core: no evaluation programs")
	}
	if repeats < 1 {
		return nil, fmt.Errorf("core: repeats %d < 1", repeats)
	}
	out := make([]SweepPoint, len(rates))
	for ri, rate := range rates {
		accs := make([]float64, repeats)
		fprs := make([]float64, repeats)
		fnrs := make([]float64, repeats)
		if err := forEachRepeat(repeats, func(rep int) error {
			s, err := New(base.WithFreshBuffers(), Options{
				ErrorRate: rate,
				Seed:      rng.DeriveSeed(seed, uint64(ri)+1, uint64(rep)+1),
			})
			if err != nil {
				return err
			}
			c := hmd.Evaluate(s, programs)
			accs[rep] = c.Accuracy()
			fprs[rep] = c.FPR()
			fnrs[rep] = c.FNR()
			return nil
		}); err != nil {
			return nil, err
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
// Work is sharded over every (repeat, program) cell: each cell scores
// through its own injector on a stream derived from (seed, repeat,
// program index), so the pooled histograms are a pure function of the
// arguments — independent of GOMAXPROCS and of the order shards
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
	benign = stats.NewHistogram(0, 1, bins)
	malware = stats.NewHistogram(0, 1, bins)
	scores := make([]float64, repeats*len(programs))
	if err := forEachRepeat(repeats*len(programs), func(job int) error {
		rep, pi := job/len(programs), job%len(programs)
		inj, err := faults.NewInjectorSource(rate, nil,
			rng.NewSource64(seed, 0xC0F, uint64(rep)+1, uint64(pi)))
		if err != nil {
			return err
		}
		scores[job] = base.WithUnit(inj).DetectProgram(programs[pi].Windows).Score
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for job, score := range scores {
		if programs[job%len(programs)].IsMalware() {
			malware.Add(score)
		} else {
			benign.Add(score)
		}
	}
	return benign, malware, nil
}

// forEachRepeat runs fn(0..n-1) across GOMAXPROCS workers and collects
// the first error.
func forEachRepeat(n int, fn func(rep int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range next {
				errs[rep] = fn(rep)
			}
		}()
	}
	for rep := 0; rep < n; rep++ {
		next <- rep
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
