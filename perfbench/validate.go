package main

import (
	"fmt"
	"math"
	"sync"

	"shmd/internal/core"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/serve"
)

// result is one program's verdict as either transport returns it.
type result struct {
	id          string
	malware     bool
	unprotected bool
	score       float64
	confidence  float64
	attempts    int
	windows     int
}

// tally accumulates every verdict a run returned. It is safe for
// concurrent use.
type tally struct {
	mu sync.Mutex
	// testN/testCorrect count test-fold verdicts and the correct ones;
	// evN/evCaught count verdicts on evasive samples and those flagged.
	testN, testCorrect int64
	evN, evCaught      int64
	verdicts           int64
	protected, retried int64
	invalid            int64
	firstInvalid       string
}

// checkVerdicts validates one reply against the programs sent: one
// result per program in order, echoing its ID and window count, with
// the decision and confidence the threshold implies. Valid verdicts
// are tallied; the first problem is returned (and counted as invalid).
func (t *tally) checkVerdicts(c *corpus, sent []int, res []result, withConfidence bool) (windows int, err error) {
	threshold := c.base.Config().Threshold
	err = func() error {
		if len(res) != len(sent) {
			return fmt.Errorf("%d results for %d programs", len(res), len(sent))
		}
		for i, r := range res {
			it := c.items[sent[i]]
			switch {
			case r.id != it.id:
				return fmt.Errorf("result %d id %q, sent %q", i, r.id, it.id)
			case r.windows != len(it.windows):
				return fmt.Errorf("result %s: %d windows, sent %d", r.id, r.windows, len(it.windows))
			case r.malware != (r.score >= threshold):
				return fmt.Errorf("result %s: malware=%v with score %v, threshold %v", r.id, r.malware, r.score, threshold)
			case withConfidence && r.confidence != serve.Confidence(r.score, threshold, r.malware):
				return fmt.Errorf("result %s: confidence %v, want %v", r.id, r.confidence,
					serve.Confidence(r.score, threshold, r.malware))
			}
			windows += r.windows
		}
		return nil
	}()
	if err != nil {
		return t.invalidReply(err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range res {
		it := c.items[sent[i]]
		t.verdicts++
		if !r.unprotected {
			t.protected++
		}
		if r.attempts > 1 {
			t.retried++
		}
		if it.evasive {
			t.evN++
			if r.malware {
				t.evCaught++
			}
		} else {
			t.testN++
			if r.malware == it.malware {
				t.testCorrect++
			}
		}
	}
	return windows, nil
}

// invalidReply counts a reply that failed validation.
func (t *tally) invalidReply(err error) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalid++
	if t.firstInvalid == "" {
		t.firstInvalid = err.Error()
	}
	return 0, err
}

// fromServe converts HTTP results.
func fromServe(rs []serve.DetectResult) []result {
	out := make([]result, len(rs))
	for i, r := range rs {
		out[i] = result{id: r.ID, malware: r.Malware, unprotected: r.Unprotected, score: r.Score,
			confidence: r.Confidence, attempts: r.Attempts, windows: r.Windows}
	}
	return out
}

// fromVerdict converts a library supervisor verdict.
func fromVerdict(it item, v core.Verdict) result {
	return result{id: it.id, malware: v.Malware, unprotected: v.Unprotected, score: v.Score,
		attempts: v.Attempts, windows: len(it.windows)}
}

// libraryRepeats is how many times the cross-check scores every
// test-fold and evasive program through the library.
const libraryRepeats = 40

// libraryRates scores every item libraryRepeats times through
// core.StochasticHMD at the operating error rate, on two goroutines
// with independent fault streams, and counts correct test-fold
// verdicts and caught evasive samples.
func libraryRates(c *corpus) (testCorrect, testN, evCaught, evN int64, err error) {
	const workers = 2
	type counts struct{ tc, tn, ec, en int64 }
	parts := make([]counts, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			det, err := core.New(c.base.WithFreshBuffers(), core.Options{
				ErrorRate: operatingRate,
				Seed:      rng.DeriveSeed(c.seed, labelLibrary, 0xC0, uint64(w)),
			})
			if err != nil {
				errs[w] = err
				return
			}
			p := &parts[w]
			for rep := w; rep < libraryRepeats; rep += workers {
				for _, it := range c.items {
					caught := det.DetectProgram(it.windows).Malware
					if it.evasive {
						p.en++
						if caught {
							p.ec++
						}
					} else {
						p.tn++
						if caught == it.malware {
							p.tc++
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range parts {
		if errs[w] != nil {
			return 0, 0, 0, 0, errs[w]
		}
		testCorrect += parts[w].tc
		testN += parts[w].tn
		evCaught += parts[w].ec
		evN += parts[w].en
	}
	return testCorrect, testN, evCaught, evN, nil
}

// bandZ is the half-width of the cross-check band in standard errors.
// Served verdicts draw programs uniformly at random, so each is a
// Bernoulli trial with the library's rate; at 4.5 standard errors each
// check fails a correct server about once in 150,000 runs.
const bandZ = 4.5

// inBand is a two-proportion test: it reports whether the served rate
// k/n is within bandZ standard errors of the library rate libK/libN,
// and returns the band. The standard error uses the pooled rate of
// both samples, smoothed by half a count so that two rates of exactly
// 0 or 1 still have a band.
func inBand(k, n, libK, libN int64) (ok bool, lo, hi float64) {
	if n == 0 || libN == 0 {
		return false, 0, 0
	}
	p := (float64(k+libK) + 0.5) / (float64(n+libN) + 1)
	se := math.Sqrt(p * (1 - p) * (1/float64(n) + 1/float64(libN)))
	lib := float64(libK) / float64(libN)
	lo, hi = lib-bandZ*se, lib+bandZ*se
	got := float64(k) / float64(n)
	return got >= lo && got <= hi, lo, hi
}

// checkSweep compares a repeated sweep with the first one of the run.
func checkSweep(ref, got []core.SweepPoint) error {
	if len(ref) != len(got) {
		return fmt.Errorf("sweep returned %d points, first call %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Errorf("sweep point er=%v differs from the run's first call: %+v vs %+v", ref[i].ErrorRate, got[i], ref[i])
		}
	}
	return nil
}

// checkExactPoint checks that every repeat of the er=0 sweep point
// scored exactly the exact baseline's accuracy. Min and Max are the
// repeats' own values; the mean of equal values can be an ulp off.
func checkExactPoint(base *hmd.HMD, c *corpus, pts []core.SweepPoint) error {
	for _, p := range pts {
		if p.ErrorRate != 0 {
			continue
		}
		want := hmd.Evaluate(base, c.test).Accuracy()
		if p.Accuracy.Min != want || p.Accuracy.Max != want {
			return fmt.Errorf("er=0 sweep accuracy in [%v, %v], exact baseline %v", p.Accuracy.Min, p.Accuracy.Max, want)
		}
		return nil
	}
	return fmt.Errorf("sweep has no er=0 point")
}
