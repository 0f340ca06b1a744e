package conform

import (
	"math/rand"
	"testing"

	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// Fixed seeds make every check below deterministic: a failure is a
// regression in the sampler (or an intentional mutation), never lab
// noise. The significance levels quantify how surprising the pinned
// seed's statistic is allowed to be; see the package comment for the
// suite-wide false-alarm bound.
const (
	gapSeed   = 11
	bitSeed   = 12
	bulkSeed  = 13
	sprtSeed  = 14
	batchSeed = 15 // batched-sampler checks, batch_test.go
)

// TestGapLaw holds the production sampler's gap draws to the
// closed-form Geometric(rate) law at three operating points that cover
// both sampler implementations: 0.5 and 0.1 use the alias gap table,
// 1/256 sits below gapTableMinRate and uses log-inversion.
func TestGapLaw(t *testing.T) {
	for _, rate := range []float64{0.5, 0.1, 1.0 / 256} {
		n := 20000
		gaps, err := SampleGaps(rate, n, gapSeed)
		if err != nil {
			t.Fatal(err)
		}
		chi, err := GapChi2(gaps, rate, Alpha)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(chi)
		if !chi.Pass {
			t.Errorf("gap law chi-square rejected at rate %g", rate)
		}
		ks, err := GapKS(gaps, rate, gapSeed, Alpha)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(ks)
		if !ks.Pass {
			t.Errorf("gap law KS rejected at rate %g", rate)
		}
	}
}

// TestGapLawRejectsWrongRate is the mutation check: gaps sampled at a
// perturbed rate must fail loudly against the nominal law. If this
// test ever passes its inner assertion the suite has lost its power
// and the conformance guarantee is vacuous.
func TestGapLawRejectsWrongRate(t *testing.T) {
	gaps, err := SampleGaps(0.12, 20000, gapSeed)
	if err != nil {
		t.Fatal(err)
	}
	chi, err := GapChi2(gaps, 0.1, Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(chi)
	if chi.Pass {
		t.Error("chi-square failed to reject a 20% rate perturbation")
	}
	ks, err := GapKS(gaps, 0.1, gapSeed, Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ks)
	if ks.Pass {
		t.Error("KS failed to reject a 20% rate perturbation")
	}
}

// TestBitLaw holds the fused fault-bit draws (the 32-bit alias path
// and the CDF path share Distribution) to the Fig 1 location model.
func TestBitLaw(t *testing.T) {
	counts, err := SampleBits(0.5, nil, 200000, bitSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BitChi2(counts, nil, Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.Pass {
		t.Error("bit-location chi-square rejected the Fig 1 model")
	}
}

// tiltedFig1 builds the mutation model for the bit-law rejection
// checks: ~20% of each faultable bit's Fig 1 mass shifted one position
// up.
func tiltedFig1(t testing.TB) *faults.Distribution {
	t.Helper()
	w := faults.Fig1Distribution().Weights()
	var tilted [faults.ProductBits]float64
	for bit := faults.MinFaultBit; bit <= faults.MaxFaultBit; bit++ {
		tilted[bit] += 0.8 * w[bit]
		up := bit + 1
		if up > faults.MaxFaultBit {
			up = faults.MaxFaultBit
		}
		tilted[up] += 0.2 * w[bit]
	}
	dist, err := faults.NewDistribution(tilted)
	if err != nil {
		t.Fatal(err)
	}
	return dist
}

// TestBitLawRejectsPerturbedModel samples from a tilted location model
// and checks the suite rejects it against Fig 1 — the bit-law mutation
// check.
func TestBitLawRejectsPerturbedModel(t *testing.T) {
	counts, err := SampleBits(0.5, tiltedFig1(t), 200000, bitSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BitChi2(counts, nil, Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Pass {
		t.Error("bit-location chi-square failed to reject a tilted model")
	}
}

// sampleRowGaps collects n gap draws like SampleGaps but through the
// injector's one-lane batch form, rows of width rowLen drawn live, so
// the row planner's segment skipping places the faults instead of the
// per-Mul countdown.
func sampleRowGaps(t *testing.T, rate float64, n, rowLen int, seed uint64) []int64 {
	t.Helper()
	in, err := faults.NewInjector(rate, nil, rng.NewRand(seed, conformStream))
	if err != nil {
		t.Fatal(err)
	}
	w := make([]fxp.Value, rowLen)
	for i := range w {
		w[i] = 1
	}
	bt := &fxp.Batch{Xs: w, Stride: rowLen}
	out := make([]fxp.Value, 1)
	var log faults.DrawLog
	in.StartRecord(&log)
	for len(log.Gaps) < n {
		in.DotRowBatch(fxp.Format{}, w, bt, out)
	}
	in.StopRecord()
	return log.Gaps[:n]
}

// TestScalarBulkEquivalence holds the scalar Mul path and the
// injector's row-planned batch form to the same gap distribution — the
// distributional complement of the bit-identity skip-ahead tests in
// internal/faults.
func TestScalarBulkEquivalence(t *testing.T) {
	const rate, n, kmax = 0.1, 20000, 60
	scalar, err := SampleGaps(rate, n, bulkSeed)
	if err != nil {
		t.Fatal(err)
	}
	bulk := sampleRowGaps(t, rate, n, 64, bulkSeed+1)
	res, err := Homogeneity("scalar-vs-bulk", BinGaps(scalar, kmax), BinGaps(bulk, kmax), Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.Pass {
		t.Error("scalar and bulk gap distributions diverge")
	}

	// Mutation: a bulk path running at a perturbed rate must be caught.
	drifted := sampleRowGaps(t, 0.12, n, 64, bulkSeed+1)
	bad, err := Homogeneity("scalar-vs-drifted-bulk", BinGaps(scalar, kmax), BinGaps(drifted, kmax), Alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(bad)
	if bad.Pass {
		t.Error("homogeneity test failed to reject a drifted bulk rate")
	}
}

// TestSPRTBoundaries drives the sequential machinery on simulated
// Bernoulli streams: a stream at p0 must accept the null, streams
// drifted past the indifference region in either direction must
// reject, and empirical error rates over repeated runs must respect
// Wald's bounds.
func TestSPRTBoundaries(t *testing.T) {
	const p0, delta = 0.3, 0.1
	run := func(p float64, seed int64, maxN int) Status {
		c, err := NewRateCheck(p0, delta, 1e-3, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		status := Continue
		for i := 0; i < maxN && status == Continue; i++ {
			status = c.Observe(r.Float64() < p)
		}
		return status
	}
	rejectsAt := func(p float64) int {
		n := 0
		for seed := int64(0); seed < 100; seed++ {
			if run(p, seed, 20000) == RejectNull {
				n++
			}
		}
		return n
	}
	// On-target stream: across 100 seeds the two-sided false-alarm
	// bound is 2e-3 per run, so even a handful of rejections would be
	// far outside spec.
	if n := rejectsAt(p0); n > 2 {
		t.Errorf("false alarms: %d/100 on-target runs rejected (bound 2e-3/run)", n)
	}
	// Drifted streams (a full delta past the indifference edge): the
	// miss bound is beta=1e-3 per run.
	if n := rejectsAt(p0 + 2*delta); n < 98 {
		t.Errorf("misses: only %d/100 high-drift runs rejected", n)
	}
	if n := rejectsAt(p0 - 2*delta); n < 98 {
		t.Errorf("misses: only %d/100 low-drift runs rejected", n)
	}
}

// --- End-to-end detection-rate conformance ---------------------------

// flipModel builds the fixed small HMD the detection-rate check runs
// on (untrained: the check pins the stochastic *perturbation* of
// decisions, which needs a fixed model, not an accurate one).
func flipModel(t testing.TB) *hmd.HMD {
	t.Helper()
	net, err := fann.New(fann.Config{
		Layers: []int{64, 4, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   99,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hmd.FromNetwork(net, hmd.Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var flipFixture struct {
	h        *hmd.HMD
	programs [][]trace.WindowCounts
	exact    []bool
}

// initFlipFixture lazily builds the shared model, program traces, and
// exact-inference verdicts used by both the scalar and batched
// detection-rate checks.
func initFlipFixture(t testing.TB) {
	t.Helper()
	if flipFixture.h != nil {
		return
	}
	flipFixture.h = flipModel(t)
	const nProgs = 16
	for i := 0; i < nProgs; i++ {
		cls := []trace.Class{trace.Benign, trace.Backdoor, trace.Rogue, trace.Trojan}[i%4]
		prog, err := trace.NewProgram(cls, i/4, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := prog.Trace(4, 256)
		if err != nil {
			t.Fatal(err)
		}
		flipFixture.programs = append(flipFixture.programs, ws)
		flipFixture.exact = append(flipFixture.exact, flipFixture.h.DetectProgram(ws).Malware)
	}
}

// flipTrial runs one Bernoulli trial of the end-to-end check: decide a
// synthetic program through an undervolted unit at rate er with an
// independent fault stream, and report whether the stochastic verdict
// flipped relative to exact inference.
func flipTrial(t testing.TB, er float64, seed uint64) bool {
	t.Helper()
	initFlipFixture(t)
	idx := int(seed) % len(flipFixture.programs)
	inj, err := faults.NewInjector(er, nil, rng.NewRand(seed, conformStream, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := flipFixture.h
	d := h.DecideFromScores(h.ScoreWindowsUnit(inj, flipFixture.programs[idx]))
	return d.Malware != flipFixture.exact[idx]
}

// pinnedFlipRate is the golden verdict-flip probability of the fixture
// above at error rate 0.3: measured once over 20000 independent fault
// streams (seeds sprtSeed*1000000+i) and pinned. It is the end-to-end
// quantity the whole injector stack feeds — a drift here means
// decisions changed, not just draws. Re-derive after an intentional
// change by re-running that average (sum flipTrial over i in
// [0, 20000)) and updating the constant.
const (
	pinnedFlipER   = 0.3
	pinnedFlipRate = 0.0776
)

// TestDetectionRateSPRT sequentially checks the live flip rate against
// the pinned value. The indifference half-width tolerates the residual
// seed-to-seed wobble; the budget is sized several times Wald's
// expected sample number so Continue at exhaustion still carries the
// documented miss bound.
func TestDetectionRateSPRT(t *testing.T) {
	const delta = 0.03
	check, err := NewRateCheck(pinnedFlipRate, delta, 1e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	status := Continue
	const maxTrials = 8000
	for i := 0; i < maxTrials && status == Continue; i++ {
		status = check.Observe(flipTrial(t, pinnedFlipER, uint64(sprtSeed*1000000+i)))
	}
	res := check.Result("detection-flip-sprt", status)
	t.Log(res)
	if !res.Pass {
		t.Errorf("flip rate drifted from pinned %.4f: %s", pinnedFlipRate, res.Detail)
	}
}
