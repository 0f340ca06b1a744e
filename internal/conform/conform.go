// Package conform is the statistical conformance suite for the
// stochastic fault injector: it checks that the geometric skip-ahead
// sampler — alias tables, fused draws, span-planned batch kernel and
// all — still
// produces the exact fault process the paper's analysis assumes
// (i.i.d. Bernoulli(rate) faults with Fig 1 bit locations).
//
// Unlike the bit-identity tests in internal/faults (which pin one RNG
// stream to one output), these checks are distributional: they would
// catch a sampler that is self-consistent but wrong — an off-by-one in
// the gap law, a mis-normalized alias row, a batch kernel that skips a
// site — by comparing large samples against the closed-form laws with
// chi-square, Kolmogorov-Smirnov, and sequential (SPRT) tests.
//
// Every check runs on a fixed seed, so the suite is deterministic: a
// failure is a real regression, not sampling noise. The significance
// levels still matter — they are the false-alarm probability a *new*
// seed would have, and they bound how surprising the pinned seed's
// statistic is allowed to be. At the suite's alpha of 1e-3 per check
// and fewer than twenty checks (scalar and batched paths together), a
// fresh seed passes the whole suite with probability better than 98%.
package conform

import (
	"fmt"
	"math"
	"math/rand"

	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/rng"
	"shmd/internal/stats"
)

// Result is one conformance verdict: the test statistic, its p-value,
// the significance level it was judged at, and the sample size.
type Result struct {
	Name   string
	Stat   float64
	P      float64
	Alpha  float64
	N      int
	Pass   bool
	Detail string
}

func (r Result) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s %-28s stat=%.4f p=%.2e alpha=%.0e n=%d %s",
		status, r.Name, r.Stat, r.P, r.Alpha, r.N, r.Detail)
}

// Alpha is the per-check significance level. Each check's p-value is
// computed under the null "the sampler matches the law exactly", so a
// conforming injector fails a single check with probability Alpha on a
// fresh seed.
const Alpha = 1e-3

// conformStream namespaces the suite's RNG streams away from every
// production stream label.
const conformStream = 0xC0F0

// SampleGaps collects n geometric gap draws from a production Injector
// configured at rate, by recording a DrawLog while driving the scalar
// Mul path. The returned gaps are exactly the values the injector used
// to place faults — the lazy first draw plus one draw per fault — so
// any defect in the alias table or log-inversion sampler is present in
// the sample.
func SampleGaps(rate float64, n int, seed uint64) ([]int64, error) {
	if rate <= 0 || rate >= 1 {
		return nil, fmt.Errorf("conform: gap sampling needs rate in (0,1), got %v", rate)
	}
	in, err := faults.NewInjector(rate, nil, rng.NewRand(seed, conformStream))
	if err != nil {
		return nil, err
	}
	var log faults.DrawLog
	in.StartRecord(&log)
	for len(log.Gaps) < n {
		in.Mul(1, 1)
	}
	in.StopRecord()
	return append([]int64(nil), log.Gaps[:n]...), nil
}

// SampleBatchDraws collects per-lane draw logs from a production
// BatchInjector driving the span-planned batch kernel: every iteration
// announces a span across all lanes (BeginSpan) and consumes it with
// DotRowBatch over all-ones rows, until each lane has recorded at
// least nGaps gap draws. The geometry knobs matter: with rowLen not
// dividing the span and spans short relative to 1/rate, gap draws
// routinely straddle row and span boundaries, exercising the pending
// carryover bookkeeping the scalar sampler never touches. Recording
// lanes take the batch planner's fused hot loop and record from its
// plan, whose draws match the per-draw path bit-for-bit (pinned in
// internal/faults); here the draws themselves are held to the law.
func SampleBatchDraws(rate float64, dist *faults.Distribution, nGaps, lanes, rowLen int, seed uint64) ([]faults.DrawLog, error) {
	if rate <= 0 || rate >= 1 {
		return nil, fmt.Errorf("conform: batch sampling needs rate in (0,1), got %v", rate)
	}
	if lanes < 1 || rowLen < 1 {
		return nil, fmt.Errorf("conform: batch geometry %d lanes x %d row", lanes, rowLen)
	}
	srcs := make([]rand.Source64, lanes)
	for l := range srcs {
		srcs[l] = rng.NewSource64(seed, conformStream, 3, uint64(l))
	}
	b, err := faults.NewBatchInjector(rate, dist, srcs)
	if err != nil {
		return nil, err
	}
	logs := make([]faults.DrawLog, lanes)
	laneIDs := make([]int, lanes)
	for l := range laneIDs {
		laneIDs[l] = l
		b.Lane(l).StartRecord(&logs[l])
	}
	w := make([]fxp.Value, rowLen)
	xs := make([]fxp.Value, lanes*rowLen)
	for i := range w {
		w[i] = 1
	}
	for i := range xs {
		xs[i] = 1
	}
	bt := &fxp.Batch{Xs: xs, Stride: rowLen, WAbs: float64(rowLen)}
	out := make([]fxp.Value, lanes)
	const spanRows = 16
	for {
		done := true
		for l := range logs {
			if len(logs[l].Gaps) < nGaps {
				done = false
				break
			}
		}
		if done {
			break
		}
		// Exact-consumption contract: every announced span is walked to
		// completion before the next BeginSpan.
		b.BeginSpan(laneIDs, spanRows*rowLen)
		for r := 0; r < spanRows; r++ {
			b.DotRowBatch(fxp.Format{}, w, bt, out)
		}
	}
	for l := range laneIDs {
		b.Lane(l).StopRecord()
	}
	return logs, nil
}

// SampleBits collects nFaults fault-bit draws from a production
// Injector at rate (nil dist means the Fig 1 model), returning the
// per-bit counts.
func SampleBits(rate float64, dist *faults.Distribution, nFaults int, seed uint64) ([faults.ProductBits]float64, error) {
	var counts [faults.ProductBits]float64
	if rate <= 0 || rate > 1 {
		return counts, fmt.Errorf("conform: bit sampling needs rate in (0,1], got %v", rate)
	}
	in, err := faults.NewInjector(rate, dist, rng.NewRand(seed, conformStream))
	if err != nil {
		return counts, err
	}
	var log faults.DrawLog
	in.StartRecord(&log)
	for len(log.Bits) < nFaults {
		in.Mul(1, 1)
	}
	in.StopRecord()
	for _, b := range log.Bits[:nFaults] {
		counts[b]++
	}
	return counts, nil
}

// BinGaps histograms gap values into bins 0..kmax-1 plus a tail bin
// for gaps >= kmax.
func BinGaps(gaps []int64, kmax int) []float64 {
	bins := make([]float64, kmax+1)
	for _, g := range gaps {
		if g >= int64(kmax) {
			bins[kmax]++
		} else {
			bins[g]++
		}
	}
	return bins
}

// geomExpected returns the expected counts of the Geometric(rate) gap
// law over bins 0..kmax-1 plus the >=kmax tail, for n draws:
// P(gap = k) = (1-rate)^k * rate, P(gap >= kmax) = (1-rate)^kmax.
func geomExpected(rate float64, kmax, n int) []float64 {
	exp := make([]float64, kmax+1)
	q := 1.0
	for k := 0; k < kmax; k++ {
		exp[k] = float64(n) * rate * q
		q *= 1 - rate
	}
	exp[kmax] = float64(n) * q
	return exp
}

// GapChi2 tests sampled gaps against the closed-form Geometric(rate)
// gap law with Pearson's chi-square. Bins with expected count below 5
// are pooled, preserving the classical validity condition.
func GapChi2(gaps []int64, rate float64, alpha float64) (Result, error) {
	r := Result{Name: fmt.Sprintf("gap-chi2@%g", rate), Alpha: alpha, N: len(gaps)}
	// kmax covers the law out to the quantile where the tail still
	// expects a poolable count.
	kmax := int(math.Ceil(math.Log(5/float64(len(gaps))) / math.Log1p(-rate)))
	if kmax < 2 {
		kmax = 2
	}
	obs := BinGaps(gaps, kmax)
	exp := geomExpected(rate, kmax, len(gaps))
	pobs, pexp := stats.PoolBins(obs, exp, 5)
	stat, p, err := stats.ChiSquareGOF(pobs, pexp)
	if err != nil {
		return r, err
	}
	r.Stat, r.P = stat, p
	r.Pass = p >= alpha
	r.Detail = fmt.Sprintf("bins=%d", len(pobs))
	return r, nil
}

// GapKS tests sampled gaps against the Geometric(rate) law with a
// one-sample Kolmogorov-Smirnov test. KS assumes a continuous null —
// against the raw discrete law it rejects any sample whose largest
// atom exceeds the critical D — so the test continuifies first: each
// gap gets deterministic Uniform[0,1) jitter (seeded independently of
// the draws), and G + U has the exactly-known piecewise-linear CDF
// F(k + f) = 1 - (1-rate)^k + f·rate·(1-rate)^k. The transform is a
// bijection on distributions, so a wrong gap law is still detected.
func GapKS(gaps []int64, rate float64, seed uint64, alpha float64) (Result, error) {
	r := Result{Name: fmt.Sprintf("gap-ks@%g", rate), Alpha: alpha, N: len(gaps)}
	jit := rng.NewRand(seed, conformStream, 2)
	xs := make([]float64, len(gaps))
	for i, g := range gaps {
		xs[i] = float64(g) + jit.Float64()
	}
	cdf := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		k := math.Floor(x)
		tail := math.Pow(1-rate, k)
		return 1 - tail + (x-k)*rate*tail
	}
	d, p, err := stats.KSOneSample(xs, cdf)
	if err != nil {
		return r, err
	}
	r.Stat, r.P = d, p
	r.Pass = p >= alpha
	return r, nil
}

// BitChi2 tests observed per-bit fault counts against a fault-location
// model (nil means Fig 1) with Pearson's chi-square over the faultable
// bit range, pooling underweight bins.
func BitChi2(counts [faults.ProductBits]float64, dist *faults.Distribution, alpha float64) (Result, error) {
	if dist == nil {
		dist = faults.Fig1Distribution()
	}
	n := 0.0
	for _, c := range counts {
		n += c
	}
	r := Result{Name: "bit-chi2", Alpha: alpha, N: int(n)}
	weights := dist.Weights()
	var obs, exp []float64
	for bit := faults.MinFaultBit; bit <= faults.MaxFaultBit; bit++ {
		if weights[bit] == 0 {
			if counts[bit] > 0 {
				r.Detail = fmt.Sprintf("%v faults at zero-weight bit %d", counts[bit], bit)
				return r, nil // Pass=false: mass where the law has none
			}
			continue
		}
		obs = append(obs, counts[bit])
		exp = append(exp, n*weights[bit])
	}
	pobs, pexp := stats.PoolBins(obs, exp, 5)
	stat, p, err := stats.ChiSquareGOF(pobs, pexp)
	if err != nil {
		return r, err
	}
	r.Stat, r.P = stat, p
	r.Pass = p >= alpha
	r.Detail = fmt.Sprintf("bins=%d", len(pobs))
	return r, nil
}

// Homogeneity tests whether two binned samples come from the same
// distribution (2×k contingency chi-square with margin-derived
// expectations, df = k-1 after pooling). The conformance suite uses it
// to hold the scalar and bulk execution paths to one gap law without
// assuming which one is right.
func Homogeneity(name string, a, b []float64, alpha float64) (Result, error) {
	r := Result{Name: name, Alpha: alpha}
	if len(a) != len(b) {
		return r, fmt.Errorf("conform: homogeneity bins %d vs %d", len(a), len(b))
	}
	na, nb := 0.0, 0.0
	for i := range a {
		na += a[i]
		nb += b[i]
	}
	if na == 0 || nb == 0 {
		return r, fmt.Errorf("conform: empty sample in homogeneity test")
	}
	r.N = int(na + nb)
	// Pool on the combined column expectation so both rows stay
	// aligned; the chi-square validity condition applies per cell.
	type col struct{ a, b float64 }
	var cols []col
	var ca, cb float64
	for i := range a {
		ca += a[i]
		cb += b[i]
		if (ca+cb)*math.Min(na, nb)/(na+nb) >= 5 {
			cols = append(cols, col{ca, cb})
			ca, cb = 0, 0
		}
	}
	if ca+cb > 0 {
		if len(cols) > 0 {
			cols[len(cols)-1].a += ca
			cols[len(cols)-1].b += cb
		} else {
			cols = append(cols, col{ca, cb})
		}
	}
	if len(cols) < 2 {
		return r, fmt.Errorf("conform: %d pooled columns, need 2", len(cols))
	}
	stat := 0.0
	for _, c := range cols {
		tot := c.a + c.b
		ea := tot * na / (na + nb)
		eb := tot * nb / (na + nb)
		stat += (c.a-ea)*(c.a-ea)/ea + (c.b-eb)*(c.b-eb)/eb
	}
	p := stats.ChiSquareP(stat, len(cols)-1)
	r.Stat, r.P = stat, p
	r.Pass = p >= alpha
	r.Detail = fmt.Sprintf("cols=%d", len(cols))
	return r, nil
}
