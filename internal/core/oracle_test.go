package core

import (
	"fmt"
	"math"
	"testing"

	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// scalarOracle scores windows one multiplication at a time:
// fann.FixedNetwork.Run with a scalar faults.Injector built on
// rand.Rand (no Source64), wrapped in mulOnly's Mul walk — one
// Injector.Mul per product — and never the injector's span planner.
// It shares no fault-sampling path with the detector under test.
type scalarOracle struct {
	cfg hmd.Config
	fn  *fann.FixedNetwork
	inj *faults.Injector
}

func newScalarOracle(t *testing.T, base *hmd.HMD, rate float64, dist *faults.Distribution, seed uint64) *scalarOracle {
	t.Helper()
	inj, err := faults.NewInjector(rate, dist, rng.NewRand(seed, 0x5BD))
	if err != nil {
		t.Fatal(err)
	}
	return &scalarOracle{cfg: base.Config(), fn: base.Fixed().Clone(), inj: inj}
}

func (o *scalarOracle) score(t *testing.T, windows []trace.WindowCounts) []float64 {
	t.Helper()
	vecs, err := features.Extract(windows, o.cfg.FeatureSet, o.cfg.Period)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(vecs))
	for i, v := range vecs {
		scores[i] = o.fn.Run(mulOnly{o.inj}, v)[0]
	}
	return scores
}

func (o *scalarOracle) scoreTraced(t *testing.T, windows []trace.WindowCounts) ([]float64, faults.DrawLog) {
	t.Helper()
	var log faults.DrawLog
	o.inj.StartRecord(&log)
	scores := o.score(t, windows)
	o.inj.StopRecord()
	return scores, log
}

// mulOnly is the oracle's Mul walk: a one-lane fxp.BatchUnit that
// issues u.Mul once per product of each row, in index order, with
// SatAdd accumulation.
type mulOnly struct{ u fxp.Unit }

func (m mulOnly) DotRowBatch(f fxp.Format, w []fxp.Value, b *fxp.Batch, out []fxp.Value) {
	if len(out) > 1 {
		panic("mulOnly: one stream, one packed lane")
	}
	for j := range out {
		var acc fxp.Product
		for i, x := range b.Xs[:len(w)] {
			acc = fxp.SatAdd(acc, m.u.Mul(w[i], x))
		}
		out[j] = f.ScaleProduct(acc)
	}
}

func sameScoreBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: window %d score %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

func sameDrawLog(t *testing.T, what string, got, want faults.DrawLog) {
	t.Helper()
	if got.InitialGap != want.InitialGap || len(got.Gaps) != len(want.Gaps) || len(got.Bits) != len(want.Bits) {
		t.Fatalf("%s: draw log (initial %d, %d gaps, %d bits), oracle (initial %d, %d gaps, %d bits)",
			what, got.InitialGap, len(got.Gaps), len(got.Bits), want.InitialGap, len(want.Gaps), len(want.Bits))
	}
	for i := range got.Gaps {
		if got.Gaps[i] != want.Gaps[i] {
			t.Fatalf("%s: gap %d = %d, oracle %d", what, i, got.Gaps[i], want.Gaps[i])
		}
	}
	for i := range got.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("%s: bit %d = %d, oracle %d", what, i, got.Bits[i], want.Bits[i])
		}
	}
}

func sameStats(t *testing.T, what string, s *StochasticHMD, o *scalarOracle) {
	t.Helper()
	if got, want := s.inj.Stats(), o.inj.Stats(); got != want {
		t.Fatalf("%s: stats %d muls / %d faults, oracle %d / %d (or per-bit counts differ)",
			what, got.Muls, got.Faults, want.Muls, want.Faults)
	}
}

// topBitDist puts every fault on the highest faultable bit, so any row
// with a fault inflates past fxp.NoSatBound and the lane kernel must
// take its saturating dotPlannedSpan fallback.
func topBitDist(t *testing.T) *faults.Distribution {
	t.Helper()
	var w [faults.ProductBits]float64
	w[faults.MaxFaultBit] = 1
	d, err := faults.NewDistribution(w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStochasticMatchesScalarOracle holds StochasticHMD's library
// detection entry points — DetectProgram and ScoreWindows, the latter
// also with the injector recording — to the scalar Run/DotRow oracle
// on the same seed: score bits, draw logs and injector counters, over
// consecutive detections that carry a pending gap from one call into
// the next, at rates spanning exact (0), the log-inversion regime
// below the gap-table floor (0.004), the tabulated regime with tail
// resamples (0.01) and without (0.1, 0.5), and every-mul faulting
// (1), and with the saturating fallback forced.
func TestStochasticMatchesScalarOracle(t *testing.T) {
	d, base := fixtures(t)
	progs := d.Programs
	if len(progs) > 6 {
		progs = progs[:6]
	}
	dists := []struct {
		name string
		dist *faults.Distribution
	}{{"fig1", nil}, {"topbit", topBitDist(t)}}
	for _, dc := range dists {
		for _, rate := range []float64{0, 0.004, 0.01, 0.1, 0.5, 1} {
			const seed = 77
			s, err := New(base, Options{Seed: seed, Dist: dc.dist})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.inj.SetRate(rate); err != nil {
				t.Fatal(err)
			}
			o := newScalarOracle(t, base, rate, dc.dist, seed)
			for i, p := range progs {
				what := func(call string) string {
					return fmt.Sprintf("%s rate %v program %s %s", dc.name, rate, p.Program.Name, call)
				}
				switch i % 3 {
				case 0:
					got := s.DetectProgram(p.Windows)
					want := base.DecideFromScores(o.score(t, p.Windows))
					if got.Malware != want.Malware || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
						t.Fatalf("%s: %+v, oracle %+v", what("DetectProgram"), got, want)
					}
				case 1:
					sameScoreBits(t, what("ScoreWindows"), s.ScoreWindows(p.Windows), o.score(t, p.Windows))
				case 2:
					var gotLog faults.DrawLog
					s.inj.StartRecord(&gotLog)
					got := s.ScoreWindows(p.Windows)
					s.inj.StopRecord()
					want, wantLog := o.scoreTraced(t, p.Windows)
					sameScoreBits(t, what("recorded ScoreWindows"), got, want)
					sameDrawLog(t, what("recorded ScoreWindows"), gotLog, wantLog)
				}
				sameStats(t, what("stats"), s, o)
			}
		}
	}
}

// TestSessionMatchesScalarOracle repeats the oracle check through the
// Session enter/exit cycle. Each cycle is one batched pass at the rate
// enter restores, lane j drawing from its own stream (seed,
// batchPassLabel, pass, rate, j); a scalar oracle on that stream must
// score each lane bit for bit and draw the same log, whatever the
// batch width. No cycle consumes the detector's own stream.
func TestSessionMatchesScalarOracle(t *testing.T) {
	d, base := fixtures(t)
	progs := d.Programs
	if len(progs) > 6 {
		progs = progs[:6]
	}
	const seed = 91
	s, err := New(base, Options{ErrorRate: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Session.enter restores the calibrated depth, whose device rate is
	// the regulator's rate right now.
	enterRate := s.reg.ErrorRate()
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	for pass, n := range []int{1, 4, 1, 6} {
		traces := make([][]trace.WindowCounts, n)
		for j := range traces {
			traces[j] = progs[(pass+j)%len(progs)].Windows
		}
		decs, logs, err := sess.DetectBatch(traces, true)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range traces {
			what := fmt.Sprintf("pass %d lane %d", pass, j)
			inj, err := faults.NewInjector(enterRate, nil,
				rng.NewRand(seed, batchPassLabel, uint64(pass), math.Float64bits(enterRate), uint64(j)))
			if err != nil {
				t.Fatal(err)
			}
			o := &scalarOracle{cfg: base.Config(), fn: base.Fixed().Clone(), inj: inj}
			scores, wantLog := o.scoreTraced(t, w)
			if want := base.DecideFromScores(scores); decs[j].Malware != want.Malware ||
				math.Float64bits(decs[j].Score) != math.Float64bits(want.Score) {
				t.Fatalf("%s: %+v, oracle %+v", what, decs[j], want)
			}
			sameDrawLog(t, what, logs[j], wantLog)
		}
	}
	if st := s.inj.Stats(); st.Muls != 0 {
		t.Errorf("session cycles consumed the detector's own stream: %d muls", st.Muls)
	}
}

// TestSupervisedDetectionAllocs bounds the allocations of one
// supervised detection. The lane-1 pass reuses the network's batch
// arenas and the cached gap table, so a detection allocates only its
// feature vectors and score slices; rebuilding the gap table on every
// Session cycle, or a per-window batch view, would blow the bound.
func TestSupervisedDetectionAllocs(t *testing.T) {
	d, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(s, SupervisorConfig{CanaryEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	windows := d.Programs[0].Windows
	vecs, err := features.Extract(windows, base.Config().FeatureSet, base.Config().Period)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sup.DetectProgram(windows); err != nil {
			t.Fatal(err)
		}
	})
	// features.Extract: the aggregated-window slice, the vector list
	// and one vector per window; then the score slice. A few more for
	// slack.
	limit := float64(len(vecs) + 8)
	if allocs > limit {
		t.Fatalf("supervised detection of %d windows: %.0f allocs/op, want <= %.0f", len(vecs), allocs, limit)
	}
}
