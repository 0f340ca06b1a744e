package hmd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// scoreWindowsLane1 is the per-window scoring loop window lanes
// replaced: every window one lane-1 RunBatch on unit lane 0, each
// pass announcing and consuming its own span. It is the differential
// oracle for scoreLanes.
func scoreWindowsLane1(h *HMD, bu fxp.BatchUnit, windows []trace.WindowCounts) []float64 {
	vecs, err := features.Extract(windows, h.cfg.FeatureSet, h.cfg.Period)
	if err != nil {
		panic(err)
	}
	scores := make([]float64, len(vecs))
	var lane [1][]float64
	var out []float64
	for i, v := range vecs {
		lane[0] = v
		out = h.fixed.RunBatch(bu, lane[:], nil, out)
		scores[i] = out[0]
	}
	return scores
}

// windowLaneRates covers the four sampling regimes: no faults, the
// log-inversion sampler (below the gap table's minimum rate), the
// tabulated operating point, and every multiplication faulted.
var windowLaneRates = []float64{0, 0.003, 0.1, 1}

// laneHMDs caches one untrained detector per detection period: the
// oracle comparison needs a network's shape, not its accuracy.
var laneHMDs struct {
	once sync.Once
	h    [3]*HMD
	err  error
}

func laneHMD(t *testing.T, period int) *HMD {
	t.Helper()
	laneHMDs.once.Do(func() {
		dim, err := features.SetInstrFreq.Dim()
		if err != nil {
			laneHMDs.err = err
			return
		}
		net, err := fann.New(fann.Config{
			Layers: []int{dim, 32, 1},
			Hidden: fann.SigmoidSymmetric,
			Output: fann.Sigmoid,
			Seed:   7,
		})
		if err != nil {
			laneHMDs.err = err
			return
		}
		for p := 1; p <= 2; p++ {
			if laneHMDs.h[p], err = FromNetwork(net, Config{Period: p}); err != nil {
				laneHMDs.err = err
				return
			}
		}
	})
	if laneHMDs.err != nil {
		t.Fatal(laneHMDs.err)
	}
	return laneHMDs.h[period].WithFreshBuffers()
}

// laneSources builds n lane sources twice over, identically seeded.
func laneSources(seed uint64, n int) (a, b []rand.Source64) {
	a = make([]rand.Source64, n)
	b = make([]rand.Source64, n)
	for l := range a {
		a[l] = rng.NewSource64(seed, 0x1A7E, uint64(l))
		b[l] = rng.NewSource64(seed, 0x1A7E, uint64(l))
	}
	return a, b
}

// sameStream requires two injectors fed by identically seeded sources
// to be in the same state: equal draw logs, counters and pending gap,
// and the same next 100 draws from their sources.
func sameStream(t *testing.T, what string, got, want *faults.Injector, gotLog, wantLog *faults.DrawLog, gotSrc, wantSrc rand.Source64) {
	t.Helper()
	if gotLog != nil {
		if gotLog.InitialGap != wantLog.InitialGap || !slices.Equal(gotLog.Gaps, wantLog.Gaps) || !slices.Equal(gotLog.Bits, wantLog.Bits) {
			t.Fatalf("%s: draw log %d gaps/%d bits (initial %d), oracle %d gaps/%d bits (initial %d)",
				what, len(gotLog.Gaps), len(gotLog.Bits), gotLog.InitialGap,
				len(wantLog.Gaps), len(wantLog.Bits), wantLog.InitialGap)
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, oracle %+v", what, got.Stats(), want.Stats())
	}
	var gp, wp faults.DrawLog
	got.StartRecord(&gp)
	got.StopRecord()
	want.StartRecord(&wp)
	want.StopRecord()
	if gp.InitialGap != wp.InitialGap {
		t.Fatalf("%s: pending gap %d, oracle %d", what, gp.InitialGap, wp.InitialGap)
	}
	for i := 0; i < 100; i++ {
		if g, w := gotSrc.Uint64(), wantSrc.Uint64(); g != w {
			t.Fatalf("%s: draw %d after the pass: %#x, oracle %#x", what, i, g, w)
		}
	}
}

// FuzzWindowLanes holds window lanes to the per-window lane-1 loop they
// replaced: 1-6 programs of 1-40 decision windows (more than 64 packed
// lanes split a program's stream across chunks), detection period 1 or
// 2, every sampling regime, recording on and off. Batched detection is
// compared per program against the lane-1 loop on the same lane's
// injector, both without stored sums (DetectTracesUnit, which
// quantizes each chunk) and with them (DetectSetUnit over an extracted
// Set), and so is the exact unit; scalar scoring (ScoreWindowsUnit)
// is compared against the lane-1 loop on an identically seeded
// injector: scores and decisions bit for bit, then the streams
// themselves.
func FuzzWindowLanes(f *testing.F) {
	f.Add(uint64(1), []byte{16}, false, uint8(2), false)
	f.Add(uint64(2), []byte{40, 40, 3, 1, 40, 17}, false, uint8(2), true)
	f.Add(uint64(3), []byte{39, 2, 30}, true, uint8(1), true)
	f.Add(uint64(4), []byte{64, 5}, false, uint8(3), false)
	f.Add(uint64(5), []byte{7, 0, 25}, true, uint8(0), true)
	f.Add(uint64(6), []byte{22, 22, 22}, false, uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, lens []byte, period2 bool, rateSel uint8, record bool) {
		if len(lens) == 0 {
			return
		}
		lens = lens[:min(len(lens), 6)]
		period := 1
		if period2 {
			period = 2
		}
		rate := windowLaneRates[int(rateSel)%len(windowLaneRates)]
		h := laneHMD(t, period)
		traces := make([][]trace.WindowCounts, len(lens))
		for j, n := range lens {
			prog, err := trace.NewProgram(trace.MalwareFamilies()[j%trace.NumMalwareFamilies], j, seed)
			if err != nil {
				t.Fatal(err)
			}
			if traces[j], err = prog.Trace((int(n)%40+1)*period, 64); err != nil {
				t.Fatal(err)
			}
		}

		// Batched detection: every program's windows packed as lanes.
		srcs, oracleSrcs := laneSources(seed, len(traces))
		b, err := faults.NewBatchInjector(rate, nil, srcs)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := faults.NewBatchInjector(rate, nil, oracleSrcs)
		if err != nil {
			t.Fatal(err)
		}
		var logs, oracleLogs []faults.DrawLog
		if record {
			logs = make([]faults.DrawLog, len(traces))
			oracleLogs = make([]faults.DrawLog, len(traces))
			for j := range traces {
				b.Lane(j).StartRecord(&logs[j])
				ob.Lane(j).StartRecord(&oracleLogs[j])
			}
		}
		got := h.DetectTracesUnit(b, traces)
		oh := h.WithFreshBuffers()
		for j, w := range traces {
			want := oh.DecideFromScores(scoreWindowsLane1(oh, ob.Lane(j), w))
			if got[j].Malware != want.Malware || math.Float64bits(got[j].Score) != math.Float64bits(want.Score) {
				t.Fatalf("rate %v program %d of %v: window lanes %+v, lane-1 loop %+v", rate, j, lens, got[j], want)
			}
		}
		for j := range traces {
			var lg, olg *faults.DrawLog
			if record {
				b.Lane(j).StopRecord()
				ob.Lane(j).StopRecord()
				lg, olg = &logs[j], &oracleLogs[j]
			}
			sameStream(t, "batched lane", b.Lane(j), ob.Lane(j), lg, olg, srcs[j], oracleSrcs[j])
		}

		// The same programs over an extracted set: stored sums.
		programs := make([]dataset.TracedProgram, len(traces))
		for j, w := range traces {
			programs[j] = dataset.TracedProgram{Windows: w}
		}
		set, err := NewSet(h, programs)
		if err != nil {
			t.Fatal(err)
		}
		setSrcs, setOracleSrcs := laneSources(seed, len(traces))
		sb, err := faults.NewBatchInjector(rate, nil, setSrcs)
		if err != nil {
			t.Fatal(err)
		}
		sob, err := faults.NewBatchInjector(rate, nil, setOracleSrcs)
		if err != nil {
			t.Fatal(err)
		}
		if record {
			for j := range traces {
				sb.Lane(j).StartRecord(&logs[j])
				sob.Lane(j).StartRecord(&oracleLogs[j])
			}
		}
		// Programs [1, n) first, on lanes 0..n-2, then program 0 alone:
		// a batch need not start at the set's first program.
		setGot := make([]Decision, len(traces))
		h.DetectSetUnit(sb, set, 1, len(traces), setGot[1:])
		for j := 1; j < len(traces); j++ {
			want := oh.DecideFromScores(scoreWindowsLane1(oh, sob.Lane(j-1), traces[j]))
			if setGot[j] != want {
				t.Fatalf("rate %v program %d of %v: set lanes %+v, lane-1 loop %+v", rate, j, lens, setGot[j], want)
			}
		}
		if record {
			for j := 1; j < len(traces); j++ {
				sb.Lane(j - 1).StopRecord()
				sob.Lane(j - 1).StopRecord()
				sameStream(t, "set lane", sb.Lane(j-1), sob.Lane(j-1), &logs[j], &oracleLogs[j], setSrcs[j-1], setOracleSrcs[j-1])
			}
		}
		exact := make([]Decision, len(traces))
		h.DetectSetUnit(fxp.Exact{}, set, 0, len(traces), exact)
		for j, dec := range h.DetectTracesUnit(fxp.Exact{}, traces) {
			want := oh.DecideFromScores(scoreWindowsLane1(oh, fxp.Exact{}, traces[j]))
			if dec != want || exact[j] != want {
				t.Fatalf("exact program %d of %v: window lanes %+v, set lanes %+v, lane-1 loop %+v", j, lens, dec, exact[j], want)
			}
		}

		// Scalar scoring: one program's windows on one injector.
		for j, w := range traces {
			src, oracleSrc := laneSources(seed^0x5CA1, 1)
			in, err := faults.NewInjectorSource(rate, nil, src[0])
			if err != nil {
				t.Fatal(err)
			}
			oin, err := faults.NewInjectorSource(rate, nil, oracleSrc[0])
			if err != nil {
				t.Fatal(err)
			}
			var lg, olg faults.DrawLog
			if record {
				in.StartRecord(&lg)
				oin.StartRecord(&olg)
			}
			scores := h.ScoreWindowsUnit(in, w)
			want := scoreWindowsLane1(oh, oin, w)
			if len(scores) != len(want) {
				t.Fatalf("program %d: %d scores, oracle %d", j, len(scores), len(want))
			}
			for i := range want {
				if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
					t.Fatalf("rate %v program %d window %d: window lanes %v, lane-1 loop %v", rate, j, i, scores[i], want[i])
				}
			}
			if record {
				in.StopRecord()
				oin.StopRecord()
				sameStream(t, "scalar", in, oin, &lg, &olg, src[0], oracleSrc[0])
			} else {
				sameStream(t, "scalar", in, oin, nil, nil, src[0], oracleSrc[0])
			}
		}
	})
}

// TestScoreWindowsUnitScalarUnits covers the batch forms of the units
// other than the serving injector — a TruncatedUnit, and a
// faults.Replayer over a draw log recorded by scoring the same trace on
// an injector. Over a trace of more windows than one lane chunk, each
// must match the test-local Mul walk: one fann Run per window through
// mulOnly, one Mul per product in the order fann's tests hold to their
// scalar float-activation reference — the truncated unit's own Mul,
// and for the replayer a Mul-walked injector on the recording's
// stream. The replayer must also reproduce the recorded scores and
// drain its log.
func TestScoreWindowsUnitScalarUnits(t *testing.T) {
	h := laneHMD(t, 1)
	prog, err := trace.NewProgram(trace.MalwareFamilies()[1], 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := prog.Trace(laneChunk+6, 64)
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := features.Extract(windows, h.cfg.FeatureSet, h.cfg.Period)
	if err != nil {
		t.Fatal(err)
	}
	ref := h.fixed.Clone()
	perWindow := func(u fxp.Unit) []float64 {
		out := make([]float64, len(vecs))
		for i, v := range vecs {
			out[i] = ref.Run(mulOnly{u}, v)[0]
		}
		return out
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: window %d score %v, want %v", what, i, got[i], want[i])
			}
		}
	}

	trunc := faults.TruncatedUnit{DropBits: 6}
	same("truncated", h.ScoreWindowsUnit(trunc, windows), perWindow(trunc))

	inj, err := faults.NewInjectorSource(0.1, nil, rng.NewSource64(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	var log faults.DrawLog
	inj.StartRecord(&log)
	recorded := h.ScoreWindowsUnit(inj, windows)
	inj.StopRecord()
	if log.Faults() == 0 {
		t.Fatal("recording drew no faults")
	}
	walked, err := faults.NewInjector(0.1, nil, rng.NewRand(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep := faults.NewReplayer(log)
	replayed := h.ScoreWindowsUnit(rep, windows)
	same("replayer", replayed, perWindow(walked))
	same("replayed vs recorded", replayed, recorded)
	if err := rep.Done(); err != nil {
		t.Fatal(err)
	}
}

// mulOnly is the test-local Mul walk: a one-lane fxp.BatchUnit that
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
