package hmd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"shmd/internal/dataset"
	"shmd/internal/faults"
	"shmd/internal/rng"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// tracedSharder is a stochastic SetDetector for tests: program idx
// scores on an injector over its own seed-derived stream, mirroring
// how core.StochasticHMD evaluates sets. When logs is non-nil, program
// idx's draw log is recorded into logs[idx] (jobs cover disjoint
// programs, so concurrent jobs write disjoint entries).
type tracedSharder struct {
	*HMD
	rate float64
	seed uint64
	logs []faults.DrawLog
}

func (s *tracedSharder) stream(idx int) rand.Source64 { return rng.NewSource64(s.seed, uint64(idx)) }

func (s *tracedSharder) DetectSet(set *Set, lo, hi int, out []Decision) {
	srcs := make([]rand.Source64, hi-lo)
	for j := range srcs {
		srcs[j] = s.stream(lo + j)
	}
	inj, err := faults.NewBatchInjector(s.rate, nil, srcs)
	if err != nil {
		panic(err)
	}
	var logs []faults.DrawLog
	if s.logs != nil {
		logs = s.logs[lo:hi]
	}
	for j := range logs {
		inj.Lane(j).StartRecord(&logs[j])
	}
	s.HMD.WithFreshBuffers().DetectSetUnit(inj, set, lo, hi, out)
	for j := range logs {
		inj.Lane(j).StopRecord()
	}
}

// programDecision is program idx scored alone, window by window,
// through a scalar injector on its stream.
func (s *tracedSharder) programDecision(idx int, windows []trace.WindowCounts) Decision {
	inj, err := faults.NewInjectorSource(s.rate, nil, s.stream(idx))
	if err != nil {
		panic(err)
	}
	h := s.HMD.WithFreshBuffers()
	return h.DecideFromScores(h.ScoreWindowsUnit(inj, windows))
}

// evaluateTraced is EvaluateSet with a sink, collecting the traces.
func evaluateTraced(t *testing.T, d SetDetector, programs []dataset.TracedProgram, workers int) (stats.Confusion, []DecisionTrace) {
	t.Helper()
	var traces []DecisionTrace
	c := evaluateWith(t, d, programs, EvalOptions{Workers: workers,
		Sink: func(tr DecisionTrace) { traces = append(traces, tr) }})
	return c, traces
}

// TestEvaluateTracedMatchesEvaluate pins that the traced evaluation
// path produces the same confusion matrix as the plain one for both a
// deterministic detector and a seed-sharded stochastic one, and that
// the sink sees every program exactly once, in order.
func TestEvaluateTracedMatchesEvaluate(t *testing.T) {
	d, h := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)

	c, traces := evaluateTraced(t, h, test, 0)
	if len(traces) != len(test) {
		t.Fatalf("sink saw %d programs of %d", len(traces), len(test))
	}
	for i, tr := range traces {
		if tr.Program != i {
			t.Fatalf("sink got program %d, want %d (must be in order)", tr.Program, i)
		}
	}
	if want := Evaluate(h, test); c != want {
		t.Fatalf("traced confusion %+v != plain %+v", c, want)
	}

	logs := make([]faults.DrawLog, len(test))
	sharder := &tracedSharder{HMD: h, rate: 0.5, seed: 77, logs: logs}
	ct, traces := evaluateTraced(t, sharder, test, 0)
	if ct == c {
		t.Log("stochastic confusion equals deterministic one (possible, but worth noting)")
	}
	sharder.logs = nil
	if want := Evaluate(sharder, test); ct != want {
		t.Fatalf("traced stochastic confusion %+v != plain %+v", ct, want)
	}
	faulted := 0
	for i, tr := range traces {
		if logs[i].Faults() > 0 {
			faulted++
		}
		if want := sharder.programDecision(i, test[i].Windows); tr.Decision != want {
			t.Fatalf("program %d: set decision %+v, alone %+v", i, tr.Decision, want)
		}
	}
	if faulted == 0 {
		t.Fatal("no evaluated program recorded any faults at rate 0.5")
	}
}

// TestTracedDrawsReplayBitIdentically replays every recorded draw log
// through a faults.Replayer and checks each program's score is
// reproduced bit-for-bit, with the log exactly drained.
func TestTracedDrawsReplayBitIdentically(t *testing.T) {
	d, h := fixtures(t)
	split, err := d.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}
	test := d.Select(split.Test)
	if len(test) > 40 {
		test = test[:40]
	}

	sharder := &tracedSharder{HMD: h, rate: 0.3, seed: 101, logs: make([]faults.DrawLog, len(test))}
	_, traces := evaluateTraced(t, sharder, test, 0)
	for _, tr := range traces {
		rep := faults.NewReplayer(sharder.logs[tr.Program])
		dec := h.DecideFromScores(h.ScoreWindowsUnit(rep, tr.Windows))
		if err := rep.Done(); err != nil {
			t.Fatalf("program %d: %v", tr.Program, err)
		}
		if dec.Malware != tr.Decision.Malware ||
			math.Float64bits(dec.Score) != math.Float64bits(tr.Decision.Score) {
			t.Fatalf("program %d: replayed %+v, recorded %+v", tr.Program, dec, tr.Decision)
		}
	}
}

// TestEvaluateTracedWorkerInvariance pins that traces and draw logs
// (not just the confusion matrix) are identical for any worker count
// and batch size.
func TestEvaluateTracedWorkerInvariance(t *testing.T) {
	d, h := fixtures(t)
	test := d.Programs[:24]
	collect := func(workers, batch int) ([]DecisionTrace, []faults.DrawLog) {
		sharder := &tracedSharder{HMD: h, rate: 0.4, seed: 13, logs: make([]faults.DrawLog, len(test))}
		var traces []DecisionTrace
		evaluateWith(t, sharder, test, EvalOptions{Workers: workers, Batch: batch,
			Sink: func(tr DecisionTrace) { traces = append(traces, tr) }})
		return traces, sharder.logs
	}
	one, oneLogs := collect(1, 0)
	many, manyLogs := collect(8, 5)
	for i := range one {
		a, b := oneLogs[i], manyLogs[i]
		if one[i].Decision != many[i].Decision || a.InitialGap != b.InitialGap ||
			!slices.Equal(a.Gaps, b.Gaps) || !slices.Equal(a.Bits, b.Bits) {
			t.Fatalf("program %d: traces differ across worker counts", i)
		}
	}
}
