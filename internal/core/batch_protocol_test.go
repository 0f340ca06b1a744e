package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// batchTraces picks n program traces from the shared fixture corpus.
func batchTraces(t *testing.T, n int) [][]trace.WindowCounts {
	t.Helper()
	d, _ := fixtures(t)
	if len(d.Programs) < n {
		t.Fatalf("fixture corpus has %d programs, need %d", len(d.Programs), n)
	}
	traces := make([][]trace.WindowCounts, n)
	for i := range traces {
		traces[i] = d.Programs[i].Windows
	}
	return traces
}

// sameDecisions requires bit-level equality (verdict and score bits).
func sameDecisions(t *testing.T, phase string, a, b []hmd.Decision) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d decisions vs %d", phase, len(a), len(b))
	}
	for j := range a {
		if a[j].Malware != b[j].Malware ||
			math.Float64bits(a[j].Score) != math.Float64bits(b[j].Score) {
			t.Fatalf("%s: lane %d: %+v != %+v", phase, j, a[j], b[j])
		}
	}
}

// replayLanes replays every lane's draw log off-hardware through the
// scalar Replayer and requires the batched lane score bit-for-bit.
func replayLanes(t *testing.T, phase string, base *hmd.HMD, traces [][]trace.WindowCounts, decs []hmd.Decision, logs []faults.DrawLog) {
	t.Helper()
	if len(logs) != len(traces) {
		t.Fatalf("%s: %d logs for %d lanes", phase, len(logs), len(traces))
	}
	for j := range traces {
		rep := faults.NewReplayer(logs[j])
		got := base.WithFreshBuffers().DecideFromScores(
			base.WithFreshBuffers().ScoreWindowsUnit(rep, traces[j]))
		if math.Float64bits(got.Score) != math.Float64bits(decs[j].Score) {
			t.Fatalf("%s: lane %d replay score %v != batched %v", phase, j, got.Score, decs[j].Score)
		}
		if err := rep.Done(); err != nil {
			t.Fatalf("%s: lane %d: %v", phase, j, err)
		}
	}
}

// TestDetectTracesBatchReproducibleAndMoving pins the two stream
// properties batched serving rests on: identical (seed, pass, rate)
// reproduces bit-for-bit across detector instances, and consecutive
// passes on one detector re-roll their faults (the moving target).
// Each pass's per-lane draw logs replay off-hardware to the exact
// batched scores.
func TestDetectTracesBatchReproducibleAndMoving(t *testing.T) {
	_, base := fixtures(t)
	traces := batchTraces(t, 6)
	build := func() *StochasticHMD {
		s, err := New(base, Options{ErrorRate: 0.4, Seed: 101})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	decA, logsA, err := a.DetectTracesBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	decB, _, err := b.DetectTracesBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "same seed+pass", decA, decB)
	replayLanes(t, "pass 0", base, traces, decA, logsA)

	// Second pass on the same detector: fresh lane streams. At rate
	// 0.4 over thousands of multiplications per lane, identical draw
	// logs would mean the pass counter is not feeding the streams.
	_, logsA1, err := a.DetectTracesBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for j := range logsA {
		if len(logsA[j].Gaps) != len(logsA1[j].Gaps) {
			moved = true
			break
		}
		for i := range logsA[j].Gaps {
			if logsA[j].Gaps[i] != logsA1[j].Gaps[i] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("consecutive batched passes drew identical fault streams")
	}
}

// TestDetectTracesBatchReusesSources pins the pooled lane sources:
// passes of varying width on one detector, each re-seeding sources a
// wider or narrower earlier pass used, decide bit-for-bit what the
// same pass decides on freshly built sources.
func TestDetectTracesBatchReusesSources(t *testing.T) {
	_, base := fixtures(t)
	all := batchTraces(t, 6)
	s, err := New(base, Options{ErrorRate: 0.4, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	for pass, n := range []int{6, 3, 6, 1} {
		traces := all[:n]
		rate := s.inj.Rate()
		srcs := make([]rand.Source64, n)
		for j := range srcs {
			srcs[j] = rng.NewSource64(s.seed, batchPassLabel, uint64(pass), math.Float64bits(rate), uint64(j))
		}
		binj, err := faults.NewBatchInjector(rate, s.dist, srcs)
		if err != nil {
			t.Fatal(err)
		}
		want := base.WithFreshBuffers().DetectTracesUnit(binj, traces)
		got, _, err := s.DetectTracesBatch(traces, false)
		if err != nil {
			t.Fatal(err)
		}
		sameDecisions(t, fmt.Sprintf("pass %d (%d lanes)", pass, n), got, want)
	}
	if len(s.kit.srcs) != 6 {
		t.Errorf("pooled %d lane sources, want 6 (the widest pass)", len(s.kit.srcs))
	}
}

// TestSessionDetectBatchProtocol: a batched detection is one enter →
// infer → exit cycle — nominal voltage before and after, decisions
// reproducible across identically-built stacks, draw logs replayable.
func TestSessionDetectBatchProtocol(t *testing.T) {
	_, base := fixtures(t)
	traces := batchTraces(t, 5)
	build := func() *Session {
		s, err := New(base, Options{ErrorRate: 0.3, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(s)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sa, sb := build(), build()
	if !sa.AtNominal() {
		t.Fatal("not nominal before first batch")
	}
	decA, logsA, err := sa.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.AtNominal() {
		t.Fatal("batch left the plane undervolted")
	}
	decB, _, err := sb.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "identical stacks", decA, decB)
	replayLanes(t, "session batch", base, traces, decA, logsA)

	// record=false returns no logs.
	if _, logs, err := sa.DetectBatch(traces, false); err != nil || logs != nil {
		t.Fatalf("unrecorded batch: logs=%v err=%v", logs, err)
	}
}

// TestSessionDetectBatchFallback: a detector on a chaos plane, which
// once fell back to a sequential per-lane path, serves the whole group
// in one batched cycle that leaves the plane at nominal, with per-lane
// logs that replay exactly.
func TestSessionDetectBatchFallback(t *testing.T) {
	_, base := fixtures(t)
	traces := batchTraces(t, 4)
	s, _ := chaosFixture(t, chaos.Config{Seed: 37})
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	decs, logs, err := sess.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(traces) {
		t.Fatalf("%d decisions for %d traces", len(decs), len(traces))
	}
	for j, dec := range decs {
		if dec.Score < 0 || dec.Score > 1 {
			t.Fatalf("lane %d score %v", j, dec.Score)
		}
	}
	if !sess.AtNominal() {
		t.Fatal("chaos-plane batch left the plane undervolted")
	}
	replayLanes(t, "chaos plane", base, traces, decs, logs)
}

// TestEnableBatchStreams: every detector, chaos-plane ones included,
// derives its lane streams from Options.Seed (the name is kept from the
// opt-in that this replaced), so identically-built stacks reproduce
// each other's batches and the lanes replay. (Over an unarmed plane
// they match an ideal-hardware detector of the same seed:
// replay.TestChaosPlaneDrawsMatchIdeal.)
func TestEnableBatchStreams(t *testing.T) {
	_, base := fixtures(t)
	traces := batchTraces(t, 5)
	build := func() *Session {
		s, _ := chaosFixture(t, chaos.Config{Seed: 41})
		sess, err := NewSession(s)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sa, sb := build(), build()
	decA, logsA, err := sa.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.AtNominal() {
		t.Fatal("batch left the plane undervolted")
	}
	decB, _, err := sb.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "seed-derived stacks", decA, decB)
	replayLanes(t, "seed-derived", base, traces, decA, logsA)
}

// TestSupervisorDetectBatchHealthy: one batch is one protected cycle;
// the per-request counters (Detections, Protected, canary cadence)
// scale by the batch size so Health reads identically whether requests
// arrive singly or coalesced.
func TestSupervisorDetectBatchHealthy(t *testing.T) {
	traces := batchTraces(t, 5)
	s, _ := chaosFixture(t, chaos.Config{Seed: 43})
	sup, err := NewSupervisor(s, SupervisorConfig{
		Sleep:      func(time.Duration) {},
		CanaryMuls: 2000, // CanaryEvery defaults to 8
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, logs, err := sup.DetectBatch(nil, false); out != nil || logs != nil || err != nil {
		t.Fatalf("empty batch: %v %v %v", out, logs, err)
	}
	v, logs, err := sup.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	for j, verdict := range v {
		if verdict.Unprotected || verdict.Attempts != 1 {
			t.Fatalf("lane %d verdict %+v", j, verdict)
		}
	}
	if len(logs) != len(traces) {
		t.Fatalf("%d logs for %d lanes", len(logs), len(traces))
	}
	if !sup.Session().AtNominal() {
		t.Fatal("batch left the plane undervolted")
	}
	h := sup.Health()
	if h.Detections != 5 || h.Protected != 5 || h.Unprotected != 0 || h.Canaries != 0 {
		t.Errorf("after 5-lane batch: %+v", h)
	}
	// Three more lanes push sinceCanary to 8 = CanaryEvery: the canary
	// must fire on the batch boundary, proving the cadence counts
	// requests, not batches.
	if _, _, err := sup.DetectBatch(traces[:3], false); err != nil {
		t.Fatal(err)
	}
	h = sup.Health()
	if h.Detections != 8 || h.Protected != 8 || h.Canaries != 1 {
		t.Errorf("after 8 total lanes: %+v", h)
	}
}

// TestSupervisorDetectBatchDegradesAndRecovers mirrors the scalar
// breaker scenario with batches: an exhausted transient burst degrades
// the whole group together (deterministic nominal-voltage decisions,
// no logs), the breaker's cooldown clock advances per lane served, and
// a half-open probe restores protected batches once the burst ends.
func TestSupervisorDetectBatchDegradesAndRecovers(t *testing.T) {
	_, base := fixtures(t)
	traces := batchTraces(t, 4)
	s, env := chaosFixture(t, chaos.Config{Seed: 47})
	sup, err := NewSupervisor(s, SupervisorConfig{
		Sleep:            func(time.Duration) {},
		CanaryEvery:      -1,
		MaxRetries:       1,
		BreakerThreshold: 1,
		BreakerCooldown:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Trigger(chaos.Rule{Kind: chaos.TransientMSR, Duration: 8}); err != nil {
		t.Fatal(err)
	}
	v, logs, err := sup.DetectBatch(traces, true)
	if err != nil {
		t.Fatal(err)
	}
	if logs != nil {
		t.Fatal("degraded batch returned draw logs")
	}
	want := base.WithFreshBuffers().DetectTracesUnit(fxp.Exact{}, traces)
	for j, verdict := range v {
		if !verdict.Unprotected {
			t.Fatalf("lane %d not flagged Unprotected", j)
		}
		if verdict.Malware != want[j].Malware ||
			math.Float64bits(verdict.Score) != math.Float64bits(want[j].Score) {
			t.Fatalf("lane %d degraded verdict %+v != exact %+v", j, verdict.Decision, want[j])
		}
	}
	if sup.State() != Degraded {
		t.Fatalf("state = %v", sup.State())
	}
	h := sup.Health()
	if h.Detections != 4 || h.Unprotected != 4 || h.Failures != 4 || h.Trips != 1 {
		t.Errorf("degraded health = %+v", h)
	}
	// One 4-lane degraded batch advances the breaker clock past the
	// 2-tick cooldown; the burst has meanwhile dissipated, so the next
	// batch half-open probes and recovers.
	var recovered bool
	for i := 0; i < 4 && !recovered; i++ {
		v, _, err := sup.DetectBatch(traces, false)
		if err != nil {
			t.Fatal(err)
		}
		recovered = !v[0].Unprotected
	}
	if !recovered {
		t.Fatalf("batched breaker never recovered: %+v", sup.Health())
	}
	if h := sup.Health(); h.Recoveries != 1 || h.State != Healthy {
		t.Errorf("post-recovery health = %+v", h)
	}
}
