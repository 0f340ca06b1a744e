package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmd/internal/experiments"
)

// TestCompareGate pins the regression-gate semantics on synthetic
// reports: speedup ratios and alloc counts gate, raw ns/op does not
// (it is machine-dependent), and degradations inside the margin pass.
func TestCompareGate(t *testing.T) {
	base := &Report{
		MaxProcs: 8,
		Speedups: Speedups{
			ExactFusedVsScalar:         2.0,
			FaultySkipAheadVsBernoulli: 4.0,
			EvaluateShardedVsSerial:    3.0,
			BatchLane64VsScalarFaulty:  5.0,
			BatchLane64VsExactFused:    1.1,
			ServeBatchedVsScalar:       1.8,
			ServeBatchedIdleVsScalar:   0.9,
			ServeWireVsJSON:            1.3,
			JSONDecodeFastVsStd:        6.0,
			DetectLane1VsScalar:        1.6,
			TrainEpochVs1Proc:          1.8,
		},
		Results: []Result{
			{Name: "inference_exact_fused", NsPerOp: 100, AllocsPerOp: 0},
			{Name: "evaluate_sharded", NsPerOp: 1e6, AllocsPerOp: 40},
		},
	}
	clone := func(mut func(*Report)) *Report {
		r := *base
		r.Results = append([]Result(nil), base.Results...)
		mut(&r)
		return &r
	}

	if p := compare(clone(func(*Report) {}), base, 0.25); len(p) != 0 {
		t.Errorf("identical report flagged: %v", p)
	}
	// 10x slower ns/op on a different machine: not a regression.
	if p := compare(clone(func(r *Report) {
		for i := range r.Results {
			r.Results[i].NsPerOp *= 10
		}
	}), base, 0.25); len(p) != 0 {
		t.Errorf("ns/op wrongly gated: %v", p)
	}
	// Speedup degraded within the margin: passes.
	if p := compare(clone(func(r *Report) {
		r.Speedups.FaultySkipAheadVsBernoulli = 3.2
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin speedup drop flagged: %v", p)
	}
	// Speedup degraded past the margin: fails.
	if p := compare(clone(func(r *Report) {
		r.Speedups.FaultySkipAheadVsBernoulli = 2.9
	}), base, 0.25); len(p) != 1 {
		t.Errorf("25%%+ speedup regression not flagged: %v", p)
	}
	// Alloc growth past margin+slack: fails. Small absolute slack: passes.
	if p := compare(clone(func(r *Report) {
		r.Results[1].AllocsPerOp = 60
	}), base, 0.25); len(p) != 1 {
		t.Errorf("alloc regression not flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Results[0].AllocsPerOp = 2
	}), base, 0.25); len(p) != 0 {
		t.Errorf("2-alloc absolute slack not honored: %v", p)
	}
	// A brand-new benchmark name has no baseline: ignored, not fatal.
	if p := compare(clone(func(r *Report) {
		r.Results = append(r.Results, Result{Name: "new_bench", NsPerOp: 1, AllocsPerOp: 99})
	}), base, 0.25); len(p) != 0 {
		t.Errorf("unknown benchmark gated: %v", p)
	}
	// Batch-lane ratio collapse: fails regardless of proc count.
	if p := compare(clone(func(r *Report) {
		r.Speedups.BatchLane64VsScalarFaulty = 1.0
	}), base, 0.25); len(p) != 1 {
		t.Errorf("batch-lane regression not flagged: %v", p)
	}
	// The decode ratio is single-threaded: it gates on any proc count.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.JSONDecodeFastVsStd = 4.0
	}), base, 0.25); len(p) != 1 {
		t.Errorf("json decode regression not flagged: %v", p)
	}
	// The lane-1 detect ratio is single-threaded too: it gates on any
	// proc count, inside the margin passes and past it fails.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.DetectLane1VsScalar = 1.3
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin detect lane-1 drop flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.DetectLane1VsScalar = 1.1
	}), base, 0.25); len(p) != 1 {
		t.Errorf("detect lane-1 regression not flagged: %v", p)
	}
	// The idle-batcher ratio has one serial client, so it gates on any
	// proc count: inside the margin passes, an idle batcher that waits
	// for a timer again fails.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ServeBatchedIdleVsScalar = 0.7
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin idle batcher drop flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ServeBatchedIdleVsScalar = 0.05
	}), base, 0.25); len(p) != 1 {
		t.Errorf("idle batcher regression not flagged: %v", p)
	}
	// Its baseline is capped at 1.0: losing a 1.3x upside passes.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatchedIdleVsScalar = 0.8
	}), clone(func(r *Report) {
		r.Speedups.ServeBatchedIdleVsScalar = 1.3
	}), 0.25); len(p) != 0 {
		t.Errorf("idle batcher upside wrongly gated: %v", p)
	}
	// Parallel ratios on a 1-proc runner: the machine cannot shard or
	// overlap requests, so their gates are skipped, not failed.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.EvaluateShardedVsSerial = 1.0
		r.Speedups.ServeBatchedVsScalar = 0.9
		r.Speedups.TrainEpochVs1Proc = 1.0
	}), base, 0.25); len(p) != 0 {
		t.Errorf("1-proc parallel ratios wrongly gated: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Speedups.TrainEpochVs1Proc = 1.0
	}), base, 0.25); len(p) != 1 {
		t.Errorf("multi-proc training epoch regression not flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Speedups.EvaluateShardedVsSerial = 1.0
	}), base, 0.25); len(p) != 1 {
		t.Errorf("multi-proc sharding regression not flagged: %v", p)
	}
	// The serve baseline is capped at 1.0: losing this machine's 1.8x
	// upside passes, dropping well below scalar throughput fails.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatchedVsScalar = 1.05
	}), base, 0.25); len(p) != 0 {
		t.Errorf("serve upside wrongly gated: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatchedVsScalar = 0.5
	}), base, 0.25); len(p) != 1 {
		t.Errorf("serve throughput collapse not flagged: %v", p)
	}
	// The wire-vs-JSON baseline is capped at 1.0 the same way: losing
	// the binary path's upside passes, falling well behind JSON fails.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeWireVsJSON = 1.0
	}), base, 0.25); len(p) != 0 {
		t.Errorf("wire upside wrongly gated: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeWireVsJSON = 0.5
	}), base, 0.25); len(p) != 1 {
		t.Errorf("wire throughput collapse not flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ServeWireVsJSON = 0.5
	}), base, 0.25); len(p) != 0 {
		t.Errorf("1-proc wire ratio wrongly gated: %v", p)
	}
}

// TestLoadRoundTrip pins load() against write().
func TestLoadRoundTrip(t *testing.T) {
	rep := &Report{Scale: "quick", Seed: 1, Results: []Result{{Name: "x", NsPerOp: 2, Iterations: 3}}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := write(rep, path); err != nil {
		t.Fatal(err)
	}
	back, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scale != rep.Scale || len(back.Results) != 1 || back.Results[0] != rep.Results[0] {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing baseline error = %v, want IsNotExist", err)
	}
}

func TestRunAndWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~6 one-second benchmarks")
	}
	rep, err := run(experiments.Quick(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 22 {
		t.Fatalf("got %d results, want 22", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
	}
	if rep.Speedups.ExactFusedVsScalar <= 0 || rep.Speedups.FaultySkipAheadVsBernoulli <= 0 ||
		rep.Speedups.JSONDecodeFastVsStd <= 0 || rep.Speedups.DetectLane1VsScalar <= 0 ||
		rep.Speedups.ServeBatchedIdleVsScalar <= 0 || rep.Speedups.TrainEpochVs1Proc <= 0 {
		t.Errorf("speedups not computed: %+v", rep.Speedups)
	}
	if rep.NumMuls <= 0 {
		t.Errorf("NumMuls = %d", rep.NumMuls)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := write(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Speedups != rep.Speedups || len(back.Results) != len(rep.Results) {
		t.Errorf("round-trip mismatch")
	}
}

// TestSpeedupsOfCommittedReport pins speedupsOf to the ratios the
// committed report carries: every ratio is a pure function of its rows,
// which is what lets -rows recompute them after a partial refresh.
func TestSpeedupsOfCommittedReport(t *testing.T) {
	rep, err := load(filepath.Join("..", "..", "BENCH_inference.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := speedupsOf(rep.Results); got != rep.Speedups {
		t.Errorf("ratios recomputed from the committed rows %+v, committed %+v", got, rep.Speedups)
	}
}

// TestRefreshRows pins -rows: only the matching rows take their fresh
// measurement, every other row keeps its committed value and place,
// the ratios follow the merged rows, and a pattern that matches
// nothing (or is malformed) is an error.
func TestRefreshRows(t *testing.T) {
	names := []string{
		"inference_exact_fused", "inference_exact_scalar", "inference_faulty_skipahead",
		"inference_faulty_bernoulli", "evaluate_sharded", "evaluate_serial_1worker",
		"batch_faulty_1", "batch_faulty_4", "batch_faulty_16", "batch_faulty_64",
		"serve_detect_scalar", "serve_detect_batched_16", "serve_detect_scalar_serial",
		"serve_detect_batched_16_serial", "serve_json_tcp_batched_16", "serve_wire_stream_batched_16",
		"decode_json_16", "decode_json_16_std", "detect_program_16", "detect_program_16_scalar",
		"train_rprop_epoch", "train_rprop_epoch_1proc",
	}
	mk := func(ns float64, allocs int64) *Report {
		r := &Report{Scale: "quick", Count: 3}
		for i, n := range names {
			r.Results = append(r.Results, Result{Name: n, NsPerOp: ns * float64(i+1), AllocsPerOp: allocs, Iterations: 1})
		}
		r.Speedups = speedupsOf(r.Results)
		return r
	}
	prev, fresh := mk(100, 5), mk(50, 3)
	fresh.Count = 2
	got, err := refreshRows(prev, fresh, "detect_program_16, batch_faulty_*")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != prev.Count || len(got.Results) != len(prev.Results) {
		t.Fatalf("header or row count changed: count %d, %d rows", got.Count, len(got.Results))
	}
	for i, r := range got.Results {
		if r.Name != names[i] {
			t.Fatalf("row %d is %s, want %s in committed order", i, r.Name, names[i])
		}
		refreshed := r.Name == "detect_program_16" || strings.HasPrefix(r.Name, "batch_faulty_")
		want := prev.Results[i]
		if refreshed {
			want = fresh.Results[i]
		}
		if r != want {
			t.Errorf("%s: %+v, want %+v (refreshed %v)", r.Name, r, want, refreshed)
		}
	}
	if got.Speedups != speedupsOf(got.Results) {
		t.Errorf("ratios not recomputed from the merged rows")
	}
	if want := prev.Results[19].NsPerOp / fresh.Results[18].NsPerOp; got.Speedups.DetectLane1VsScalar != want {
		t.Errorf("detect ratio %v, want committed scalar over fresh lane row %v", got.Speedups.DetectLane1VsScalar, want)
	}
	if got.Speedups.ExactFusedVsScalar != prev.Speedups.ExactFusedVsScalar {
		t.Errorf("untouched ratio moved: %v, committed %v", got.Speedups.ExactFusedVsScalar, prev.Speedups.ExactFusedVsScalar)
	}
	// The inputs are not modified.
	if prev.Results[18].NsPerOp != 100*19 {
		t.Errorf("refresh mutated the committed report")
	}
	for _, bad := range []string{"detect_progam_16", "serve_[", " , "} {
		if _, err := refreshRows(prev, fresh, bad); err == nil {
			t.Errorf("-rows %q accepted", bad)
		}
	}

	// Rows the committed report does not have yet are appended when a
	// pattern names them, and their ratio follows.
	older := &Report{Scale: "quick", Count: 3, Results: prev.Results[:len(names)-2]}
	got, err = refreshRows(older, fresh, "train_*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(names) {
		t.Fatalf("%d rows after adding the training rows, want %d", len(got.Results), len(names))
	}
	for i, r := range got.Results {
		want := prev.Results[i]
		if i >= len(names)-2 {
			want = fresh.Results[i]
		}
		if r != want {
			t.Errorf("%s: %+v, want %+v", r.Name, r, want)
		}
	}
	if want := fresh.Results[21].NsPerOp / fresh.Results[20].NsPerOp; got.Speedups.TrainEpochVs1Proc != want {
		t.Errorf("training ratio %v, want %v", got.Speedups.TrainEpochVs1Proc, want)
	}
}
