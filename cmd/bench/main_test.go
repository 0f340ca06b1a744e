package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
			EvaluateShardedVsSerial:   3.0,
			BatchLane64VsScalarFaulty: 5.0,
			BatchLane64VsExactFused:   1.1,
			ServeBatch16VsBatch1:      1.8,
			ServeBatch16IdleVsBatch1:  0.9,
			ServeWireVsJSON:           1.3,
			JSONDecodeFastVsStd:       6.0,
			TrainEpochVs1Proc:         1.8,
			LaneReseedVsMathRand:      5.0,
			SweepCellVsEvaluate:       1.6,
			ExactMACSIMDVsGo:          3.8,
		},
		Results: []Result{
			{Name: "inference_exact_fused", NsPerOp: 100, AllocsPerOp: 0},
			{Name: "evaluate_sharded", NsPerOp: 1e6, AllocsPerOp: 40},
			{Name: "lane_reseed", NsPerOp: 2000, AllocsPerOp: 0},
			{Name: "accuracy_sweep_1proc", NsPerOp: 4e8, AllocsPerOp: 800},
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
		r.Speedups.BatchLane64VsExactFused = 0.9
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin speedup drop flagged: %v", p)
	}
	// Speedup degraded past the margin: fails.
	if p := compare(clone(func(r *Report) {
		r.Speedups.BatchLane64VsExactFused = 0.8
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
	// Lane re-seeding is single-threaded: its ratio gates on any proc
	// count, and its row allows no allocation at all.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.LaneReseedVsMathRand = 4.0
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin reseed drop flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.LaneReseedVsMathRand = 1.2
	}), base, 0.25); len(p) != 1 {
		t.Errorf("reseed regression not flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Results[2].AllocsPerOp = 1
	}), base, 0.25); len(p) != 1 {
		t.Errorf("allocating lane reseed not flagged: %v", p)
	}
	// The sweep-cell ratio compares two single-threaded rows: it gates
	// on any proc count, and the sweep row is under the allocs gate.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.SweepCellVsEvaluate = 1.3
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin sweep-cell drop flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.SweepCellVsEvaluate = 1.0
	}), base, 0.25); len(p) != 1 {
		t.Errorf("sweep-cell regression not flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Results[3].AllocsPerOp = 1100
	}), base, 0.25); len(p) != 1 {
		t.Errorf("sweep alloc regression not flagged: %v", p)
	}
	// The idle-batcher ratio has one serial client, so it gates on any
	// proc count: inside the margin passes, an idle batcher that waits
	// for a timer again fails.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ServeBatch16IdleVsBatch1 = 0.7
	}), base, 0.25); len(p) != 0 {
		t.Errorf("in-margin idle batcher drop flagged: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ServeBatch16IdleVsBatch1 = 0.05
	}), base, 0.25); len(p) != 1 {
		t.Errorf("idle batcher regression not flagged: %v", p)
	}
	// Its baseline is capped at 1.0: losing a 1.3x upside passes.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatch16IdleVsBatch1 = 0.8
	}), clone(func(r *Report) {
		r.Speedups.ServeBatch16IdleVsBatch1 = 1.3
	}), 0.25); len(p) != 0 {
		t.Errorf("idle batcher upside wrongly gated: %v", p)
	}
	// Parallel ratios on a 1-proc runner: the machine cannot shard or
	// overlap requests, so their gates are skipped, not failed.
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.EvaluateShardedVsSerial = 1.0
		r.Speedups.ServeBatch16VsBatch1 = 0.9
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
	// upside passes, dropping well below batch-of-one throughput fails.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatch16VsBatch1 = 1.05
	}), base, 0.25); len(p) != 0 {
		t.Errorf("serve upside wrongly gated: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.Speedups.ServeBatch16VsBatch1 = 0.5
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
	// The exact-MAC baseline is capped at 1.0: a CPU without the SIMD
	// kernel runs the Go kernel on both sides and passes, a selected
	// kernel slower than the Go one fails, on any proc count.
	if p := compare(clone(func(r *Report) {
		r.Speedups.ExactMACSIMDVsGo = 1.0
	}), base, 0.25); len(p) != 0 {
		t.Errorf("portable-kernel MAC ratio wrongly gated: %v", p)
	}
	if p := compare(clone(func(r *Report) {
		r.MaxProcs = 1
		r.Speedups.ExactMACSIMDVsGo = 0.5
	}), base, 0.25); len(p) != 1 {
		t.Errorf("slower selected MAC kernel not flagged: %v", p)
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
	rep, err := run(experiments.Quick(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 25 {
		t.Fatalf("got %d results, want 25", len(rep.Results))
	}
	// modelRows lists the rows that need the trained environment; the
	// rest are the two lane re-seeding rows, the wire codec row and the
	// two exact-MAC rows.
	var names []string
	for _, r := range rep.Results {
		names = append(names, r.Name)
	}
	if want := append(append([]string(nil), modelRows...), "lane_reseed", "lane_reseed_mathrand", codecRow, macRow, macRowGo); !slices.Equal(names, want) {
		t.Errorf("rows %v, want %v", names, want)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
	}
	if rep.Speedups.BatchLane64VsScalarFaulty <= 0 || rep.Speedups.BatchLane64VsExactFused <= 0 ||
		rep.Speedups.JSONDecodeFastVsStd <= 0 ||
		rep.Speedups.ServeBatch16IdleVsBatch1 <= 0 || (rep.MaxProcs > 1) != (rep.Speedups.TrainEpochVs1Proc > 0) ||
		rep.Speedups.LaneReseedVsMathRand <= 0 || rep.Speedups.SweepCellVsEvaluate <= 0 ||
		rep.Speedups.ExactMACSIMDVsGo <= 0 {
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
	if got := speedupsOf(rep.Results, rep.MaxProcs); got != rep.Speedups {
		t.Errorf("ratios recomputed from the committed rows %+v, committed %+v", got, rep.Speedups)
	}
}

// TestRefreshRows pins -rows: only the matching rows take their fresh
// measurement, every other row keeps its committed value and place,
// the ratios follow the merged rows, and a pattern that matches
// nothing (or is malformed) is an error.
func TestRefreshRows(t *testing.T) {
	names := []string{
		"inference_exact_fused", "inference_faulty_skipahead",
		"evaluate_sharded", "evaluate_serial_1worker",
		"batch_faulty_1", "batch_faulty_4", "batch_faulty_16", "batch_faulty_64",
		"serve_detect_batch1", "serve_detect_batched_16", "serve_detect_batch1_serial",
		"serve_detect_batched_16_serial", "serve_json_tcp_batched_16", "serve_wire_stream_batched_16",
		"decode_json_16", "decode_json_16_std", "detect_program_16",
		"train_rprop_epoch", "train_rprop_epoch_1proc",
	}
	mk := func(ns float64, allocs int64) *Report {
		r := &Report{Scale: "quick", Count: 3, MaxProcs: 2}
		for i, n := range names {
			r.Results = append(r.Results, Result{Name: n, NsPerOp: ns * float64(i+1), AllocsPerOp: allocs, Iterations: 1})
		}
		r.Speedups = speedupsOf(r.Results, r.MaxProcs)
		return r
	}
	prev, fresh := mk(100, 5), mk(50, 3)
	fresh.Count = 2
	got, err := refreshRows(prev, fresh, "detect_program_16, decode_json_16, batch_faulty_*")
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
		refreshed := r.Name == "detect_program_16" || r.Name == "decode_json_16" || strings.HasPrefix(r.Name, "batch_faulty_")
		want := prev.Results[i]
		if refreshed {
			want = fresh.Results[i]
		}
		if r != want {
			t.Errorf("%s: %+v, want %+v (refreshed %v)", r.Name, r, want, refreshed)
		}
	}
	if got.Speedups != speedupsOf(got.Results, got.MaxProcs) {
		t.Errorf("ratios not recomputed from the merged rows")
	}
	if want := prev.Results[15].NsPerOp / fresh.Results[14].NsPerOp; got.Speedups.JSONDecodeFastVsStd != want {
		t.Errorf("decode ratio %v, want committed std over fresh fast row %v", got.Speedups.JSONDecodeFastVsStd, want)
	}
	if got.Speedups.ServeWireVsJSON != prev.Speedups.ServeWireVsJSON {
		t.Errorf("untouched ratio moved: %v, committed %v", got.Speedups.ServeWireVsJSON, prev.Speedups.ServeWireVsJSON)
	}
	// The inputs are not modified.
	if prev.Results[16].NsPerOp != 100*17 {
		t.Errorf("refresh mutated the committed report")
	}
	for _, bad := range []string{"detect_progam_16", "serve_[", " , ", "lane_reseed,"} {
		if _, err := refreshRows(prev, fresh, bad); err == nil {
			t.Errorf("-rows %q accepted", bad)
		}
	}

	// Rows the committed report does not have yet are appended when a
	// pattern names them, and their ratio follows.
	older := &Report{Scale: "quick", Count: 3, MaxProcs: 2, Results: prev.Results[:len(names)-2]}
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
	if want := fresh.Results[18].NsPerOp / fresh.Results[17].NsPerOp; got.Speedups.TrainEpochVs1Proc != want {
		t.Errorf("training ratio %v, want %v", got.Speedups.TrainEpochVs1Proc, want)
	}

	// A run with -rows measures only the rows it names: the lane
	// re-seeding rows need no trained model, so none is built and no
	// other row appears. Merged into the committed report, they are
	// appended and their ratio follows; every other row is untouched.
	sel, err := parseRows("lane_reseed*")
	if err != nil {
		t.Fatal(err)
	}
	partial, err := run(experiments.Quick(1), 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	var measured []string
	for _, r := range partial.Results {
		measured = append(measured, r.Name)
	}
	if want := []string{"lane_reseed", "lane_reseed_mathrand"}; !slices.Equal(measured, want) {
		t.Fatalf("-rows lane_reseed* measured %v, want only %v", measured, want)
	}
	if partial.NumMuls != 0 {
		t.Errorf("-rows lane_reseed* built the trained environment (NumMuls %d)", partial.NumMuls)
	}
	got, err = refreshRows(prev, partial, "lane_reseed*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(names)+2 || !slices.Equal(got.Results[:len(names)], prev.Results) {
		t.Fatalf("merging the reseed rows changed the committed rows")
	}
	if want := partial.Results[1].NsPerOp / partial.Results[0].NsPerOp; got.Speedups.LaneReseedVsMathRand != want {
		t.Errorf("reseed ratio %v, want %v", got.Speedups.LaneReseedVsMathRand, want)
	}
}

// TestOneProcParallelRatios runs the bench at GOMAXPROCS 1: the
// parallel-vs-serial ratios are not measurable there, so the report
// leaves them out of its JSON and the summary prints a note in their
// place instead of a ~1.0x "speedup"; every other ratio is computed.
func TestOneProcParallelRatios(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sel, err := parseRows("lane_reseed*,exact_mac_*")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(experiments.Quick(1), 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxProcs != 1 {
		t.Fatalf("report at GOMAXPROCS 1 records %d procs", rep.MaxProcs)
	}
	// The parallel rows' measurements, as a 1-proc run records them:
	// each side serial, about the same.
	for _, name := range []string{"evaluate_sharded", "evaluate_serial_1worker", "train_rprop_epoch", "train_rprop_epoch_1proc"} {
		rep.Results = append(rep.Results, Result{Name: name, NsPerOp: 1e6, Iterations: 1})
	}
	rep.Speedups = speedupsOf(rep.Results, rep.MaxProcs)
	if rep.Speedups.LaneReseedVsMathRand <= 0 || rep.Speedups.ExactMACSIMDVsGo <= 0 {
		t.Errorf("serial ratios not computed at 1 proc: %+v", rep.Speedups)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var sum strings.Builder
	printSummary(&sum, rep)
	for _, key := range []string{"evaluate_sharded_vs_serial", "train_epoch_vs_1proc"} {
		if strings.Contains(string(data), key) {
			t.Errorf("1-proc report carries %s: %s", key, data)
		}
	}
	for _, line := range []string{"evaluate sharded vs serial:   not measurable on 1 proc", "train epoch vs 1 proc:        not measurable on 1 proc"} {
		if !strings.Contains(sum.String(), line) {
			t.Errorf("summary lacks %q:\n%s", line, sum.String())
		}
	}

	// Refreshed at 1 proc into a report taken at 2, the merged report
	// cannot vouch for its parallel ratios either.
	prev := &Report{MaxProcs: 2, Results: rep.Results}
	prev.Speedups = speedupsOf(prev.Results, prev.MaxProcs)
	if prev.Speedups.EvaluateShardedVsSerial == 0 {
		t.Fatal("test construction broken: 2-proc report has no sharding ratio")
	}
	got, err := refreshRows(prev, rep, "lane_reseed*")
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxProcs != 1 || got.Speedups.EvaluateShardedVsSerial != 0 || got.Speedups.TrainEpochVs1Proc != 0 {
		t.Errorf("1-proc refresh of a 2-proc report: %d procs, ratios %+v", got.MaxProcs, got.Speedups)
	}
}

// TestCodecPipelineAllocsFlat pins the SHMDWIRE DETECT ingest path to
// per-request allocations: once its buffers are warm, a request of
// many windows per program allocates no more than one of few.
func TestCodecPipelineAllocsFlat(t *testing.T) {
	allocs := func(windows int) float64 {
		op, err := codecPipeline(codecPrograms, windows)
		if err != nil {
			t.Fatal(err)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(2), allocs(codecWindows*4)
	if many > few {
		t.Errorf("%d windows per program allocate %v times per request, 2 windows %v", codecWindows*4, many, few)
	}
	// The frame read's payload, the program ids and the tenant tag.
	if want := float64(1 + codecPrograms + 1); few > want {
		t.Errorf("codec op allocates %v times, want <= %v", few, want)
	}
}
