// Command bench measures the inference hot paths A/B — one exact and
// one undervolted forward pass vs a 64-lane batched faulty pass,
// sharded vs serial evaluation, JSON/HTTP vs SHMDWIRE streaming over
// real sockets, single-pass vs encoding/json request decoding, the
// in-process SHMDWIRE DETECT ingest path, one supervised detection,
// served batches of 16 vs batches of one, one training epoch at
// GOMAXPROCS vs one proc, lane re-seeding vs math/rand's Seed, a sweep
// cell vs a standalone evaluation, the exact first-layer MAC kernel
// this CPU selected vs its portable Go twin — and writes the results
// to a JSON file (BENCH_inference.json by default) so the speedups are
// recorded alongside the code that produced them.
//
// Usage:
//
//	bench [-scale quick|full] [-seed N] [-count N] [-out BENCH_inference.json]
//	      [-baseline FILE -max-regress F] [-rows name,glob*,...]
//
// Each benchmark is run -count times through testing.Benchmark and the
// fastest repetition is kept (per-machine noise only ever slows a run
// down). With -rows, only the named rows are measured and they replace
// their rows of the existing -out report, with the ratios recomputed
// from the merged rows, so a change refreshes the rows it moves and
// leaves the rest as committed. Speedups are computed within the same
// report, so the pairs share the trained network, the input vector,
// and the machine state.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shmd/internal/core"
	"shmd/internal/experiments"
	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// Result is one benchmark row of the report.
type Result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// MulsPerSec is the multiply-accumulate throughput (0 for the
	// corpus-level evaluation rows, where ops are evaluations).
	MulsPerSec  float64 `json:"muls_per_sec,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Lanes is the batch width for the batch-lane rows (0 = scalar);
	// per-lane cost is NsPerOp / Lanes.
	Lanes int `json:"lanes,omitempty"`
}

// Speedups are the headline ratios of the A/B pairs.
type Speedups struct {
	// EvaluateShardedVsSerial is 1-worker ns/op over sharded ns/op for
	// a full test-corpus stochastic evaluation. On one proc both rows
	// run serially, so it is not measured there and left out.
	EvaluateShardedVsSerial float64 `json:"evaluate_sharded_vs_serial,omitempty"`
	// BatchLane64VsScalarFaulty is the one-lane skip-ahead pass's ns/op
	// over the per-lane cost of a 64-lane batched faulty pass.
	BatchLane64VsScalarFaulty float64 `json:"batch_lane64_vs_faulty_skipahead"`
	// BatchLane64VsExactFused is the headline batching criterion:
	// one-lane exact pass ns/op over the 64-lane per-lane faulty cost.
	// >= 1 means a batched UNDERVOLTED lane is no slower than an exact
	// nominal-voltage pass.
	BatchLane64VsExactFused float64 `json:"batch_lane64_vs_exact_fused"`
	// ServeBatch16VsBatch1 is batch-of-one (MaxBatch 0) ns/request over
	// MaxBatch 16 ns/request for the in-process /v1/detect server under
	// concurrent load: what coalescing earns.
	ServeBatch16VsBatch1 float64 `json:"serve_batch16_vs_batch1"`
	// ServeBatch16IdleVsBatch1 is the same ratio with one client
	// sending requests one after another, so the batcher is idle on
	// every request: the cost of the MaxBatch 16 path when there is
	// nothing to coalesce.
	ServeBatch16IdleVsBatch1 float64 `json:"serve_batch16_idle_vs_batch1"`
	// ServeWireVsJSON is JSON-over-TCP ns/request over SHMDWIRE
	// streaming ns/request: the same single-program request mix through
	// real sockets both ways, keep-alive HTTP clients vs the SDK's
	// pipelined detect stream on one multiplexed connection.
	ServeWireVsJSON float64 `json:"serve_wire_stream_vs_json"`
	// JSONDecodeFastVsStd is the encoding/json reference decoder's
	// ns/op over the single-pass /v1/detect decoder's, on a
	// 16-window x 4096-instruction body.
	JSONDecodeFastVsStd float64 `json:"json_decode_fast_vs_std"`
	// TrainEpochVs1Proc is the GOMAXPROCS(1) ns/op over the GOMAXPROCS
	// ns/op of one iRPROP− epoch on the victim-training fold. On one
	// proc both rows run the same serial pass, so it is not measured
	// there and left out.
	TrainEpochVs1Proc float64 `json:"train_epoch_vs_1proc,omitempty"`
	// LaneReseedVsMathRand is math/rand's Seed ns/op over rng.Reseed's
	// on one lane source, the same seeds both ways: the per-lane cost
	// every batched pass pays before it draws.
	LaneReseedVsMathRand float64 `json:"lane_reseed_vs_mathrand"`
	// SweepCellVsEvaluate is sweepCells × the 1-worker ns/op of one
	// full test-corpus evaluation over the 1-proc ns/op of a Fig 2(a)
	// sweep of sweepCells (rate, repeat) cells on the same corpus: how
	// much cheaper a sweep cell is than a standalone evaluation, which
	// extracts and quantizes the programs and computes their nominal
	// first-layer sums for itself. Both sides are single-threaded.
	SweepCellVsEvaluate float64 `json:"sweep_cell_vs_evaluate"`
	// ExactMACSIMDVsGo is fxp.DotUncheckedBatchGo's ns/op over
	// fxp.DotUncheckedBatch's for one 16-lane first-layer pass: what
	// the kernel selected for this CPU earns over the portable one
	// (about 1.0 where no SIMD kernel is selected).
	ExactMACSIMDVsGo float64 `json:"exact_mac_simd_vs_go"`
}

// Report is the JSON document written to -out.
type Report struct {
	Scale     string  `json:"scale"`
	Seed      uint64  `json:"seed"`
	ErrorRate float64 `json:"error_rate"`
	// NumMuls is the multiplication count of one forward pass through
	// the deployed network (weights including bias terms).
	NumMuls   int    `json:"num_muls"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// MaxProcs is the effective worker count of the parallel rows
	// (sharded evaluation, concurrent serve, the training epoch): with
	// one proc those rows cannot speed up, so their ratio gates are
	// skipped.
	MaxProcs int      `json:"gomaxprocs"`
	Count    int      `json:"count"`
	Results  []Result `json:"results"`
	Speedups Speedups `json:"speedups"`
}

// measure runs f through testing.Benchmark count times and keeps the
// fastest repetition.
func measure(name string, count int, f func(b *testing.B)) Result {
	best := Result{Name: name}
	for i := 0; i < count; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best.Iterations == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
			best.AllocsPerOp = r.AllocsPerOp()
			best.BytesPerOp = r.AllocedBytesPerOp()
			best.Iterations = r.N
		}
	}
	return best
}

// rowFilter selects the rows a run measures: every row when empty,
// otherwise the rows one of its patterns (row names or path.Match
// globs) names.
type rowFilter []string

// parseRows splits a -rows value into its patterns. A malformed or
// empty pattern is an error, before anything is measured.
func parseRows(patterns string) (rowFilter, error) {
	var f rowFilter
	for _, p := range strings.Split(patterns, ",") {
		p = strings.TrimSpace(p)
		if _, err := path.Match(p, ""); err != nil || p == "" {
			return nil, fmt.Errorf("-rows %q: not a row name or glob", p)
		}
		f = append(f, p)
	}
	return f, nil
}

// wants reports whether any of names is to be measured. Rows measured
// together (the two sides of one socket A/B) are asked for together.
func (f rowFilter) wants(names ...string) bool {
	if len(f) == 0 {
		return true
	}
	for _, n := range names {
		for _, p := range f {
			if matches(p, n) {
				return true
			}
		}
	}
	return false
}

// matches reports whether pattern p, already checked by parseRows,
// names row name.
func matches(p, name string) bool {
	ok, _ := path.Match(p, name)
	return ok
}

// run measures the rows rows selects (all of them when it is empty)
// and assembles the report. A row rows does not name is never
// measured, and the trained environment is built only when a selected
// row needs it.
func run(scale experiments.Scale, count int, rows rowFilter) (*Report, error) {
	rep := &Report{
		Scale:     scale.Name,
		Seed:      scale.Seed,
		ErrorRate: experiments.OperatingErrorRate,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Count:     count,
	}

	if rows.wants(modelRows...) {
		if err := measureModelRows(rep, scale, count, rows); err != nil {
			return nil, err
		}
	}
	// Lane re-seeding needs no model: one lane source restarted on the
	// stream of each next batched pass, against math/rand's Seed on the
	// same seeds.
	if rows.wants("lane_reseed") {
		src := rng.NewSource64(1)
		rep.Results = append(rep.Results, measure("lane_reseed", count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng.Reseed(src, 1, 0x5BA7, uint64(i))
			}
		}))
	}
	if rows.wants("lane_reseed_mathrand") {
		src := rand.NewSource(1)
		rep.Results = append(rep.Results, measure("lane_reseed_mathrand", count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src.Seed(int64(rng.DeriveSeed(1, 0x5BA7, uint64(i))))
			}
		}))
	}
	if rows.wants(codecRow) {
		op, err := codecPipeline(codecPrograms, codecWindows)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, measure(codecRow, count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, mac := range []struct {
		name string
		dot  func(w, xs []fxp.Value, stride int, accs []int64)
	}{{macRow, fxp.DotUncheckedBatch}, {macRowGo, fxp.DotUncheckedBatchGo}} {
		if rows.wants(mac.name) {
			rep.Results = append(rep.Results, measureMAC(mac.name, count, mac.dot))
		}
	}
	rep.Speedups = speedupsOf(rep.Results, rep.MaxProcs)
	return rep, nil
}

// The exact-MAC rows need no model: one op is one first-layer pass of
// macLanes lanes through the deployed network's first-layer shape,
// macHidden rows of macInputs inputs (64 features and the bias), the
// exact MAC every served window runs before its faults are applied.
const (
	macRow    = "exact_mac_16"
	macRowGo  = "exact_mac_16_go"
	macLanes  = 16
	macHidden = 32
	macInputs = 65
)

// measureMAC benchmarks one first-layer pass through dot on fixed
// operands in the quantized ranges of trained weights and features.
func measureMAC(name string, count int, dot func(w, xs []fxp.Value, stride int, accs []int64)) Result {
	r := rng.NewRand(0xAC)
	w := make([]fxp.Value, macHidden*macInputs)
	for i := range w {
		w[i] = fxp.Value(r.Int31n(1<<15) - 1<<14)
	}
	xs := make([]fxp.Value, macLanes*macInputs)
	for i := range xs {
		xs[i] = fxp.Value(r.Int31n(1 << 12))
	}
	accs := make([]int64, macHidden*macLanes)
	res := measure(name, count, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h := 0; h < macHidden; h++ {
				dot(w[h*macInputs:(h+1)*macInputs], xs, macInputs, accs[h*macLanes:(h+1)*macLanes])
			}
		}
	})
	res.Lanes = macLanes
	res.MulsPerSec = float64(macHidden*macInputs*macLanes) / (res.NsPerOp * 1e-9)
	return res
}

// codecRow is the in-process SHMDWIRE DETECT ingest row: one op is one
// request of codecPrograms programs of codecWindows windows through
// codecPipeline. It needs no model.
const (
	codecRow      = "wire_detect_codec_16"
	codecPrograms = 16
	codecWindows  = 16
)

// codecPipeline returns one op of the SHMDWIRE DETECT ingest path, its
// buffers reused across ops as the served path reuses them: the SDK's
// encode into a reused buffer, the frame write and read over an
// in-memory connection, the server's decode into a warm arena,
// ValidatePrograms, and feature extraction into a reused arena (the
// body hmd.DetectTracesUnit extracts with). Every program carries the
// same trace of windows windows x 4096 instructions.
func codecPipeline(programs, windows int) (func() error, error) {
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return nil, err
	}
	ws, err := prog.Trace(windows, 4096)
	if err != nil {
		return nil, err
	}
	req := wire.DetectRequest{Tenant: "bench"}
	for i := 0; i < programs; i++ {
		req.Programs = append(req.Programs, wire.DetectProgram{ID: fmt.Sprintf("p%02d", i), Windows: ws})
	}
	dim, err := features.SetInstrFreq.Dim()
	if err != nil {
		return nil, err
	}
	var (
		enc   []byte
		arena wire.Arena
		vecs  [][]float64
		feat  = make([]float64, programs*windows*dim)
		conn  = wire.NewConn(new(memConn), 0)
	)
	return func() error {
		var err error
		if enc, err = wire.AppendDetectRequest(enc[:0], req); err != nil {
			return err
		}
		if err := conn.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: 1, Payload: enc}); err != nil {
			return err
		}
		f, err := conn.ReadFrame()
		if err != nil {
			return err
		}
		got, err := arena.DecodeDetect(f.Payload)
		if err != nil {
			return err
		}
		if err := serve.ValidatePrograms(got.Programs, serve.Limits{}); err != nil {
			return err
		}
		vecs = vecs[:0]
		for _, p := range got.Programs {
			if vecs, err = features.ExtractTo(vecs, feat[len(vecs)*dim:], p.Windows, features.SetInstrFreq, features.Period1); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// memConn is an in-memory net.Conn: what is written is read back.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// measureModelRows measures the selected rows that need the trained
// environment — every row but lane re-seeding — into rep.
func measureModelRows(rep *Report, scale experiments.Scale, count int, rows rowFilter) error {
	env, err := experiments.NewEnv(scale, 0)
	if err != nil {
		return err
	}
	fn := env.Base.Fixed().Clone()
	in := make([]float64, fn.NumInputs())
	r := rng.NewRand(0xB13)
	for i := range in {
		in[i] = r.Float64()
	}
	muls := fn.NumMuls()
	rep.NumMuls = muls

	forwardPass := func(u fxp.BatchUnit) func(b *testing.B) {
		net := fn.Clone()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.Run(u, in)
			}
		}
	}
	add := func(res Result, withMuls bool) {
		if withMuls {
			res.MulsPerSec = float64(muls) / (res.NsPerOp * 1e-9)
		}
		rep.Results = append(rep.Results, res)
	}

	if rows.wants("inference_exact_fused") {
		add(measure("inference_exact_fused", count, forwardPass(fxp.Exact{})), true)
	}
	if rows.wants("inference_faulty_skipahead") {
		skip, err := faults.NewInjector(experiments.OperatingErrorRate, nil, rng.NewRand(2))
		if err != nil {
			return err
		}
		add(measure("inference_faulty_skipahead", count, forwardPass(skip)), true)
	}
	if rows.wants("evaluate_sharded", "evaluate_serial_1worker") {
		stoch, err := env.Stochastic(experiments.OperatingErrorRate, 0xE7A1)
		if err != nil {
			return err
		}
		test := env.Test()
		if rows.wants("evaluate_sharded") {
			add(measure("evaluate_sharded", count, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hmd.Evaluate(stoch, test)
				}
			}), false)
		}
		if rows.wants("evaluate_serial_1worker") {
			add(measure("evaluate_serial_1worker", count, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					set, err := hmd.NewSet(stoch.Base(), test)
					if err != nil {
						b.Fatal(err)
					}
					hmd.EvaluateSet([]hmd.SetDetector{stoch}, set, hmd.EvalOptions{Workers: 1})
				}
			}), false)
		}
	}
	if rows.wants("accuracy_sweep_1proc") {
		res, err := measureSweep1Proc(env, count)
		if err != nil {
			return err
		}
		add(res, false)
	}

	// Batch-lane faulty passes: one RunBatch over k lanes, each lane on
	// its own fault stream at the operating rate. NsPerOp is the cost of
	// the whole batched call; per-lane cost is NsPerOp / k.
	for _, k := range []int{1, 4, 16, 64} {
		name := fmt.Sprintf("batch_faulty_%d", k)
		if !rows.wants(name) {
			continue
		}
		streams := make([]rand.Source64, k)
		for l := range streams {
			streams[l] = rng.NewSource64(2, uint64(l))
		}
		binj, err := faults.NewBatchInjector(experiments.OperatingErrorRate, nil, streams)
		if err != nil {
			return err
		}
		net := fn.Clone()
		ins := make([][]float64, k)
		for j := range ins {
			ins[j] = in
		}
		out := make([]float64, k*net.NumOutputs())
		res := measure(name, count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.RunBatch(binj, ins, nil, out)
			}
		})
		res.Lanes = k
		res.MulsPerSec = float64(muls*k) / (res.NsPerOp * 1e-9)
		rep.Results = append(rep.Results, res)
	}

	// In-process /v1/detect throughput, batches of one vs of up to 16:
	// same model, same pool shape, concurrent clients through the handler
	// (no sockets), then one serial client. One op = one single-program
	// request.
	for _, serial := range []bool{false, true} {
		for _, maxBatch := range []int{0, 16} {
			if !rows.wants(serveRowName(maxBatch, serial)) {
				continue
			}
			res, err := measureServe(env.Base, count, maxBatch, serial)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, res)
		}
	}

	// Transport A/B over real sockets: JSON/HTTP vs SHMDWIRE streaming,
	// same request mix and server shape on both sides.
	if rows.wants("serve_json_tcp_batched_16", "serve_wire_stream_batched_16") {
		serveJSON, serveWire, err := measureServeTransports(env.Base, count, 16)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, serveJSON, serveWire)
	}

	if rows.wants("decode_json_16", "decode_json_16_std") {
		decodeFast, decodeStd, err := measureDecode(env.Base, count)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, decodeFast, decodeStd)
	}

	if rows.wants("detect_program_16") {
		detect, err := measureDetect(env.Base, count)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, detect)
	}

	if rows.wants("train_rprop_epoch", "train_rprop_epoch_1proc") {
		train, train1, err := measureTrain(env, count)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, train, train1)
	}

	return nil
}

// modelRows are the rows measureModelRows measures, in report order.
var modelRows = []string{
	"inference_exact_fused", "inference_faulty_skipahead",
	"evaluate_sharded", "evaluate_serial_1worker", "accuracy_sweep_1proc",
	"batch_faulty_1", "batch_faulty_4", "batch_faulty_16", "batch_faulty_64",
	"serve_detect_batch1", "serve_detect_batched_16", "serve_detect_batch1_serial", "serve_detect_batched_16_serial",
	"serve_json_tcp_batched_16", "serve_wire_stream_batched_16",
	"decode_json_16", "decode_json_16_std",
	"detect_program_16",
	"train_rprop_epoch", "train_rprop_epoch_1proc",
}

// speedupsOf computes the headline ratios from a report's rows by
// name, so a report whose rows were partly refreshed (-rows) gets
// ratios that agree with the rows it carries. maxProcs is the report's
// GOMAXPROCS: at one proc the ratios of a parallel row over its serial
// twin are not measured (both sides run serially) and read 0.
func speedupsOf(results []Result, maxProcs int) Speedups {
	ns := make(map[string]float64, len(results))
	for _, r := range results {
		ns[r.Name] = r.NsPerOp
	}
	// A ratio with a row the report lacks is 0, "not measured", which
	// the gate skips, rather than NaN or Inf, which JSON cannot carry.
	ratio := func(slow, fast float64) float64 {
		if slow == 0 || fast == 0 {
			return 0
		}
		return slow / fast
	}
	parallel := ratio
	if maxProcs <= 1 {
		parallel = func(float64, float64) float64 { return 0 }
	}
	return Speedups{
		EvaluateShardedVsSerial:   parallel(ns["evaluate_serial_1worker"], ns["evaluate_sharded"]),
		BatchLane64VsScalarFaulty: ratio(ns["inference_faulty_skipahead"], ns["batch_faulty_64"]/64),
		BatchLane64VsExactFused:   ratio(ns["inference_exact_fused"], ns["batch_faulty_64"]/64),
		ServeBatch16VsBatch1:      ratio(ns["serve_detect_batch1"], ns["serve_detect_batched_16"]),
		ServeBatch16IdleVsBatch1:  ratio(ns["serve_detect_batch1_serial"], ns["serve_detect_batched_16_serial"]),
		ServeWireVsJSON:           ratio(ns["serve_json_tcp_batched_16"], ns["serve_wire_stream_batched_16"]),
		JSONDecodeFastVsStd:       ratio(ns["decode_json_16_std"], ns["decode_json_16"]),
		TrainEpochVs1Proc:         parallel(ns["train_rprop_epoch_1proc"], ns["train_rprop_epoch"]),
		LaneReseedVsMathRand:      ratio(ns["lane_reseed_mathrand"], ns["lane_reseed"]),
		SweepCellVsEvaluate:       ratio(float64(sweepCells)*ns["evaluate_serial_1worker"], ns["accuracy_sweep_1proc"]),
		ExactMACSIMDVsGo:          ratio(ns[macRowGo], ns[macRow]),
	}
}

// refreshRows returns prev with only the rows matching patterns
// (comma-separated row names or path.Match globs, e.g. "serve_*")
// replaced by their fresh measurements, and the ratios recomputed
// from the merged rows. Every other row keeps its committed value and
// place, so a change re-measures what it moves and nothing else. A
// fresh row the committed report lacks is appended when a pattern
// names it. A pattern that matches no row is an error (a typo would
// otherwise refresh nothing silently).
func refreshRows(prev, fresh *Report, patterns string) (*Report, error) {
	rows, err := parseRows(patterns)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		byName[r.Name] = r
	}
	out := *prev
	// A parallel row over its serial twin means nothing when either run
	// had one proc, so the merged report keeps the smaller count.
	out.MaxProcs = min(prev.MaxProcs, fresh.MaxProcs)
	out.Results = append([]Result(nil), prev.Results...)
	for _, p := range rows {
		hit := false
		for i, r := range out.Results {
			if f, measured := byName[r.Name]; measured && matches(p, r.Name) {
				out.Results[i], hit = f, true
			}
		}
		for _, f := range fresh.Results {
			known := slices.ContainsFunc(out.Results, func(r Result) bool { return r.Name == f.Name })
			if !known && matches(p, f.Name) {
				out.Results, hit = append(out.Results, f), true
			}
		}
		if !hit {
			return nil, fmt.Errorf("-rows %q matches no benchmark row", p)
		}
	}
	out.Speedups = speedupsOf(out.Results, out.MaxProcs)
	return &out, nil
}

// measureServe benchmarks the detection service end to end in-process:
// a real serve.Server (pool of 4 undervolted sessions at the operating
// rate), clients calling the handler directly — concurrent ones, or
// with serial set one client sending its requests one after another.
// maxBatch 0 measures batches of one; > 1 batches of up to that many
// lanes. Both run the one micro-batching dispatcher.
func measureServe(base *hmd.HMD, count, maxBatch int, serial bool) (Result, error) {
	name := serveRowName(maxBatch, serial)
	win := 4
	if p := base.Config().Period; p > win {
		win = p
	}
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return Result{}, err
	}
	windows, err := prog.Trace(win, 256)
	if err != nil {
		return Result{}, err
	}
	body, err := json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{
		ID: "bench", Windows: serve.EncodeWindows(windows),
	}}})
	if err != nil {
		return Result{}, err
	}
	cfg := serve.Config{
		Pool:         serve.PoolConfig{Size: 4, ErrorRate: experiments.OperatingErrorRate, Seed: 1},
		QueueDepth:   1024,
		MaxBatch:     maxBatch,
		MaxBatchWait: 500 * time.Microsecond,
	}
	res := Result{Name: name}
	for i := 0; i < count; i++ {
		srv, err := serve.New(base, cfg)
		if err != nil {
			return Result{}, err
		}
		handler := srv.Handler()
		detect := func(b *testing.B) bool {
			req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("detect status %d: %s", rec.Code, rec.Body.Bytes())
				return false
			}
			return true
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if serial {
				for i := 0; i < b.N; i++ {
					if !detect(b) {
						return
					}
				}
				return
			}
			// Enough concurrent clients to keep batches forming regardless
			// of core count.
			b.SetParallelism(32/runtime.GOMAXPROCS(0) + 1)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if !detect(b) {
						return
					}
				}
			})
		})
		srv.Close()
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if res.Iterations == 0 || ns < res.NsPerOp {
			res.NsPerOp = ns
			res.AllocsPerOp = r.AllocsPerOp()
			res.BytesPerOp = r.AllocedBytesPerOp()
			res.Iterations = r.N
		}
	}
	return res, nil
}

// serveRowName names the in-process serve row for maxBatch (0 for
// batches of one) and serial.
func serveRowName(maxBatch int, serial bool) string {
	name := "serve_detect_batch1"
	if maxBatch > 1 {
		name = fmt.Sprintf("serve_detect_batched_%d", maxBatch)
	}
	if serial {
		name += "_serial"
	}
	return name
}

// measureServeTransports benchmarks the detection service over real
// TCP both ways: JSON/HTTP with keep-alive clients against SHMDWIRE
// driven through the SDK's pipelined detect stream. Same model, same
// single-program request, same pool and micro-batch shape; one op =
// one request, so the ratio is the transport cost alone (connection
// handling, framing, marshalling).
func measureServeTransports(base *hmd.HMD, count, maxBatch int) (Result, Result, error) {
	jsonRow := Result{Name: fmt.Sprintf("serve_json_tcp_batched_%d", maxBatch)}
	wireRow := Result{Name: fmt.Sprintf("serve_wire_stream_batched_%d", maxBatch)}
	win := 4
	if p := base.Config().Period; p > win {
		win = p
	}
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return jsonRow, wireRow, err
	}
	windows, err := prog.Trace(win, 256)
	if err != nil {
		return jsonRow, wireRow, err
	}
	body, err := json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{
		ID: "bench", Windows: serve.EncodeWindows(windows),
	}}})
	if err != nil {
		return jsonRow, wireRow, err
	}
	wireReq := wire.DetectRequest{Programs: []wire.DetectProgram{{ID: "bench", Windows: windows}}}
	cfg := serve.Config{
		Pool:            serve.PoolConfig{Size: 4, ErrorRate: experiments.OperatingErrorRate, Seed: 1},
		QueueDepth:      1024,
		MaxBatch:        maxBatch,
		MaxBatchWait:    500 * time.Microsecond,
		ShutdownTimeout: 5 * time.Second,
	}
	keep := func(res Result, r testing.BenchmarkResult) Result {
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if res.Iterations == 0 || ns < res.NsPerOp {
			res.NsPerOp = ns
			res.AllocsPerOp = r.AllocsPerOp()
			res.BytesPerOp = r.AllocedBytesPerOp()
			res.Iterations = r.N
		}
		return res
	}
	for i := 0; i < count; i++ {
		srv, err := serve.New(base, cfg)
		if err != nil {
			return jsonRow, wireRow, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return jsonRow, wireRow, err
		}
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			return jsonRow, wireRow, err
		}
		httpCtx, stopHTTP := context.WithCancel(context.Background())
		wireCtx, stopWire := context.WithCancel(context.Background())
		httpDone := make(chan error, 1)
		wireDone := make(chan error, 1)
		go func() { httpDone <- srv.Serve(httpCtx, ln) }()
		go func() { wireDone <- srv.ServeWire(wireCtx, wln) }()

		tr := &http.Transport{MaxIdleConnsPerHost: 64}
		client := &http.Client{Transport: tr}
		url := "http://" + ln.Addr().String() + "/v1/detect"
		jsonRow = keep(jsonRow, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(32/runtime.GOMAXPROCS(0) + 1)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						b.Errorf("detect: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("detect status %d", resp.StatusCode)
						return
					}
				}
			})
		}))
		tr.CloseIdleConnections()

		cl, err := sdk.Dial(wln.Addr().String(), sdk.Options{JitterSeed: 1})
		if err == nil {
			wireRow = keep(wireRow, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				st := cl.DetectStream(context.Background(), 64)
				var streamErr error
				var drained sync.WaitGroup
				drained.Add(1)
				go func() {
					defer drained.Done()
					for res := range st.Results() {
						if res.Err != nil && streamErr == nil {
							streamErr = res.Err
						}
					}
				}()
				for i := 0; i < b.N; i++ {
					if _, err := st.Submit(wireReq); err != nil {
						b.Errorf("submit: %v", err)
						break
					}
				}
				st.Close()
				drained.Wait()
				if streamErr != nil {
					b.Errorf("stream detect: %v", streamErr)
				}
			}))
			cl.Close()
		}
		// Wire drains before the HTTP shutdown closes the pool.
		stopWire()
		<-wireDone
		stopHTTP()
		<-httpDone
		if err != nil {
			return jsonRow, wireRow, err
		}
	}
	return jsonRow, wireRow, nil
}

// measureDecode benchmarks /v1/detect body decoding A/B: the
// single-pass decoder against its encoding/json reference, both with
// full validation, on one program of 16 windows x 4096 instructions —
// the production request geometry, not the small serve-row body.
func measureDecode(base *hmd.HMD, count int) (Result, Result, error) {
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return Result{}, Result{}, err
	}
	windows, err := prog.Trace(16, 4096)
	if err != nil {
		return Result{}, Result{}, err
	}
	body, err := json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{
		ID: "bench", Windows: serve.EncodeWindows(windows),
	}}})
	if err != nil {
		return Result{}, Result{}, err
	}
	lim := serve.Limits{MinWindows: base.Config().Period}
	row := func(name string, decode func(io.Reader, serve.Limits) ([]serve.DecodedProgram, error)) Result {
		return measure(name, count, func(b *testing.B) {
			rd := bytes.NewReader(body)
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if _, err := decode(rd, lim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return row("decode_json_16", serve.DecodeDetectRequest), row("decode_json_16_std", serve.DecodeDetectRequestStd), nil
}

// measureDetect benchmarks one supervised detection of one program of
// 16 windows x 4096 instructions, the http-scalar request geometry: a
// batch of one through the supervisor, its windows scored as lanes of
// one planned pass of the batch kernel.
func measureDetect(base *hmd.HMD, count int) (Result, error) {
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return Result{}, err
	}
	windows, err := prog.Trace(16, 4096)
	if err != nil {
		return Result{}, err
	}
	det, err := core.New(base.WithFreshBuffers(), core.Options{ErrorRate: experiments.OperatingErrorRate, Seed: 1})
	if err != nil {
		return Result{}, err
	}
	sup, err := core.NewSupervisor(det, core.SupervisorConfig{})
	if err != nil {
		return Result{}, err
	}
	return measure("detect_program_16", count, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sup.DetectProgram(windows); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// sweepRates are the error rates of the accuracy_sweep_1proc row: the
// rates of perfbench's sweep workload, each repeated sweepRepeats
// times (the quick scale's Fig 2(a) repeats), sweepCells cells in all.
var sweepRates = [...]float64{0, 0.05, 0.1, 0.2}

const (
	sweepRepeats = 5
	sweepCells   = len(sweepRates) * sweepRepeats
)

// measureSweep1Proc benchmarks one Fig 2(a) accuracy sweep of the test
// fold under GOMAXPROCS(1), the serial cost of sweepCells cells over
// one extracted set.
func measureSweep1Proc(env *experiments.Env, count int) (Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	test := env.Test()
	var err error
	res := measure("accuracy_sweep_1proc", count, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, e := core.AccuracySweep(env.Base, test, sweepRates[:], sweepRepeats, 0xF2A); e != nil {
				err = e
			}
		}
	})
	return res, err
}

// measureTrain benchmarks one iRPROP− epoch of the victim detector on
// the samples hmd.Train fits it on (hmd.TrainingSamples of the
// victim-training fold) — the loop every detector, attacker proxy and
// RHMD base detector trains with — at GOMAXPROCS workers and under GOMAXPROCS(1). Each row's trainer
// runs an unmeasured epoch first, so the rows time the steady state
// in which the trainer's chunk buffers already exist.
func measureTrain(env *experiments.Env, count int) (Result, Result, error) {
	samples, err := hmd.TrainingSamples(env.VictimTrain(), env.Base.Config())
	if err != nil {
		return Result{}, Result{}, err
	}
	row := func(name string) (Result, error) {
		tr := fann.NewRPROPTrainer(env.Base.Network().Clone())
		if _, err := tr.Epoch(samples); err != nil {
			return Result{}, err
		}
		return measure(name, count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Epoch(samples); err != nil {
					b.Fatal(err)
				}
			}
		}), nil
	}
	par, err := row("train_rprop_epoch")
	if err != nil {
		return Result{}, Result{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := row("train_rprop_epoch_1proc")
	return par, serial, err
}

// write renders the report as indented JSON to path.
func write(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// load reads a previously written report.
func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compare gates a fresh report against a committed baseline and
// returns one message per regression beyond maxRegress (0.25 = fail
// only when a metric degrades by more than 25%).
//
// Raw ns/op is NOT gated: the committed baseline records one machine
// and CI runs on another, so absolute times differ by far more than
// any code change. The gate instead holds the machine-independent
// signals: the A/B speedup ratios (both sides of each pair run on the
// same host in the same process, so their ratio cancels the host out)
// and the per-op allocation counts (exact, deterministic).
func compare(rep, base *Report, maxRegress float64) []string {
	var problems []string
	ratio := func(name string, got, want float64) {
		if want <= 0 {
			return
		}
		if got < want*(1-maxRegress) {
			problems = append(problems,
				fmt.Sprintf("%s speedup %.2fx, baseline %.2fx (>%d%% regression)",
					name, got, want, int(maxRegress*100)))
		}
	}
	ratio("batch_lane64_vs_faulty_skipahead", rep.Speedups.BatchLane64VsScalarFaulty, base.Speedups.BatchLane64VsScalarFaulty)
	ratio("batch_lane64_vs_exact_fused", rep.Speedups.BatchLane64VsExactFused, base.Speedups.BatchLane64VsExactFused)
	ratio("json_decode_fast_vs_std", rep.Speedups.JSONDecodeFastVsStd, base.Speedups.JSONDecodeFastVsStd)
	ratio("lane_reseed_vs_mathrand", rep.Speedups.LaneReseedVsMathRand, base.Speedups.LaneReseedVsMathRand)
	ratio("sweep_cell_vs_evaluate", rep.Speedups.SweepCellVsEvaluate, base.Speedups.SweepCellVsEvaluate)
	// One serial client leaves nothing to overlap, so the idle-batcher
	// ratio gates on any proc count. Its baseline is capped at 1.0 like
	// the other serve ratios: the invariant is that an idle batcher
	// dispatches at once, as fast as a batch of one, whatever this
	// machine's exact ratio.
	wantIdle := base.Speedups.ServeBatch16IdleVsBatch1
	if wantIdle > 1 {
		wantIdle = 1
	}
	ratio("serve_batch16_idle_vs_batch1", rep.Speedups.ServeBatch16IdleVsBatch1, wantIdle)
	// The SIMD kernel's upside depends on the CPU, and one without it
	// runs the Go kernel on both sides, so this baseline is capped at
	// 1.0 too: the invariant is that the selected kernel is never
	// slower than the portable one.
	ratio("exact_mac_simd_vs_go", rep.Speedups.ExactMACSIMDVsGo, min(base.Speedups.ExactMACSIMDVsGo, 1))
	// The parallel rows cannot speed up on one proc: a 1-core runner
	// reporting a ~1.0x ratio against a multi-core baseline is the
	// machine, not a regression — skip those gates there.
	if rep.MaxProcs > 1 {
		ratio("evaluate_sharded_vs_serial", rep.Speedups.EvaluateShardedVsSerial, base.Speedups.EvaluateShardedVsSerial)
		ratio("train_epoch_vs_1proc", rep.Speedups.TrainEpochVs1Proc, base.Speedups.TrainEpochVs1Proc)
		// The serve ratio's upside depends on core count and scheduler,
		// so its baseline is capped at 1.0: the portable invariant is
		// that batches of 16 never collapse throughput below batches of
		// one, not the exact speedup this machine happened to see.
		want := base.Speedups.ServeBatch16VsBatch1
		if want > 1 {
			want = 1
		}
		ratio("serve_batch16_vs_batch1", rep.Speedups.ServeBatch16VsBatch1, want)
		// Same cap for the transport ratio: the portable invariant is
		// that SHMDWIRE streaming never falls below JSON req/s, not the
		// exact advantage this machine happened to see.
		wantWire := base.Speedups.ServeWireVsJSON
		if wantWire > 1 {
			wantWire = 1
		}
		ratio("serve_wire_stream_vs_json", rep.Speedups.ServeWireVsJSON, wantWire)
	}

	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	for _, r := range rep.Results {
		b, ok := baseByName[r.Name]
		if !ok {
			continue
		}
		// The real-socket transport rows include client-side connection
		// churn, so their allocation counts are scheduler-dependent —
		// their gate is the speedup ratio above, not allocs.
		if strings.HasPrefix(r.Name, "serve_json_tcp") || strings.HasPrefix(r.Name, "serve_wire_stream") {
			continue
		}
		// A couple of allocations of absolute slack: counts this small
		// are ABI noise (interface boxing, map seeds), not leaks. Lane
		// re-seeding gets none: it restarts a source in place, and one
		// allocation there is a whole 4.9 KB source per lane per pass.
		limit := float64(b.AllocsPerOp)*(1+maxRegress) + 2
		if r.Name == "lane_reseed" {
			limit = float64(b.AllocsPerOp)
		}
		if float64(r.AllocsPerOp) > limit {
			problems = append(problems,
				fmt.Sprintf("%s allocs/op %d, baseline %d (>%d%% regression)",
					r.Name, r.AllocsPerOp, b.AllocsPerOp, int(maxRegress*100)))
		}
	}
	return problems
}

func main() {
	scaleName := flag.String("scale", "quick", "benchmark scale (quick|full)")
	seed := flag.Uint64("seed", 1, "root seed")
	count := flag.Int("count", 3, "repetitions per benchmark (fastest kept)")
	out := flag.String("out", "BENCH_inference.json", "output JSON path")
	baseline := flag.String("baseline", "", "committed report to gate against (empty = no gate)")
	maxRegress := flag.Float64("max-regress", 0.25, "fail when a gated metric degrades by more than this fraction")
	rows := flag.String("rows", "", "refresh only these rows of the existing -out report (comma-separated names or globs); the ratios are recomputed, every other row is kept")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick(*seed)
	case "full":
		scale = experiments.Full(*seed)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	// Load the baseline before writing: -out and -baseline may name the
	// same file (the CI invocation regenerates the committed report in
	// place and uploads it as an artifact).
	var base *Report
	if *baseline != "" {
		var err error
		base, err = load(*baseline)
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "bench: baseline %s missing, gate skipped\n", *baseline)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	// Read the report a partial refresh merges into before running, for
	// the same reason.
	var prev *Report
	var sel rowFilter
	if *rows != "" {
		var err error
		if sel, err = parseRows(*rows); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		if prev, err = load(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -rows needs an existing report: %v\n", err)
			os.Exit(1)
		}
	}

	rep, err := run(scale, *count, sel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if prev != nil {
		if rep, err = refreshRows(prev, rep, *rows); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := write(rep, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	printSummary(os.Stdout, rep)
	fmt.Printf("wrote %s\n", *out)

	if base != nil {
		problems := compare(rep, base, *maxRegress)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "bench: REGRESSION:", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Printf("baseline gate: OK (within %d%% of %s)\n", int(*maxRegress*100), *baseline)
	}
}

// printSummary writes the report's rows and ratios to w. At one proc
// the parallel-vs-serial ratios are not measured: a note stands in for
// them, as in the JSON, where they are left out.
func printSummary(w io.Writer, rep *Report) {
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-28s %12.1f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.Lanes > 1 {
			fmt.Fprintf(w, "  %10.1f ns/lane", r.NsPerOp/float64(r.Lanes))
		}
		if r.MulsPerSec > 0 {
			fmt.Fprintf(w, "  %8.1f Mmuls/s", r.MulsPerSec/1e6)
		}
		fmt.Fprintln(w)
	}
	sp := rep.Speedups
	if rep.MaxProcs > 1 {
		fmt.Fprintf(w, "evaluate sharded vs serial:   %.2fx (%d procs)\n", sp.EvaluateShardedVsSerial, rep.MaxProcs)
	} else {
		fmt.Fprintln(w, "evaluate sharded vs serial:   not measurable on 1 proc (both rows are serial; left out, gate skipped)")
	}
	fmt.Fprintf(w, "batch lane64 vs 1-lane faulty: %.2fx\n", sp.BatchLane64VsScalarFaulty)
	fmt.Fprintf(w, "batch lane64 vs exact fused:  %.2fx\n", sp.BatchLane64VsExactFused)
	fmt.Fprintf(w, "serve batch16 vs batch1:      %.2fx\n", sp.ServeBatch16VsBatch1)
	fmt.Fprintf(w, "serve batch16 idle vs batch1: %.2fx\n", sp.ServeBatch16IdleVsBatch1)
	fmt.Fprintf(w, "serve wire stream vs json:    %.2fx\n", sp.ServeWireVsJSON)
	fmt.Fprintf(w, "json decode fast vs std:      %.2fx\n", sp.JSONDecodeFastVsStd)
	fmt.Fprintf(w, "lane reseed vs math/rand:     %.2fx\n", sp.LaneReseedVsMathRand)
	fmt.Fprintf(w, "exact MAC %s vs go:         %.2fx\n", fxp.MACKernel(), sp.ExactMACSIMDVsGo)
	if rep.MaxProcs > 1 {
		fmt.Fprintf(w, "train epoch vs 1 proc:        %.2fx (%d procs)\n", sp.TrainEpochVs1Proc, rep.MaxProcs)
	} else {
		fmt.Fprintln(w, "train epoch vs 1 proc:        not measurable on 1 proc (both rows are serial; left out, gate skipped)")
	}
}
