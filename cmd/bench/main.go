// Command bench measures the inference hot paths A/B — fused vs scalar
// exact kernels, geometric skip-ahead vs per-multiplication Bernoulli
// fault injection, sharded vs serial evaluation, JSON/HTTP vs SHMDWIRE
// streaming over real sockets, single-pass vs encoding/json request
// decoding, window-lane vs scalar supervised detection, idle micro-batched
// vs scalar serving, one training epoch at GOMAXPROCS vs one proc — and
// writes the results to a JSON file
// (BENCH_inference.json by default) so the speedups are recorded
// alongside the code that produced them.
//
// Usage:
//
//	bench [-scale quick|full] [-seed N] [-count N] [-out BENCH_inference.json]
//	      [-baseline FILE -max-regress F] [-rows name,glob*,...]
//
// Each benchmark is run -count times through testing.Benchmark and the
// fastest repetition is kept (per-machine noise only ever slows a run
// down). With -rows, only the named rows of the existing -out report
// are replaced and the ratios recomputed from the merged rows, so a
// change refreshes the rows it moves and leaves the rest as committed. Speedups are computed within the same report, so the pairs
// share the trained network, the input vector, and the machine state.
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
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/trace"
	"shmd/internal/volt"
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
	// ExactFusedVsScalar is scalar-loop ns/op over fused-kernel ns/op
	// for a nominal-voltage forward pass.
	ExactFusedVsScalar float64 `json:"exact_fused_vs_scalar"`
	// FaultySkipAheadVsBernoulli is per-mul-Bernoulli ns/op over
	// skip-ahead ns/op for an undervolted forward pass at the
	// operating error rate.
	FaultySkipAheadVsBernoulli float64 `json:"faulty_skipahead_vs_bernoulli"`
	// EvaluateShardedVsSerial is 1-worker ns/op over sharded ns/op for
	// a full test-corpus stochastic evaluation.
	EvaluateShardedVsSerial float64 `json:"evaluate_sharded_vs_serial"`
	// BatchLane64VsScalarFaulty is scalar skip-ahead ns/op over the
	// per-lane cost of a 64-lane batched faulty pass.
	BatchLane64VsScalarFaulty float64 `json:"batch_lane64_vs_faulty_skipahead"`
	// BatchLane64VsExactFused is the headline batching criterion:
	// exact-fused scalar ns/op over the 64-lane per-lane faulty cost.
	// >= 1 means a batched UNDERVOLTED lane is no slower than an exact
	// nominal-voltage pass.
	BatchLane64VsExactFused float64 `json:"batch_lane64_vs_exact_fused"`
	// ServeBatchedVsScalar is scalar-dispatch ns/request over
	// micro-batched ns/request for the in-process /v1/detect server
	// under concurrent load.
	ServeBatchedVsScalar float64 `json:"serve_batched_vs_scalar"`
	// ServeBatchedIdleVsScalar is scalar-dispatch ns/request over
	// micro-batched ns/request with one client sending requests one
	// after another, so the batcher is idle on every request: the cost
	// of the batched path when there is nothing to coalesce.
	ServeBatchedIdleVsScalar float64 `json:"serve_batched_idle_vs_scalar"`
	// ServeWireVsJSON is JSON-over-TCP ns/request over SHMDWIRE
	// streaming ns/request: the same single-program request mix through
	// real sockets both ways, keep-alive HTTP clients vs the SDK's
	// pipelined detect stream on one multiplexed connection.
	ServeWireVsJSON float64 `json:"serve_wire_stream_vs_json"`
	// JSONDecodeFastVsStd is the encoding/json reference decoder's
	// ns/op over the single-pass /v1/detect decoder's, on a
	// 16-window x 4096-instruction body.
	JSONDecodeFastVsStd float64 `json:"json_decode_fast_vs_std"`
	// DetectLane1VsScalar is the scalar-kernel ns/op over the
	// production ns/op of one supervised detection of a 16-window x
	// 4096-instruction program. The key predates window lanes: the
	// production side scores the program's 16 windows as lanes of one
	// planned pass, no longer as 16 lane-1 passes.
	DetectLane1VsScalar float64 `json:"detect_lane1_vs_scalar"`
	// TrainEpochVs1Proc is the GOMAXPROCS(1) ns/op over the GOMAXPROCS
	// ns/op of one iRPROP− epoch on the victim-training fold. On one
	// proc both rows run the same serial pass, so the ratio is not
	// measured there (it reads about 1.0 and is not gated).
	TrainEpochVs1Proc float64 `json:"train_epoch_vs_1proc"`
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

// scalarUnit hides a unit's BulkUnit implementation, forcing fxp.Dot
// down the per-element scalar loop — the pre-fused-kernel code path.
type scalarUnit struct{ u fxp.Unit }

func (s scalarUnit) Mul(a, b fxp.Value) fxp.Product { return s.u.Mul(a, b) }

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

// run executes the whole A/B suite and assembles the report.
func run(scale experiments.Scale, count int) (*Report, error) {
	env, err := experiments.NewEnv(scale, 0)
	if err != nil {
		return nil, err
	}
	fn := env.Base.Fixed().Clone()
	in := make([]float64, fn.NumInputs())
	r := rng.NewRand(0xB13)
	for i := range in {
		in[i] = r.Float64()
	}
	muls := fn.NumMuls()

	skip, err := faults.NewInjector(experiments.OperatingErrorRate, nil, rng.NewRand(2))
	if err != nil {
		return nil, err
	}
	bern, err := faults.NewBernoulliInjector(experiments.OperatingErrorRate, nil, rng.NewRand(2))
	if err != nil {
		return nil, err
	}
	stoch, err := env.Stochastic(experiments.OperatingErrorRate, 0xE7A1)
	if err != nil {
		return nil, err
	}
	test := env.Test()

	forwardPass := func(u fxp.Unit) func(b *testing.B) {
		net := fn.Clone()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.Run(u, in)
			}
		}
	}

	rep := &Report{
		Scale:     scale.Name,
		Seed:      scale.Seed,
		ErrorRate: experiments.OperatingErrorRate,
		NumMuls:   muls,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Count:     count,
	}
	add := func(res Result, withMuls bool) {
		if withMuls {
			res.MulsPerSec = float64(muls) / (res.NsPerOp * 1e-9)
		}
		rep.Results = append(rep.Results, res)
	}

	add(measure("inference_exact_fused", count, forwardPass(fxp.Exact{})), true)
	add(measure("inference_exact_scalar", count, forwardPass(scalarUnit{fxp.Exact{}})), true)
	add(measure("inference_faulty_skipahead", count, forwardPass(skip)), true)
	add(measure("inference_faulty_bernoulli", count, forwardPass(scalarUnit{bern})), true)
	add(measure("evaluate_sharded", count, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hmd.Evaluate(stoch, test)
		}
	}), false)
	add(measure("evaluate_serial_1worker", count, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hmd.EvaluateParallel(stoch, test, 1)
		}
	}), false)

	// Batch-lane faulty passes: one RunBatch over k lanes, each lane on
	// its own fault stream at the operating rate. NsPerOp is the cost of
	// the whole batched call; per-lane cost is NsPerOp / k.
	for _, k := range []int{1, 4, 16, 64} {
		streams := make([]rand.Source64, k)
		for l := range streams {
			streams[l] = rng.NewSource64(2, uint64(l))
		}
		binj, err := faults.NewBatchInjector(experiments.OperatingErrorRate, nil, streams)
		if err != nil {
			return nil, err
		}
		net := fn.Clone()
		ins := make([][]float64, k)
		for j := range ins {
			ins[j] = in
		}
		out := make([]float64, k*net.NumOutputs())
		res := measure(fmt.Sprintf("batch_faulty_%d", k), count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.RunBatch(binj, ins, nil, out)
			}
		})
		res.Lanes = k
		res.MulsPerSec = float64(muls*k) / (res.NsPerOp * 1e-9)
		rep.Results = append(rep.Results, res)
	}

	// In-process /v1/detect throughput, scalar dispatch vs micro-batched:
	// same model, same pool shape, concurrent clients through the handler
	// (no sockets), then one serial client. One op = one single-program
	// request.
	for _, serial := range []bool{false, true} {
		for _, maxBatch := range []int{0, 16} {
			res, err := measureServe(env.Base, count, maxBatch, serial)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, res)
		}
	}

	// Transport A/B over real sockets: JSON/HTTP vs SHMDWIRE streaming,
	// same request mix and server shape on both sides.
	serveJSON, serveWire, err := measureServeTransports(env.Base, count, 16)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, serveJSON, serveWire)

	decodeFast, decodeStd, err := measureDecode(env.Base, count)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, decodeFast, decodeStd)

	detectLane1, detectScalar, err := measureDetect(env.Base, count)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, detectLane1, detectScalar)

	train, train1, err := measureTrain(env, count)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, train, train1)

	rep.Speedups = speedupsOf(rep.Results)
	return rep, nil
}

// speedupsOf computes the headline ratios from a report's rows by
// name, so a report whose rows were partly refreshed (-rows) gets
// ratios that agree with the rows it carries.
func speedupsOf(results []Result) Speedups {
	ns := make(map[string]float64, len(results))
	for _, r := range results {
		ns[r.Name] = r.NsPerOp
	}
	return Speedups{
		ExactFusedVsScalar:         ns["inference_exact_scalar"] / ns["inference_exact_fused"],
		FaultySkipAheadVsBernoulli: ns["inference_faulty_bernoulli"] / ns["inference_faulty_skipahead"],
		EvaluateShardedVsSerial:    ns["evaluate_serial_1worker"] / ns["evaluate_sharded"],
		BatchLane64VsScalarFaulty:  ns["inference_faulty_skipahead"] / (ns["batch_faulty_64"] / 64),
		BatchLane64VsExactFused:    ns["inference_exact_fused"] / (ns["batch_faulty_64"] / 64),
		ServeBatchedVsScalar:       ns["serve_detect_scalar"] / ns["serve_detect_batched_16"],
		ServeBatchedIdleVsScalar:   ns["serve_detect_scalar_serial"] / ns["serve_detect_batched_16_serial"],
		ServeWireVsJSON:            ns["serve_json_tcp_batched_16"] / ns["serve_wire_stream_batched_16"],
		JSONDecodeFastVsStd:        ns["decode_json_16_std"] / ns["decode_json_16"],
		DetectLane1VsScalar:        ns["detect_program_16_scalar"] / ns["detect_program_16"],
		TrainEpochVs1Proc:          ns["train_rprop_epoch_1proc"] / ns["train_rprop_epoch"],
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
	byName := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		byName[r.Name] = r
	}
	out := *prev
	out.Results = append([]Result(nil), prev.Results...)
	for _, p := range strings.Split(patterns, ",") {
		p = strings.TrimSpace(p)
		hit := false
		for i, r := range out.Results {
			ok, err := path.Match(p, r.Name)
			if err != nil {
				return nil, fmt.Errorf("-rows %q: %w", p, err)
			}
			if f, measured := byName[r.Name]; ok && measured {
				out.Results[i], hit = f, true
			}
		}
		for _, f := range fresh.Results {
			known := slices.ContainsFunc(out.Results, func(r Result) bool { return r.Name == f.Name })
			if ok, _ := path.Match(p, f.Name); ok && !known {
				out.Results, hit = append(out.Results, f), true
			}
		}
		if !hit {
			return nil, fmt.Errorf("-rows %q matches no benchmark row", p)
		}
	}
	out.Speedups = speedupsOf(out.Results)
	return &out, nil
}

// measureServe benchmarks the detection service end to end in-process:
// a real serve.Server (pool of 4 undervolted sessions at the operating
// rate), clients calling the handler directly — concurrent ones, or
// with serial set one client sending its requests one after another.
// maxBatch 0 measures the scalar per-request dispatch; > 1 the
// micro-batching dispatcher with that lane limit.
func measureServe(base *hmd.HMD, count, maxBatch int, serial bool) (Result, error) {
	name := "serve_detect_scalar"
	if maxBatch > 1 {
		name = fmt.Sprintf("serve_detect_batched_%d", maxBatch)
	}
	if serial {
		name += "_serial"
	}
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

// scalarInjector hides an injector's batch form: it is still a
// core.FaultUnit and an fxp.BulkUnit, but not a *faults.Injector, so
// scoring through it runs fann.FixedNetwork.Run and Injector.DotRow —
// the scalar path production detection used before batch kernels.
type scalarInjector struct{ *faults.Injector }

// measureDetect benchmarks one supervised detection A/B on one program
// of 16 windows x 4096 instructions, the http-scalar request geometry:
// the production detector, which scores the program's windows as lanes
// of one planned pass of the batch kernel, against the same
// supervisor, session and seed around a scalar injector.
func measureDetect(base *hmd.HMD, count int) (Result, Result, error) {
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		return Result{}, Result{}, err
	}
	windows, err := prog.Trace(16, 4096)
	if err != nil {
		return Result{}, Result{}, err
	}
	opts := core.Options{ErrorRate: experiments.OperatingErrorRate, Seed: 1}
	lane1, err := core.New(base.WithFreshBuffers(), opts)
	if err != nil {
		return Result{}, Result{}, err
	}
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(opts.DeviceSeed))
	if err != nil {
		return Result{}, Result{}, err
	}
	inj, err := faults.NewInjector(0, nil, rng.NewRand(opts.Seed, 0x5BD))
	if err != nil {
		return Result{}, Result{}, err
	}
	scalar, err := core.NewWithHardware(base.WithFreshBuffers(), reg, scalarInjector{inj}, opts)
	if err != nil {
		return Result{}, Result{}, err
	}
	row := func(name string, s *core.StochasticHMD) (Result, error) {
		sup, err := core.NewSupervisor(s, core.SupervisorConfig{})
		if err != nil {
			return Result{}, err
		}
		return measure(name, count, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sup.DetectProgram(windows); err != nil {
					b.Fatal(err)
				}
			}
		}), nil
	}
	lane1Row, err := row("detect_program_16", lane1)
	if err != nil {
		return Result{}, Result{}, err
	}
	scalarRow, err := row("detect_program_16_scalar", scalar)
	return lane1Row, scalarRow, err
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
	ratio("exact_fused_vs_scalar", rep.Speedups.ExactFusedVsScalar, base.Speedups.ExactFusedVsScalar)
	ratio("faulty_skipahead_vs_bernoulli", rep.Speedups.FaultySkipAheadVsBernoulli, base.Speedups.FaultySkipAheadVsBernoulli)
	ratio("batch_lane64_vs_faulty_skipahead", rep.Speedups.BatchLane64VsScalarFaulty, base.Speedups.BatchLane64VsScalarFaulty)
	ratio("batch_lane64_vs_exact_fused", rep.Speedups.BatchLane64VsExactFused, base.Speedups.BatchLane64VsExactFused)
	ratio("json_decode_fast_vs_std", rep.Speedups.JSONDecodeFastVsStd, base.Speedups.JSONDecodeFastVsStd)
	ratio("detect_lane1_vs_scalar", rep.Speedups.DetectLane1VsScalar, base.Speedups.DetectLane1VsScalar)
	// One serial client leaves nothing to overlap, so the idle-batcher
	// ratio gates on any proc count. Its baseline is capped at 1.0 like
	// the other serve ratios: the invariant is that an idle batcher
	// dispatches at once, as fast as scalar dispatch, whatever this
	// machine's exact ratio.
	wantIdle := base.Speedups.ServeBatchedIdleVsScalar
	if wantIdle > 1 {
		wantIdle = 1
	}
	ratio("serve_batched_idle_vs_scalar", rep.Speedups.ServeBatchedIdleVsScalar, wantIdle)
	// The parallel rows cannot speed up on one proc: a 1-core runner
	// reporting a ~1.0x ratio against a multi-core baseline is the
	// machine, not a regression — skip those gates there.
	if rep.MaxProcs > 1 {
		ratio("evaluate_sharded_vs_serial", rep.Speedups.EvaluateShardedVsSerial, base.Speedups.EvaluateShardedVsSerial)
		ratio("train_epoch_vs_1proc", rep.Speedups.TrainEpochVs1Proc, base.Speedups.TrainEpochVs1Proc)
		// The serve ratio's upside depends on core count and scheduler,
		// so its baseline is capped at 1.0: the portable invariant is
		// that micro-batching never collapses throughput below scalar
		// dispatch, not the exact speedup this machine happened to see.
		want := base.Speedups.ServeBatchedVsScalar
		if want > 1 {
			want = 1
		}
		ratio("serve_batched_vs_scalar", rep.Speedups.ServeBatchedVsScalar, want)
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
		// are ABI noise (interface boxing, map seeds), not leaks.
		limit := float64(b.AllocsPerOp)*(1+maxRegress) + 2
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
	if *rows != "" {
		var err error
		if prev, err = load(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -rows needs an existing report: %v\n", err)
			os.Exit(1)
		}
	}

	rep, err := run(scale, *count)
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
	for _, r := range rep.Results {
		fmt.Printf("%-28s %12.1f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.Lanes > 1 {
			fmt.Printf("  %10.1f ns/lane", r.NsPerOp/float64(r.Lanes))
		}
		if r.MulsPerSec > 0 {
			fmt.Printf("  %8.1f Mmuls/s", r.MulsPerSec/1e6)
		}
		fmt.Println()
	}
	fmt.Printf("exact fused vs scalar:        %.2fx\n", rep.Speedups.ExactFusedVsScalar)
	fmt.Printf("faulty skip-ahead vs bernoulli: %.2fx\n", rep.Speedups.FaultySkipAheadVsBernoulli)
	fmt.Printf("evaluate sharded vs serial:   %.2fx (%d procs)\n", rep.Speedups.EvaluateShardedVsSerial, rep.MaxProcs)
	fmt.Printf("batch lane64 vs scalar faulty: %.2fx\n", rep.Speedups.BatchLane64VsScalarFaulty)
	fmt.Printf("batch lane64 vs exact fused:  %.2fx\n", rep.Speedups.BatchLane64VsExactFused)
	fmt.Printf("serve batched vs scalar:      %.2fx\n", rep.Speedups.ServeBatchedVsScalar)
	fmt.Printf("serve batched idle vs scalar: %.2fx\n", rep.Speedups.ServeBatchedIdleVsScalar)
	fmt.Printf("serve wire stream vs json:    %.2fx\n", rep.Speedups.ServeWireVsJSON)
	fmt.Printf("json decode fast vs std:      %.2fx\n", rep.Speedups.JSONDecodeFastVsStd)
	fmt.Printf("detect lanes vs scalar:       %.2fx\n", rep.Speedups.DetectLane1VsScalar)
	if rep.MaxProcs > 1 {
		fmt.Printf("train epoch vs 1 proc:        %.2fx (%d procs)\n", rep.Speedups.TrainEpochVs1Proc, rep.MaxProcs)
	} else {
		fmt.Println("train epoch vs 1 proc:        not measured on 1 proc (both rows are serial; gate skipped)")
	}
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
