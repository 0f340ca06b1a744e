package main

import (
	"bytes"
	"math/rand"
	"time"

	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// Per-call timings of the traced run. Each call into a layer's public
// function is one span; a metric is the median span over the
// workload's own programs and requests.

// lanes is the batch width of the traced lane-kernel calls: the
// micro-batcher's MaxBatch on wire-batched.
const lanes = 16

// tracedSamples is how many calls each per-call timing takes.
const tracedSamples = 400

// overheadPhase is the length of each closed-loop phase of the tracing
// overhead comparison.
const overheadPhase = time.Second

// kernelLayers times the kernel layers on the corpus's programs. It
// returns the median supervised detection of one program, the
// waterfall's kernel term, and the fault rate its injector observed.
func kernelLayers(env *runEnv, c *corpus) (detectProgram time.Duration, observed float64, err error) {
	tr, rep := env.tr, env.rep
	cfg := c.base.Config()
	items := c.items
	var vecs [][]float64
	var perWindow []float64
	for _, it := range items {
		var v [][]float64
		d := tr.timed("features.extract", 0, func(uint64) {
			v, err = features.Extract(it.windows, cfg.FeatureSet, cfg.Period)
		})
		if err != nil {
			return 0, 0, err
		}
		perWindow = append(perWindow, float64(d)/float64(len(it.windows)))
		vecs = append(vecs, v...)
	}
	rep.layer["features.extract_us_per_window"] = median(perWindow) / 1e3

	fixed := c.base.Fixed().Clone()
	inj, err := faults.NewInjector(operatingRate, nil, rng.NewRand(c.seed, labelLibrary, 0x7A))
	if err != nil {
		return 0, 0, err
	}
	run := medianSpan(tr, "fann.run", tracedSamples, func(i int) { fixed.Run(inj, vecs[i%len(vecs)]) })
	rep.layer["fann.run_us"] = us(run)
	observed = inj.Stats().Rate()

	srcs := make([]rand.Source64, lanes)
	for l := range srcs {
		srcs[l] = rng.NewSource64(c.seed, labelLibrary, 0x7B, uint64(l))
	}
	binj, err := faults.NewBatchInjector(operatingRate, nil, srcs)
	if err != nil {
		return 0, 0, err
	}
	inputs := make([][]float64, lanes)
	out := make([]float64, lanes*fixed.NumOutputs())
	batch := medianSpan(tr, "fann.run_batch", tracedSamples, func(i int) {
		for l := range inputs {
			inputs[l] = vecs[(i*lanes+l)%len(vecs)]
		}
		out = fixed.RunBatch(binj, inputs, nil, out)
	})
	rep.layer["fann.run_batch_us_per_lane"] = us(batch) / lanes

	group := func(i int) ([][]trace.WindowCounts, int) {
		traces := make([][]trace.WindowCounts, lanes)
		windows := 0
		for l := range traces {
			traces[l] = items[(i*lanes+l)%len(items)].windows
			windows += len(traces[l])
		}
		return traces, windows
	}
	h := c.base.WithFreshBuffers()
	var groupWindows []float64
	dt := medianSpan(tr, "hmd.detect_traces", tracedSamples/8, func(i int) {
		traces, w := group(i)
		groupWindows = append(groupWindows, float64(w))
		h.DetectTracesUnit(binj, traces)
	})
	rep.layer["hmd.detect_traces_us_per_window"] = us(dt) / median(groupWindows)

	det, err := core.New(c.base.WithFreshBuffers(), core.Options{
		ErrorRate: operatingRate,
		Seed:      rng.DeriveSeed(c.seed, labelLibrary, 0x7C),
	})
	if err != nil {
		return 0, 0, err
	}
	sup, err := core.NewSupervisor(det, core.SupervisorConfig{})
	if err != nil {
		return 0, 0, err
	}
	detectProgram = medianSpan(tr, "core.detect_program", tracedSamples, func(i int) {
		if _, e := sup.DetectProgram(items[i%len(items)].windows); e != nil {
			err = e
		}
	})
	rep.layer["core.detect_program_us"] = us(detectProgram)
	db := medianSpan(tr, "core.detect_batch", tracedSamples/8, func(i int) {
		traces, _ := group(i)
		if _, _, e := sup.DetectBatch(traces, false); e != nil {
			err = e
		}
	})
	rep.layer["core.detect_batch_us_per_window"] = us(db) / median(groupWindows)
	return detectProgram, observed, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// zeroLayers records layers a workload's path does not cross.
func zeroLayers(rep *report, names ...string) {
	for _, n := range names {
		rep.layer[n] = 0
	}
}

var (
	wireLayers   = []string{"wire.encode_detect_us", "wire.decode_detect_us", "wire.encode_verdict_us", "wire.decode_verdict_us", "wire.bytes_per_window"}
	httpLayers   = []string{"serve.decode_json_us", "tenant.admit_ns"}
	serverLayers = []string{"serve.scrape_ms", "serve.scrape_bytes", "serve.batch_fill", "serve.batch_wait_ms",
		"serve.detect_ms", "serve.tenant_wait_ms", "serve.queue_rejects", "tenant.sheds"}
)

// overheadPairs is how many untraced/traced closed-loop pairs the
// tracing-overhead comparison alternates, so host drift hits both sides.
const overheadPairs = 3

// overhead compares closed-loop throughput with tracing off and on.
func overhead(rep *report, off, on func() phaseStats) {
	var offSt, onSt phaseStats
	for i := 0; i < overheadPairs; i++ {
		offSt.merge(off())
		onSt.merge(on())
	}
	rep.unmeasured(offSt)
	rep.unmeasured(onSt)
	wps := func(st phaseStats) float64 { return float64(st.windows) / st.elapsed.Seconds() }
	a, b := wps(offSt), wps(onSt)
	rep.layer["trace.throughput_ratio"] = b / a
	rep.note("tracing overhead: untraced %.1f wps, traced %.1f wps", a, b)
}

// sweepLayers is the traced part of the sweep workload.
func sweepLayers(env *runEnv, c *corpus, sweepCall callFunc) error {
	rep := env.rep
	detect, observed, err := kernelLayers(env, c)
	if err != nil {
		return err
	}
	rep.layer["faults.observed_rate"] = observed
	rep.layer["waterfall.unaccounted_ms"] = rep.e2e["lat_lo_p50_ms"] - ms(detect)
	zeroLayers(rep, wireLayers...)
	zeroLayers(rep, httpLayers...)
	zeroLayers(rep, serverLayers...)
	overhead(rep,
		func() phaseStats { return closedLoop(realClock{}, overheadPhase, 1, time.Hour, sweepCall) },
		func() phaseStats {
			return closedLoop(realClock{}, overheadPhase, 1, time.Hour, tracedCall(env.tr, "sweep.call", sweepCall))
		})
	return nil
}

// servedLayers is the traced part of a served workload.
func servedLayers(env *runEnv, s *served, sc *scraper) error {
	tr, rep := env.tr, env.rep
	detect, _, err := kernelLayers(env, s.c)
	if err != nil {
		return err
	}
	var body []byte
	scrape := medianSpan(tr, "serve.scrape", 20, func(int) {
		if body, err = sc.get("/metrics"); err != nil {
			sc.fail(err)
		}
	})
	rep.layer["serve.scrape_ms"] = ms(scrape)
	rep.layer["serve.scrape_bytes"] = float64(len(body))
	known := 0.0
	if s.wire != nil {
		known, err = wireLayerTimings(env, s)
		if err != nil {
			return err
		}
		zeroLayers(rep, httpLayers...)
		overhead(rep, func() phaseStats {
			s.wire.tr = nil
			return s.wire.closed(overheadPhase)
		}, func() phaseStats {
			s.wire.tr = tr
			return s.wire.closed(overheadPhase)
		})
	} else {
		known = httpLayerTimings(env, s) + ms(detect)
		zeroLayers(rep, wireLayers...)
		overhead(rep, func() phaseStats {
			s.http.tr = nil
			return s.http.closed(overheadPhase)
		}, func() phaseStats {
			s.http.tr = tr
			return s.http.closed(overheadPhase)
		})
	}
	rep.layer["waterfall.unaccounted_ms"] = rep.e2e["lat_lo_p50_ms"] - known
	return nil
}

// wireLayerTimings times the SHMDWIRE codec on the workload's requests
// and sampled verdicts, and one request's batched detection with its
// own programs as lanes. It returns the waterfall's known terms in ms.
func wireLayerTimings(env *runEnv, s *served) (float64, error) {
	tr, rep, d := env.tr, env.rep, s.wire
	reqs := make([]wire.DetectRequest, tracedSamples)
	payloads := make([][]byte, tracedSamples)
	var err error
	reqBytes, reqWindows := 0, 0
	encD := medianSpan(tr, "wire.encode_detect", tracedSamples, func(i int) {
		reqs[i] = d.request(i)
		p, e := wire.AppendDetectRequest(nil, reqs[i])
		if e != nil {
			err = e
		}
		payloads[i] = p
	})
	if err != nil {
		return 0, err
	}
	for i, p := range payloads {
		reqBytes += len(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameDetect, Payload: p}))
		for _, prog := range reqs[i].Programs {
			reqWindows += len(prog.Windows)
		}
	}
	decD := medianSpan(tr, "wire.decode_detect", tracedSamples, func(i int) {
		if _, e := wire.DecodeDetectRequest(payloads[i]); e != nil {
			err = e
		}
	})
	d.mu.Lock()
	sample := append([]wire.Verdict(nil), d.sample...)
	d.mu.Unlock()
	vpay := make([][]byte, len(sample))
	encV := medianSpan(tr, "wire.encode_verdict", len(sample), func(i int) {
		p, e := wire.AppendVerdict(nil, sample[i])
		if e != nil {
			err = e
		}
		vpay[i] = p
	})
	decV := medianSpan(tr, "wire.decode_verdict", len(sample), func(i int) {
		if _, e := wire.DecodeVerdict(vpay[i]); e != nil {
			err = e
		}
	})
	if err != nil {
		return 0, err
	}
	vBytes, vWindows := 0, 0
	for i, v := range sample {
		vBytes += len(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameVerdict, Payload: vpay[i]}))
		for _, r := range v.Results {
			vWindows += int(r.Windows)
		}
	}
	rep.layer["wire.encode_detect_us"] = us(encD)
	rep.layer["wire.decode_detect_us"] = us(decD)
	rep.layer["wire.encode_verdict_us"] = us(encV)
	rep.layer["wire.decode_verdict_us"] = us(decV)
	rep.layer["wire.bytes_per_window"] = float64(reqBytes)/float64(reqWindows) + float64(vBytes)/float64(max(vWindows, 1))

	det, err := core.New(s.c.base.WithFreshBuffers(), core.Options{
		ErrorRate: operatingRate,
		Seed:      rng.DeriveSeed(s.c.seed, labelLibrary, 0x7D),
	})
	if err != nil {
		return 0, err
	}
	sup, err := core.NewSupervisor(det, core.SupervisorConfig{})
	if err != nil {
		return 0, err
	}
	perReq := medianSpan(tr, "core.detect_batch.request", tracedSamples, func(i int) {
		traces := make([][]trace.WindowCounts, len(reqs[i].Programs))
		for j, p := range reqs[i].Programs {
			traces[j] = p.Windows
		}
		if _, _, e := sup.DetectBatch(traces, false); e != nil {
			err = e
		}
	})
	return ms(encD) + ms(decD) + ms(perReq) + ms(encV) + ms(decV), err
}

// httpLayerTimings times JSON decoding and tenant admission on the
// workload's requests and returns their sum for one request in ms.
func httpLayerTimings(env *runEnv, s *served) float64 {
	tr, rep, d := env.tr, env.rep, s.http
	lim := serve.Limits{MinWindows: s.c.base.Config().Period}
	dec := medianSpan(tr, "serve.decode_json", tracedSamples, func(i int) {
		sent := d.mix[i%mixLen]
		if _, err := serve.DecodeDetectRequest(bytes.NewReader(d.bodies[sent[0]]), lim); err != nil {
			rep.problem("decoding a benchmark request: %v", err)
		}
	})
	rep.layer["serve.decode_json_us"] = us(dec)

	const perSpan = 100
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: httpTenants})
	if err != nil {
		rep.problem("tenant registry: %v", err)
		return 0
	}
	admit := medianSpan(tr, "tenant.admit", tracedSamples, func(i int) {
		for j := 0; j < perSpan; j++ {
			adm := reg.Admit(httpTenants[(i+j)%len(httpTenants)].ID, 0)
			if !adm.OK() {
				rep.problem("tenant %s refused at zero load: %v", adm.Tenant, adm.Outcome)
			}
			adm.Release()
		}
	})
	rep.layer["tenant.admit_ns"] = float64(admit) / perSpan
	return ms(dec) + ms(admit)/perSpan
}
