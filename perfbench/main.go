// Command perfbench is the repository benchmark. It runs one named
// workload through the project's public APIs in a single process,
// validates every verdict, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep|wire-batched|http-scalar \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same workload runs again with spans
// recorded in memory around every call into a layer, and the metrics
// are the per-layer ones. README.md maps each per-layer metric to the
// end-to-end metric it should move and records the noise this
// benchmark is designed against.
//
// The process exits non-zero, after printing the result, when any
// verdict was invalid or the served defense disagreed with the
// library; it exits non-zero without a result when the run itself
// could not be carried out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// operatingRate is the paper's operating point: the undervolt depth
// whose multiplier fault rate is 10%.
const operatingRate = 0.1

// reservedSeed is kept out of tuning: a claim made on other seeds is
// confirmed on this one before it is believed.
const reservedSeed = 20231

// metricSpec describes one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_wps", "1/s", "higher", 0.25},
	{"cpu_us_per_window", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ok_ratio", "ratio", "higher", 0.02},
	{"lat_lo_p50_ms", "ms", "lower", 0.25},
	{"lat_hi_p50_ms", "ms", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.1},
	{"accuracy", "ratio", "higher", 0.15},
	{"protected_ratio", "ratio", "higher", 0.02},
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = []metricSpec{
	{"dataset.generate_s", "s", "lower", 0},
	{"hmd.train_s", "s", "lower", 0},
	{"attack.craft_s", "s", "lower", 0},
	{"serve.start_ms", "ms", "lower", 0},
	{"features.extract_us_per_window", "us", "lower", 0},
	{"fann.run_us", "us", "lower", 0},
	{"fann.run_batch_us_per_lane", "us", "lower", 0},
	{"hmd.detect_traces_us_per_window", "us", "lower", 0},
	{"core.detect_program_us", "us", "lower", 0},
	{"core.detect_batch_us_per_window", "us", "lower", 0},
	{"wire.encode_detect_us", "us", "lower", 0},
	{"wire.decode_detect_us", "us", "lower", 0},
	{"wire.encode_verdict_us", "us", "lower", 0},
	{"wire.decode_verdict_us", "us", "lower", 0},
	{"serve.decode_json_us", "us", "lower", 0},
	{"tenant.admit_ns", "ns", "lower", 0},
	{"serve.scrape_ms", "ms", "lower", 0},
	{"serve.scrape_bytes", "bytes", "lower", 0},
	{"waterfall.unaccounted_ms", "ms", "lower", 0},
	{"faults.observed_rate", "ratio", "higher", 0},
	{"serve.batch_fill", "ratio", "higher", 0},
	{"serve.batch_wait_ms", "ms", "lower", 0},
	{"serve.detect_ms", "ms", "lower", 0},
	{"serve.tenant_wait_ms", "ms", "lower", 0},
	{"serve.queue_rejects", "count", "lower", 0},
	{"tenant.sheds", "count", "lower", 0},
	{"core.retry_ratio", "ratio", "lower", 0},
	{"serve.unprotected", "count", "lower", 0},
	{"wire.bytes_per_window", "bytes", "lower", 0},
	{"runtime.allocs_per_window", "count", "lower", 0},
	{"runtime.alloc_bytes_per_window", "bytes", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.throughput_ratio", "ratio", "higher", 0},
}

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	run       func(env *runEnv) error
}

var workloads = []workload{
	{"sweep", "Fig 2(a) accuracy sweep through the library: the kernel layers alone, and the bypass case every serving change must leave unchanged", runSweep},
	{"wire-batched", "SHMDWIRE detects of 1-4 programs through the SDK into the micro-batcher and lane kernels, where zero-copy ingest must show", runWireBatched},
	{"http-scalar", "JSON over HTTP, one program per request, scalar dispatch with two tenants and metrics scrapes: the tripwire for batch-of-1 and one metrics layer", runHTTPScalar},
}

// runEnv is one run's configuration and its accumulating report.
type runEnv struct {
	seed    uint64
	seconds int
	// tr records spans in the traced run; nil otherwise.
	tr  *tracer
	rep *report
}

// report is what a run measured.
type report struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	// problems are correctness failures; any one fails the run.
	problems []string
	diag     []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// unmeasured counts the requests of an untimed phase (the warm-up, the
// tracing-overhead comparison): validated like any other, they enter
// the attempted and failed totals but no metric.
func (r *report) unmeasured(st phaseStats) {
	r.attempted += st.sent
	r.failed += st.failed
}

func (r *report) note(format string, args ...any) {
	r.diag = append(r.diag, fmt.Sprintf(format, args...))
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, wire-batched or http-scalar")
	seed := flag.Uint64("seed", 1, fmt.Sprintf("workload seed (%d is reserved for confirming claims)", reservedSeed))
	seconds := flag.Int("seconds", 12, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		out, err := benchSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sweep|wire-batched|http-scalar, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// A hung run must still end, without a result, well inside the
	// three minutes a run is allowed.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v\n", wl.name, watchdog)
		os.Exit(1)
	})

	env := &runEnv{seed: *seed, seconds: *seconds, rep: &report{e2e: map[string]float64{}, layer: map[string]float64{}}}
	specs := endToEnd
	if *traced == 1 {
		env.tr = &tracer{}
		specs = perLayer
	}
	steal0 := readCPUStat()
	start := time.Now()
	if err := wl.run(env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	rep := env.rep
	rep.note("run %s seed=%d seconds=%d trace=%d wall=%.1fs steal=%.4f", wl.name, *seed, *seconds, *traced,
		time.Since(start).Seconds(), stealShare(steal0, readCPUStat()))
	info := buildInfo()
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.note("build %s=%s", k, info[k])
	}
	if env.tr != nil {
		writeSummary(os.Stdout, env.tr.summarize())
	}
	for _, d := range rep.diag {
		fmt.Println("#", d)
	}

	values := rep.e2e
	if env.tr != nil {
		values = rep.layer
	}
	out := resultLine{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", wl.name, s.name)
			os.Exit(1)
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Printf("%-34s %16.6f %s\n", s.name, v, s.unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INVALID:", p)
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no request was attempted\n", wl.name)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// watchdog bounds one run's wall time.
const watchdog = 150 * time.Second

// runSeconds is the measured length of one run in BENCHMARK.json.
const runSeconds = 25

// benchSpec is the content of BENCHMARK.json, generated from the
// tables above so the file and the program cannot drift apart.
func benchSpec() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
