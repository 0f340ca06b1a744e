package main

import (
	"math"
	"runtime"
)

// reportSetup records the median set-up and its phases.
func reportSetup(rep *report, times []setupTimes) {
	var total, gen, train, craft, start []float64
	for _, t := range times {
		total = append(total, t.total.Seconds())
		gen = append(gen, t.generate.Seconds())
		train = append(train, t.train.Seconds())
		craft = append(craft, t.craft.Seconds())
		start = append(start, ms(t.start))
	}
	rep.e2e["setup_s"] = median(total)
	rep.layer["dataset.generate_s"] = median(gen)
	rep.layer["hmd.train_s"] = median(train)
	rep.layer["attack.craft_s"] = median(craft)
	rep.layer["serve.start_ms"] = median(start)
	rep.note("setups total_s=%v generate_s=%v train_s=%v craft_s=%v start_ms=%v", total, gen, train, craft, start)
}

// finishCommon records what every workload reports the same way: the
// verdict tally, peak memory and the runtime's allocation counters.
func finishCommon(rep *report, t *tally, rs []roundStats, mem memDelta) {
	if t.invalid > 0 {
		rep.problem("%d invalid replies, first: %s", t.invalid, t.firstInvalid)
	}
	if t.verdicts > 0 {
		rep.e2e["protected_ratio"] = float64(t.protected) / float64(t.verdicts)
		rep.layer["core.retry_ratio"] = float64(t.retried) / float64(t.verdicts)
	}
	rep.layer["serve.unprotected"] = float64(t.verdicts - t.protected)
	if rss, err := peakRSSMB(); err == nil {
		rep.e2e["peak_rss_mb"] = rss
	} else {
		rep.problem("peak RSS: %v", err)
	}
	var windows int64
	for _, r := range rs {
		windows += r.windows
	}
	if windows > 0 {
		rep.layer["runtime.allocs_per_window"] = float64(mem.mallocs) / float64(windows)
		rep.layer["runtime.alloc_bytes_per_window"] = float64(mem.bytes) / float64(windows)
	}
	rep.layer["runtime.gc_cycles"] = float64(mem.gcs)
	rep.note("verdicts=%d protected=%d retried=%d test=%d/%d evasive_caught=%d/%d gc_cycles=%d gomaxprocs=%d",
		t.verdicts, t.protected, t.retried, t.testCorrect, t.testN, t.evCaught, t.evN, mem.gcs, runtime.GOMAXPROCS(0))
}

// rateTolerance is the relative band around the operating fault rate
// that the served sessions' canary readings must fall in: the
// supervisor's own default recalibration band.
const rateTolerance = 0.35

// servedCounters derives the served per-layer counts from the
// server's own /metrics, phase by phase, and the served accuracy.
func servedCounters(rep *report, t *tally, deltas map[string]promSample, final promSample, spec servedSpec) {
	if t.testN > 0 {
		rep.e2e["accuracy"] = float64(t.testCorrect) / float64(t.testN)
	}
	all := promSample{}
	for _, d := range deltas {
		all.add(d)
	}
	lo, hi := deltas["lo"], deltas["hi"]
	// The served sessions must run at the operating point. The accuracy
	// cross-check alone cannot show it: on some seeds the exact baseline
	// already catches most of the crafted set.
	rate := final.gaugeMean("shmd_session_canary_fault_rate")
	rep.layer["faults.observed_rate"] = rate
	if math.Abs(rate-operatingRate) > rateTolerance*operatingRate {
		rep.problem("served canary fault rate %.4f, operating point %v", rate, operatingRate)
	}
	if max := spec.cfg(0).MaxBatch; max > 1 {
		rep.layer["serve.batch_fill"] = all.histMean("shmd_batch_size") / float64(max)
	} else {
		rep.layer["serve.batch_fill"] = 0
	}
	rep.layer["serve.batch_wait_ms"] = lo.histMean("shmd_batch_wait_seconds") * 1e3
	rep.layer["serve.detect_ms"] = lo.histMean("shmd_detect_duration_seconds") * 1e3
	rep.layer["serve.tenant_wait_ms"] = hi.histMean("shmd_tenant_queue_wait_seconds") * 1e3
	rep.layer["serve.queue_rejects"] = all.sum("shmd_queue_rejects_total")
	rep.layer["tenant.sheds"] = all.sum("shmd_tenant_shed_total")
	rep.note("metrics hi: detect_ms=%.4f batch_wait_ms=%.4f batch_size=%.3f; closed: detect_ms=%.4f batch_size=%.3f",
		hi.histMean("shmd_detect_duration_seconds")*1e3, hi.histMean("shmd_batch_wait_seconds")*1e3,
		hi.histMean("shmd_batch_size"), deltas["closed"].histMean("shmd_detect_duration_seconds")*1e3,
		deltas["closed"].histMean("shmd_batch_size"))
}
