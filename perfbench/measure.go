package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run repeats its whole set-up; setup_s is
// the median, because one set-up on this class of machine varies by
// more than a quarter between processes.
const setups = 3

// rounds is how many times a run cycles through its phases. Each
// metric is the median over rounds, so a slowdown shorter than half
// the run does not move it.
const rounds = 10

// warmup is the untimed closed-loop phase before the first round, so
// caches fill and the heap reaches its working size before timing.
const warmup = time.Second

// sloLimit is the latency limit of slo_ok_ratio.
const sloLimit = 10 * time.Millisecond

// phase is one load phase of a round.
type phase struct {
	kind string
	// share is the phase's fraction of each round.
	share float64
	run   func(d time.Duration) phaseStats
}

// roundStats is what one round measured.
type roundStats struct {
	byKind  map[string]phaseStats
	cpu     time.Duration
	windows int64
}

// runRounds splits total into rounds and runs every phase once per
// round, in order. around, when set, wraps each phase (served
// workloads scrape /metrics on both sides of it).
func runRounds(total time.Duration, phases []phase, around func(kind string, run func())) []roundStats {
	per := total / rounds
	out := make([]roundStats, rounds)
	for r := range out {
		rs := roundStats{byKind: map[string]phaseStats{}}
		cpu0 := cpuTime()
		for _, p := range phases {
			p := p
			d := time.Duration(float64(per) * p.share)
			body := func() { rs.byKind[p.kind] = p.run(d) }
			if around != nil {
				around(p.kind, body)
			} else {
				body()
			}
			rs.windows += rs.byKind[p.kind].windows
		}
		rs.cpu = cpuTime() - cpu0
		out[r] = rs
	}
	return out
}

// memDelta is the change in the runtime's allocation counters.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
	}
}

// summarizeRounds fills the end-to-end metrics the rounds determine:
// throughput from the closed-loop phase tput, latency medians of the
// lo and hi phases, the SLO share of the hi phase, CPU per window and
// the ok share over every phase. It also records the diagnostics.
func summarizeRounds(rep *report, rs []roundStats, tput string) {
	var thr, lo, hi, cpu []float64
	merged := map[string]*phaseStats{}
	var kinds []string
	for _, r := range rs {
		if st := r.byKind[tput]; st.elapsed > 0 {
			thr = append(thr, float64(st.windows)/st.elapsed.Seconds())
		}
		if p50, _, ok := percentile(r.byKind["lo"].lat, 0.5); ok {
			lo = append(lo, ms(p50))
		}
		if p50, _, ok := percentile(r.byKind["hi"].lat, 0.5); ok {
			hi = append(hi, ms(p50))
		}
		if r.windows > 0 {
			cpu = append(cpu, float64(r.cpu)/1e3/float64(r.windows))
		}
		for k, st := range r.byKind {
			m := merged[k]
			if m == nil {
				m = &phaseStats{}
				merged[k] = m
				kinds = append(kinds, k)
			}
			m.merge(st)
		}
	}
	sort.Strings(kinds)
	var sent, ok int64
	for _, k := range kinds {
		m := merged[k]
		sent += m.sent
		ok += m.ok
		rep.attempted += m.sent
		rep.failed += m.failed
		rep.note("phase %-6s sent=%d ok=%d failed=%d windows=%d %s %s", k, m.sent, m.ok, m.failed, m.windows,
			tailNote(m.lat, "latency"), tailNote(m.late, "lateness"))
	}
	hiAll := merged["hi"]
	rep.e2e["throughput_wps"] = median(thr)
	rep.e2e["lat_lo_p50_ms"] = median(lo)
	rep.e2e["lat_hi_p50_ms"] = median(hi)
	rep.e2e["cpu_us_per_window"] = median(cpu)
	if sent > 0 {
		rep.e2e["ok_ratio"] = float64(ok) / float64(sent)
	}
	if hiAll != nil && hiAll.sent > 0 {
		rep.e2e["slo_ok_ratio"] = float64(hiAll.sloOK) / float64(hiAll.sent)
	}
	rep.note("rounds throughput_wps=%v lat_lo_p50_ms=%v lat_hi_p50_ms=%v cpu_us_per_window=%v", thr, lo, hi, cpu)
}

// tailNote renders a sample's median, max and reportable tail
// percentiles, each with the number of samples beyond it.
func tailNote(s []time.Duration, what string) string {
	if len(s) == 0 {
		return what + "[n=0]"
	}
	p50, _, _ := percentile(s, 0.5)
	pmax, _, _ := percentile(s, 1)
	out := fmt.Sprintf("%s[n=%d p50=%.3fms max=%.3fms", what, len(s), ms(p50), ms(pmax))
	for _, q := range []float64{0.99, 0.999} {
		if v, beyond, ok := percentile(s, q); ok {
			out += fmt.Sprintf(" p%g=%.3fms(%d beyond)", q*100, ms(v), beyond)
		} else {
			out += fmt.Sprintf(" p%g=n/a", q*100)
		}
	}
	return out + "]"
}
