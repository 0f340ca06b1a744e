package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// This file is the serving-side batch surface: whole groups of traces
// — concurrent requests coalesced by the serve dispatcher — evaluated
// in one lane-batched undervolted pass, carried through the Session
// enter/exit protocol and the Supervisor recovery machinery. A single
// supervised request is a batch of one.

// laneKit is the reusable state of one lane-batched pass: one source
// per lane, re-seeded for every pass, the batch injector re-armed over
// them, and the buffer-fresh copy of the detector's base the pass
// scores through. Re-arming a kit draws exactly what fresh sources, a
// fresh injector and a fresh copy would draw, so kits can be pooled.
type laneKit struct {
	srcs []rand.Source64
	inj  *faults.BatchInjector
	// base is the detector base h was copied from.
	base *hmd.HMD
	h    *hmd.HMD
}

// laneKits pools the kits of set evaluation jobs (laneCell.DetectSet),
// so an evaluation allocates no lane sources, injector or network
// buffers per job once its workers are warm. A kit carries no detector
// state across calls: arm re-seeds every lane, resets the rate and
// distribution, and copies a new base when the kit last served another.
var laneKits = sync.Pool{New: func() any { return new(laneKit) }}

// arm readies the kit for an n-lane pass at rate over dist, scoring
// through a copy of base: seed(src, j) re-seeds lane j's source.
func (k *laneKit) arm(base *hmd.HMD, rate float64, dist *faults.Distribution, n int, seed func(src rand.Source64, j int)) error {
	for len(k.srcs) < n {
		k.srcs = append(k.srcs, rng.NewSource64(0))
	}
	srcs := k.srcs[:n]
	for j, src := range srcs {
		seed(src, j)
	}
	if k.inj == nil {
		inj, err := faults.NewBatchInjector(rate, dist, srcs)
		if err != nil {
			return err
		}
		k.inj = inj
	} else if err := k.inj.Reset(rate, dist, srcs); err != nil {
		return err
	}
	if k.base != base {
		k.base, k.h = base, base.WithFreshBuffers()
	}
	return nil
}

// laneCell is one evaluation of an extracted set at one error rate:
// program idx draws its faults from its own stream,
// rng.NewSource64(stream[0], stream[1], stream[2], idx), whatever
// programs share its job. StochasticHMD.DetectSet is one (the shard
// streams of its seed and rate); the Fig 2(b) repeats are others.
type laneCell struct {
	base   *hmd.HMD
	rate   float64
	dist   *faults.Distribution
	stream [3]uint64
}

// SetBase implements hmd.SetDetector.
func (c laneCell) SetBase() *hmd.HMD { return c.base }

// DetectSet implements hmd.SetDetector on a pooled lane kit, program
// lo+j on lane j.
func (c laneCell) DetectSet(set *hmd.Set, lo, hi int, out []hmd.Decision) {
	kit := laneKits.Get().(*laneKit)
	defer laneKits.Put(kit)
	err := kit.arm(c.base, c.rate, c.dist, hi-lo, func(src rand.Source64, j int) {
		rng.Reseed(src, c.stream[0], c.stream[1], c.stream[2], uint64(lo+j))
	})
	if err != nil {
		// Rates are validated where cells are built, and a job has at
		// least one program.
		panic(fmt.Sprintf("core: %v", err))
	}
	kit.h.DetectSetUnit(kit.inj, set, lo, hi, out)
}

// batchPassLabel separates serving-batch lane streams from the
// detector's own stream (0x5BD in NewOnPlane), the evaluation shard
// streams (0x5A4D), and the pool slot streams (0x5E54).
const batchPassLabel = 0x5BA7

// DetectTracesBatch evaluates every trace in one lane-batched pass
// through the undervolted multiplier. Lane j's fault stream is derived
// from (root seed, pass counter, current rate, lane index), so lanes
// are mutually independent, every batched pass re-rolls its faults
// exactly as consecutive scalar detections would — the moving-target
// property — and a given (seed, pass, rate, lane) reproduces exactly.
//
// When record is set, the returned logs hold lane j's stochastic draw
// log (replayable off-hardware via faults.Replayer); otherwise logs is
// nil.
//
// Unlike ScoreWindows, a batched pass never consumes the detector's
// own fault stream; it is not safe for concurrent use with itself or
// the library path (the serving layer serializes through Session).
func (s *StochasticHMD) DetectTracesBatch(traces [][]trace.WindowCounts, record bool) (decs []hmd.Decision, logs []faults.DrawLog, err error) {
	rate := s.inj.Rate()
	pass := s.batchPass
	s.batchPass++
	err = s.kit.arm(s.base, rate, s.dist, len(traces), func(src rand.Source64, j int) {
		rng.Reseed(src, s.seed, batchPassLabel, pass, math.Float64bits(rate), uint64(j))
	})
	if err != nil {
		return nil, nil, err
	}
	binj := s.kit.inj
	if record {
		logs = make([]faults.DrawLog, len(traces))
		for j := range logs {
			binj.Lane(j).StartRecord(&logs[j])
		}
		defer func() {
			for j := range logs {
				binj.Lane(j).StopRecord()
			}
		}()
	}
	return s.kit.h.DetectTracesUnit(binj, traces), logs, nil
}

// DetectBatch runs one enter → batched infer → exit cycle: a whole
// group of coalesced requests pays a single undervolt transition
// instead of one per program, while faults still never reach
// computation outside the cycle. logs follows DetectTracesBatch's
// contract.
func (sess *Session) DetectBatch(traces [][]trace.WindowCounts, record bool) (decs []hmd.Decision, logs []faults.DrawLog, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.enter(); err != nil {
		return nil, nil, err
	}
	defer func() {
		if exitErr := sess.exit(); exitErr != nil && err == nil {
			err = exitErr
		}
	}()
	return sess.s.DetectTracesBatch(traces, record)
}

// DetectBatch serves one coalesced group of detection requests through
// the recovery state machine: the whole batch is one protected cycle
// (retried with backoff, breaker-gated, canary-counted), and on
// exhaustion the whole batch degrades together to deterministic
// nominal-voltage decisions flagged Unprotected. Per-request counters
// scale by the batch size, so Health reads the same whether requests
// arrive one at a time or coalesced. It never returns an error for
// environmental faults: every request gets a decision.
//
// logs[j] is lane j's draw log when record is set and the batch ran
// protected; degraded batches return nil logs (there are no draws at
// nominal voltage).
func (sup *Supervisor) DetectBatch(traces [][]trace.WindowCounts, record bool) ([]Verdict, []faults.DrawLog, error) {
	n := len(traces)
	if n == 0 {
		return nil, nil, nil
	}
	sup.mu.Lock()
	defer sup.mu.Unlock()
	sup.h.Detections += uint64(n)

	if sup.state == Degraded {
		sup.ticks += int64(n) // degraded detections are the breaker's clock
		if sup.breaker.Allow() {
			// Half-open probe: one protected attempt set for the batch.
			if v, logs, err := sup.tryProtectedBatch(traces, record); err == nil {
				sup.breaker.Success()
				sup.state = Healthy
				sup.h.Recoveries++
				return v, logs, nil
			}
			sup.breaker.Failure()
		}
		return sup.degradedBatch(traces), nil, nil
	}

	v, logs, err := sup.tryProtectedBatch(traces, record)
	if err != nil {
		sup.h.Failures += uint64(n)
		sup.state = Retrying
		if volt.Permanent(err) {
			sup.breaker.Trip()
		} else {
			sup.breaker.Failure()
		}
		if sup.breaker.State() == BreakerOpen {
			sup.state = Degraded
			sup.h.Trips++
		}
		return sup.degradedBatch(traces), nil, nil
	}
	sup.breaker.Success()
	if v[0].Attempts > 1 {
		sup.state = Retrying
	} else {
		sup.state = Healthy
	}

	if sup.cfg.CanaryEvery > 0 && sup.targetRate > 0 {
		sup.sinceCanary += n
		if sup.sinceCanary >= sup.cfg.CanaryEvery {
			sup.sinceCanary = 0
			sup.canary()
		}
	}
	return v, logs, nil
}

// tryProtectedBatch runs the enter → batched infer → exit cycle with
// bounded retry and exponential backoff; on final failure the plane is
// forced back to nominal (best effort). The whole batch is one
// retriable cycle: Retries counts cycle retries (not per lane — one
// faulted cycle is one recovery action), Protected scales by the lanes
// served. Callers hold sup.mu.
func (sup *Supervisor) tryProtectedBatch(traces [][]trace.WindowCounts, record bool) ([]Verdict, []faults.DrawLog, error) {
	var lastErr error
	for attempt := 0; attempt <= sup.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			sup.h.Retries++
			sup.backoff(attempt)
		}
		decs, logs, err := sup.sess.DetectBatch(traces, record)
		if err == nil {
			sup.h.Protected += uint64(len(traces))
			out := make([]Verdict, len(decs))
			for j, dec := range decs {
				out[j] = Verdict{Decision: dec, Attempts: attempt + 1}
			}
			return out, logs, nil
		}
		lastErr = err
		if volt.Permanent(err) {
			break
		}
	}
	sup.failSafe()
	return nil, nil, lastErr
}

// degradedBatch serves the group deterministically at nominal voltage
// — the paper's unprotected baseline HMD, one batched pass of the exact
// kernels through the base's own buffers, which sup.mu serialises —
// after making a best-effort pass at restoring the plane. Callers hold
// sup.mu.
func (sup *Supervisor) degradedBatch(traces [][]trace.WindowCounts) []Verdict {
	sup.failSafe()
	sup.h.Unprotected += uint64(len(traces))
	decs := sup.s.Base().DetectTracesUnit(fxp.Exact{}, traces)
	out := make([]Verdict, len(decs))
	for j, dec := range decs {
		out[j] = Verdict{Decision: dec, Unprotected: true}
	}
	return out
}
