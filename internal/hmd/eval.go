package hmd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"shmd/internal/dataset"
	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// This file holds batched detection and evaluation. Every window of
// every program runs as its own lane of the batch-lane kernels
// (fann.RunBatch, fann.RunInputs), one planned pass per laneChunk
// lanes. An evaluation extracts its programs once into a Set — every
// window's quantized first-layer inputs and nominal first-layer sums —
// and EvaluateSet scores any number of evaluations ("cells": the error
// rates and repeats of a sweep) over it as one flat list of
// (cell, program-batch) jobs. Batching is a layout change, never a
// semantics change: per program the scores and verdicts are
// bit-identical to the per-program path, so every result is
// independent of batch size, worker count and job order.

// DefaultEvalBatch is the number of programs one evaluation job
// decides (their windows then run as lanes, laneChunk at a time).
const DefaultEvalBatch = 64

// DetectTracesUnit evaluates every trace through the batch unit u,
// trace j on unit lane j — the serving path's entry point, where lanes
// are concurrent requests. Every window of every trace is one packed
// lane of one planned pass (see scoreLanes), so per-lane unit state —
// fault streams — stays attached to its trace whatever its length,
// and per trace the window scores, and hence the decision, are
// bit-identical to scoring them through ScoreWindowsUnit with the
// lane's unit state and deciding with DecideFromScores.
//
// The receiver's scratch buffers are used; as with ScoreWindowsUnit,
// an HMD is not safe for concurrent calls (WithFreshBuffers per
// goroutine).
func (h *HMD) DetectTracesUnit(u fxp.BatchUnit, traces [][]trace.WindowCounts) []Decision {
	out := make([]Decision, len(traces))
	if len(traces) == 0 {
		return out
	}
	scores := h.scoreLanes(u, h.lanes.scores[:0], traces...)
	h.lanes.scores = scores
	for j, windows := range traces {
		n := len(windows) / h.cfg.Period
		out[j] = h.DecideFromScores(scores[:n])
		scores = scores[n:]
	}
	return out
}

// Set is a program set extracted for one detector: each program's
// decision windows as lanes of its network's first layer (fann.Inputs:
// quantized inputs, |x| bounds and nominal first-layer sums), program
// p's windows at lanes [starts[p], starts[p+1]). A Set is built once
// per evaluation call and never cached across calls; it is read-only
// once built, so concurrent jobs share it. It is bound to the network
// weights of the detector it was extracted for: scoring it through any
// other network panics.
type Set struct {
	programs []dataset.TracedProgram
	starts   []int
	in       *fann.Inputs
}

// NewSet extracts programs for h (its feature set and detection
// period), quantizing every decision window for h's network.
func NewSet(h *HMD, programs []dataset.TracedProgram) (*Set, error) {
	starts := make([]int, len(programs)+1)
	var vecs [][]float64
	for p, prog := range programs {
		v, err := features.Extract(prog.Windows, h.cfg.FeatureSet, h.cfg.Period)
		if err != nil {
			return nil, fmt.Errorf("hmd: program %d: %w", p, err)
		}
		vecs = append(vecs, v...)
		starts[p+1] = len(vecs)
	}
	return &Set{programs: programs, starts: starts, in: h.fixed.Quantize(vecs)}, nil
}

// scoredBy reports whether the set was extracted for h's network.
func (s *Set) scoredBy(h *HMD) bool { return h != nil && h.fixed.Quantized(s.in) }

// SetDetector is the interface of detectors whose evaluation runs over
// an extracted Set, many programs per lane-batched pass.
//
// A type that embeds a SetDetector inherits both methods; if it
// changes the embedded detector's verdicts it must override SetBase to
// return nil, or evaluation scores the embedded detector instead.
type SetDetector interface {
	// SetBase returns the baseline detector whose network scores the
	// detector's sets (they come from NewSet(SetBase(), ...)), or nil
	// when the detector cannot evaluate sets in its current state;
	// Evaluate then runs it program by program.
	SetBase() *HMD
	// DetectSet decides programs [lo, hi) of set into out[:hi-lo].
	// Program idx's stochastic stream, if any, is a pure function of
	// the detector's seed and idx — never of the programs sharing its
	// batch — so verdicts do not depend on batching, worker count or
	// job order. Safe for concurrent use.
	DetectSet(set *Set, lo, hi int, out []Decision)
}

// SetBase implements SetDetector: a baseline scores its own sets.
func (h *HMD) SetBase() *HMD { return h }

// DetectSet implements SetDetector at nominal voltage, on a
// buffer-fresh copy so concurrent jobs never share scratch state.
func (h *HMD) DetectSet(set *Set, lo, hi int, out []Decision) {
	h.WithFreshBuffers().DetectSetUnit(fxp.Exact{}, set, lo, hi, out)
}

var _ SetDetector = (*HMD)(nil)

// DetectSetUnit decides programs [lo, hi) of set into out[:hi-lo]
// through the batch unit u, program lo+j on unit lane j. The programs'
// windows run as packed lanes in program order, laneChunk at a time,
// so — as in DetectTracesUnit — a program's windows take consecutive
// windows of its lane's stream, and per program the decision is
// bit-identical to ScoreWindowsUnit and DecideFromScores with the
// lane's unit state. The set is only read; the receiver's scratch
// buffers are used (WithFreshBuffers per goroutine).
func (h *HMD) DetectSetUnit(u fxp.BatchUnit, set *Set, lo, hi int, out []Decision) {
	s := &h.lanes
	first, last := set.starts[lo], set.starts[hi]
	ids := s.ids[:0]
	for p := lo; p < hi; p++ {
		for range set.starts[p+1] - set.starts[p] {
			ids = append(ids, p-lo)
		}
	}
	scores := s.scores[:0]
	for a := first; a < last; a += laneChunk {
		b := min(a+laneChunk, last)
		s.out = h.fixed.RunInputs(u, set.in, a, b, ids[a-first:b-first], s.out)
		scores = append(scores, s.out...)
	}
	for p := lo; p < hi; p++ {
		out[p-lo] = h.DecideFromScores(scores[set.starts[p]-first : set.starts[p+1]-first])
	}
	s.ids, s.scores = ids, scores
}

// DecisionTrace is one evaluated decision as EvalOptions.Sink sees it:
// the program index and input windows, and the verdict.
type DecisionTrace struct {
	// Program is the index into the evaluated program set.
	Program int
	// Windows is the scored trace (aliases the program's windows; do
	// not mutate).
	Windows []trace.WindowCounts
	// Decision is the verdict.
	Decision Decision
}

// EvalOptions configures EvaluateSet; the zero value is the default.
type EvalOptions struct {
	// Workers bounds the goroutines jobs run on (<= 0: GOMAXPROCS).
	Workers int
	// Batch is the number of programs one job decides (<= 0:
	// DefaultEvalBatch).
	Batch int
	// Sink, when set, receives every decision once all jobs are done:
	// serially, cell by cell, in program order.
	Sink func(DecisionTrace)
}

// EvaluateSet evaluates every cell over set and returns each cell's
// confusion matrix of program-level decisions. The (cell,
// program-batch) jobs of all cells form one flat list that the workers
// drain, so a sweep's cells share the workers without a barrier
// between them, and every job reads the one set. Every cell must
// accept set — a non-nil SetBase whose network the set was extracted for —
// or EvaluateSet panics before any job runs. Worker count and batch
// size affect wall-clock only, never the result.
func EvaluateSet(cells []SetDetector, set *Set, opts EvalOptions) []stats.Confusion {
	workers, batch := opts.Workers, opts.Batch
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batch <= 0 {
		batch = DefaultEvalBatch
	}
	n := len(set.programs)
	type job struct{ cell, lo, hi int }
	var jobs []job
	for c, d := range cells {
		if !set.scoredBy(d.SetBase()) {
			panic(fmt.Sprintf("hmd: cell %d does not score sets extracted for this network", c))
		}
		for lo := 0; lo < n; lo += batch {
			jobs = append(jobs, job{c, lo, min(lo+batch, n)})
		}
	}
	decs := make([]Decision, len(cells)*n)
	forEachJob(len(jobs), workers, func(i int) {
		j := jobs[i]
		at := j.cell * n
		cells[j.cell].DetectSet(set, j.lo, j.hi, decs[at+j.lo:at+j.hi])
	})
	out := make([]stats.Confusion, len(cells))
	for c := range cells {
		for i, p := range set.programs {
			dec := decs[c*n+i]
			out[c].Record(dec.Malware, p.IsMalware())
			if opts.Sink != nil {
				opts.Sink(DecisionTrace{Program: i, Windows: p.Windows, Decision: dec})
			}
		}
	}
	return out
}

// forEachJob runs fn(0..n-1) on up to workers goroutines, inline when
// one worker suffices.
func forEachJob(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Evaluate runs a detector over labelled programs and returns the
// confusion matrix of program-level decisions. A SetDetector with a
// base is evaluated over one Set extracted for it, through
// EvaluateSet's jobs on GOMAXPROCS workers; any other detector runs
// program by program through DetectProgram, serially. The result does
// not depend on the worker count.
func Evaluate(d Detector, programs []dataset.TracedProgram) stats.Confusion {
	if sd, ok := d.(SetDetector); ok {
		if base := sd.SetBase(); base != nil {
			set, err := NewSet(base, programs)
			if err != nil {
				// A trace too short for the detection period is a
				// caller bug, as in ScoreWindowsUnit.
				panic(err.Error())
			}
			return EvaluateSet([]SetDetector{sd}, set, EvalOptions{})[0]
		}
	}
	var c stats.Confusion
	for _, p := range programs {
		c.Record(d.DetectProgram(p.Windows).Malware, p.IsMalware())
	}
	return c
}
