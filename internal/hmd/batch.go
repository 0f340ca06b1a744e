package hmd

import (
	"fmt"
	"sync"

	"shmd/internal/dataset"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// This file holds batched evaluation: programs are grouped into
// batches and every window of every program is pushed through the
// batch-lane kernels (fann.RunBatch) as its own lane, one planned pass
// per 64 lanes instead of one scalar pass per window. Batching is a
// layout change, never a semantics change — per program the scores
// and verdicts are bit-identical to the per-program path — so every
// evaluation result is independent of batch size, worker count, and
// shard order.

// DefaultEvalBatch is the number of programs EvaluateParallel groups
// into one batched call when the detector supports batched evaluation
// (their windows then run as lanes, laneChunk at a time).
const DefaultEvalBatch = 64

// BatchSharder is the optional interface a ProgramSharder implements
// to evaluate whole groups of programs through batch-lane kernels.
//
// DetectBatch returns program-level decisions for programs[idx], idx
// ranging over idxs, with each lane's stochastic stream (if any)
// derived exactly as DetectorForProgram(idx) would derive it — so the
// verdicts are bit-identical to the per-program path under any
// grouping of idxs. Returning nil declines batching for this detector
// state; the decline must not depend on idxs (a detector that accepts
// one group must accept every group), which is what lets callers probe
// once and then fan batches out over workers.
type BatchSharder interface {
	ProgramSharder
	DetectBatch(idxs []int, programs []dataset.TracedProgram) []Decision
}

// DetectBatch implements BatchSharder for the deterministic baseline:
// every lane runs the exact multiplier, on a buffer-fresh copy so
// concurrent batches never share scratch state.
func (h *HMD) DetectBatch(idxs []int, programs []dataset.TracedProgram) []Decision {
	return h.WithFreshBuffers().DetectBatchUnit(fxp.Exact{}, idxs, programs)
}

var _ BatchSharder = (*HMD)(nil)

// DetectBatchUnit evaluates programs[idx] for each idx in idxs through
// the batch unit u, program idxs[j] on unit lane j. Every window of
// every program is one packed lane of one planned pass (see
// scoreLanes), so per-lane unit state — fault streams — stays attached
// to its program whatever its length, and per program the window
// scores, and hence the decision, are bit-identical to
// DetectProgramUnit with the lane's unit state.
//
// The receiver's scratch buffers are used; as with ScoreWindowsUnit,
// an HMD is not safe for concurrent calls (WithFreshBuffers per
// goroutine).
func (h *HMD) DetectBatchUnit(u fxp.BatchUnit, idxs []int, programs []dataset.TracedProgram) []Decision {
	traces := make([][]trace.WindowCounts, len(idxs))
	for j, idx := range idxs {
		traces[j] = programs[idx].Windows
	}
	return h.DetectTracesUnit(u, traces)
}

// DetectTracesUnit is DetectBatchUnit over raw window traces — the
// serving path's entry point, where lanes are concurrent requests
// rather than dataset programs. Trace j runs on unit lane j;
// everything else (window lanes, per-program bit-identity, the
// scratch-buffer caveat) is as documented on DetectBatchUnit.
func (h *HMD) DetectTracesUnit(u fxp.BatchUnit, traces [][]trace.WindowCounts) []Decision {
	out := make([]Decision, len(traces))
	if len(traces) == 0 {
		return out
	}
	vecs := make([][][]float64, len(traces))
	for j, windows := range traces {
		v, err := features.Extract(windows, h.cfg.FeatureSet, h.cfg.Period)
		if err != nil {
			// A trace too short for the detection period is a caller
			// bug, as in ScoreWindowsUnit.
			panic(fmt.Sprintf("hmd: %v", err))
		}
		vecs[j] = v
	}
	scores := h.scoreLanes(u, vecs)
	for j, v := range vecs {
		out[j] = h.DecideFromScores(scores[:len(v)])
		scores = scores[len(v):]
	}
	return out
}

// EvaluateBatch is Evaluate with explicit lane and worker counts
// (batch <= 0 means DefaultEvalBatch, workers <= 0 means GOMAXPROCS).
// Detectors implementing BatchSharder are evaluated in lane-batched
// groups fanned out over workers; ProgramSharder-only detectors fall
// back to per-program sharding, and the rest to the serial path.
// Batch size and worker count affect wall-clock only, never the
// result.
func EvaluateBatch(d Detector, programs []dataset.TracedProgram, batch, workers int) stats.Confusion {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if batch <= 0 {
		batch = DefaultEvalBatch
	}
	if len(programs) > 0 {
		if bs, ok := d.(BatchSharder); ok {
			if c, ok := evaluateBatched(bs, programs, batch, workers); ok {
				return c
			}
		}
		if sharder, ok := d.(ProgramSharder); ok {
			if first := sharder.DetectorForProgram(0); first != nil {
				return evaluateSharded(sharder, first, programs, workers)
			}
		}
	}
	var c stats.Confusion
	for _, p := range programs {
		c.Record(d.DetectProgram(p.Windows).Malware, p.IsMalware())
	}
	return c
}

// evaluateBatched fans contiguous batches of program indices out over
// workers, each evaluated in one lane-batched call with per-program
// derived streams. The first batch runs inline to honour the decline
// contract before any worker spawns; per BatchSharder's contract a
// detector that accepted it accepts the rest.
func evaluateBatched(bs BatchSharder, programs []dataset.TracedProgram, batch, workers int) (stats.Confusion, bool) {
	idxs := make([]int, len(programs))
	for i := range idxs {
		idxs[i] = i
	}
	first := idxs[:min(batch, len(idxs))]
	firstOut := bs.DetectBatch(first, programs)
	if firstOut == nil || len(firstOut) != len(first) {
		return stats.Confusion{}, false
	}
	// Consistency probe: honest DetectBatch implementations are
	// bit-identical per lane to the per-program derived detector, so
	// program 0 evaluated both ways must agree exactly. A mismatch
	// means this DetectBatch does not speak for this detector — the
	// usual cause is a wrapper that embeds an HMD (inheriting its
	// exact-unit DetectBatch by method promotion) while overriding
	// DetectorForProgram with different semantics. Fall back to the
	// per-program path, which honours the override.
	if ref := bs.DetectorForProgram(idxs[0]); ref == nil ||
		ref.DetectProgram(programs[idxs[0]].Windows) != firstOut[0] {
		return stats.Confusion{}, false
	}
	verdicts := make([]bool, len(programs))
	for j, dec := range firstOut {
		verdicts[j] = dec.Malware
	}
	if rest := idxs[len(first):]; len(rest) > 0 {
		numBatches := (len(rest) + batch - 1) / batch
		if workers > numBatches {
			workers = numBatches
		}
		next := make(chan []int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range next {
					out := bs.DetectBatch(b, programs)
					if out == nil {
						panic("hmd: DetectBatch declined a batch after accepting the first")
					}
					for p, dec := range out {
						verdicts[b[p]] = dec.Malware
					}
				}
			}()
		}
		for start := 0; start < len(rest); start += batch {
			next <- rest[start:min(start+batch, len(rest))]
		}
		close(next)
		wg.Wait()
	}
	var c stats.Confusion
	for i, p := range programs {
		c.Record(verdicts[i], p.IsMalware())
	}
	return c, true
}
