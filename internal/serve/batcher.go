package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/trace"
)

// The micro-batching serve path: concurrent /v1/detect programs
// coalesce into lane batches, each served by ONE pool-slot checkout
// and ONE batched undervolted pass (core.Supervisor.DetectBatch feeding
// the batch-lane kernels) instead of a slot checkout and a scalar pass
// per program.
//
// Flushing is self-clocked, like Nagle's algorithm:
//
//   - with nothing in flight, a request's lanes dispatch at once;
//   - while a batch is in flight, new lanes coalesce, and the partial
//     batch goes out when an in-flight batch completes, when it fills
//     to MaxBatch, or — a safety cap for a stalled batch — when its
//     oldest lane has waited MaxBatchWait;
//   - lanes bind to a batch only when its flusher is granted a pool
//     slot, so a flusher blocked in Pool.Acquire picks up every lane
//     that arrived while it waited.
//
// Admission control, per-request deadlines, hedged dispatch, and
// decision tracing all survive unchanged:
//
//   - the admission queue token is held by each request's handler for
//     its whole life, batching wait included;
//   - a lane whose request deadline expires while the batch forms is
//     shed when it binds (its handler has already replied 503) and
//     never occupies a kernel lane;
//   - a batch past the hedge budget re-dispatches onto a second idle
//     slot, first outcome winning, exactly like scalar dispatch;
//   - with a trace sink attached, every lane's verdict records its own
//     per-lane draw log, replayable through the unchanged scalar
//     replay path (batched lane scores are bit-identical to scalar).
type batcher struct {
	srv  *Server
	max  int
	wait time.Duration

	mu sync.Mutex
	// pending holds the lanes not yet bound to a batch, oldest first.
	pending []*lane
	// waiting counts flushers blocked on a pool slot; each binds up to
	// max lanes from the front of pending when its slot is granted, so
	// the first waiting*max pending lanes are already claimed.
	waiting int
	// running counts bound batches not yet completed.
	running int
	// wake is the context flushers wait for a slot under. When a
	// withdrawal leaves more flushers waiting than the pending lanes
	// need, rouse cancels it (a fresh one takes its place) and every
	// waiter rechecks, so the surplus stops waiting.
	wake  context.Context
	rouse context.CancelFunc
	// timer is the MaxBatchWait cap on the oldest unclaimed lane
	// (timed). gen counts timer ends (stopped or fired); a callback
	// whose generation moved on stands down, so a late timer never
	// double-flushes.
	timer *time.Timer
	timed *lane
	gen   uint64
}

// lane is one program awaiting batched detection.
type lane struct {
	windows []trace.WindowCounts
	// tenant is the accounting identity the lane's request was
	// admitted under (trace provenance; lanes from different tenants
	// share batches freely).
	tenant string
	ctx    context.Context
	enq    time.Time
	// done receives the lane's outcome; buffered so a flusher delivering
	// to an abandoned lane (deadline already expired) never blocks.
	done chan laneOutcome
}

// laneOutcome is one lane's verdict (or failure) as delivered to its
// waiting handler.
type laneOutcome struct {
	v       core.Verdict
	session int
	// model is the model version of the slot that scored the lane.
	model  uint32
	hedged bool
	err    error
}

// newBatcher wires the dispatcher to the server's pool and metrics.
func newBatcher(srv *Server) *batcher {
	b := &batcher{srv: srv, max: srv.cfg.MaxBatch, wait: srv.cfg.MaxBatchWait}
	b.wake, b.rouse = context.WithCancel(context.Background())
	return b
}

// dispatch submits every program as a lane and assembles the request's
// results as lanes complete.
func (b *batcher) dispatch(ctx context.Context, tenantID string, programs []DecodedProgram) (batchOutcome, error) {
	return b.collect(ctx, programs, b.submit(ctx, tenantID, programs))
}

// submit enqueues every program of one request as a lane under one
// lock, so no flush can bind part of a request while the rest is still
// arriving: an idle batcher dispatches the whole request at once.
func (b *batcher) submit(ctx context.Context, tenantID string, programs []DecodedProgram) []*lane {
	lanes := make([]*lane, len(programs))
	now := time.Now()
	for i, p := range programs {
		lanes[i] = &lane{windows: p.Windows, tenant: tenantID, ctx: ctx, enq: now, done: make(chan laneOutcome, 1)}
	}
	b.mu.Lock()
	b.pending = append(b.pending, lanes...)
	b.schedule()
	b.mu.Unlock()
	return lanes
}

// collect waits for the request's lanes. Lanes from one request may
// land in different batches (and thus different slots) once the request
// outgrows MaxBatch or arrives behind a filling batch; the reported
// session is the first lane's. A request error (deadline, pool closed)
// aborts the request and withdraws its unbound lanes; verdict-level
// degradation does not.
func (b *batcher) collect(ctx context.Context, programs []DecodedProgram, lanes []*lane) (batchOutcome, error) {
	out := batchOutcome{results: make([]DetectResult, len(programs)), session: -1}
	for i, ln := range lanes {
		select {
		case lo := <-ln.done:
			if lo.err != nil {
				b.withdraw(lanes[i+1:])
				return batchOutcome{}, lo.err
			}
			if out.session < 0 {
				out.session = lo.session
			}
			out.hedge = out.hedge || lo.hedged
			conf := Confidence(lo.v.Score, b.srv.threshold, lo.v.Malware)
			b.srv.observeDecision(lo.model, lo.v.Malware, conf)
			out.results[i] = DetectResult{
				ID:          programs[i].ID,
				Malware:     lo.v.Malware,
				Score:       lo.v.Score,
				Confidence:  conf,
				Unprotected: lo.v.Unprotected,
				Attempts:    lo.v.Attempts,
				Windows:     len(programs[i].Windows),
			}
		case <-ctx.Done():
			// Bound lanes stay with their flusher, which sheds or
			// completes them into their buffered channels.
			b.withdraw(lanes[i:])
			return batchOutcome{}, ctx.Err()
		}
	}
	return out, nil
}

// withdraw drops the lanes of a request whose handler has given up
// from pending, so lanes that no slot will take (every slot
// quarantined, say) do not outlive their requests. Flushers left
// waiting for lanes that are gone are roused to stop.
func (b *batcher) withdraw(lanes []*lane) {
	if len(lanes) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pending)
	b.pending = slices.DeleteFunc(b.pending, func(ln *lane) bool { return slices.Contains(lanes, ln) })
	if len(b.pending) == n {
		return
	}
	if b.waiting > 0 && b.surplus() {
		b.rouse()
		b.wake, b.rouse = context.WithCancel(context.Background())
	}
	b.schedule()
}

// surplus reports whether the other waiting flushers already claim
// every pending lane, leaving one flusher with nothing to bind.
// Callers hold b.mu.
func (b *batcher) surplus() bool {
	return (b.waiting-1)*b.max >= len(b.pending)
}

// schedule puts every unclaimed pending lane on a path out. An idle
// batcher (nothing bound, nobody waiting) starts flushers for all of
// it at once; a busy one starts a flusher per MaxBatch lanes and arms
// the MaxBatchWait cap on the remainder, which otherwise leaves when
// an in-flight batch completes. Callers hold b.mu.
func (b *batcher) schedule() {
	if b.running == 0 && b.waiting == 0 {
		for len(b.pending) > b.waiting*b.max {
			b.spawn("idle")
		}
	}
	for len(b.pending)-b.waiting*b.max >= b.max {
		b.spawn("full")
	}
	if len(b.pending) > b.waiting*b.max {
		b.arm()
	} else {
		b.disarm()
	}
}

// spawn starts one flusher. Flushers are tracked goroutines: a flush
// can outlive every one of its lanes' handlers (all deadlines
// expired), and shutdown must still wait for it to release its slot.
// Once the pool's drain refuses runners (closeRunners) no flusher
// starts: the lanes no waiting flusher claims fail with errDraining
// instead. Callers hold b.mu.
func (b *batcher) spawn(reason string) {
	if !b.srv.addRunner() {
		claimed := min(b.waiting*b.max, len(b.pending))
		deliver(b.pending[claimed:], batchRun{err: errDraining})
		clear(b.pending[claimed:])
		b.pending = b.pending[:claimed]
		return
	}
	b.waiting++
	go b.flusher(reason)
}

// arm keeps the MaxBatchWait cap pointed at the oldest unclaimed lane.
// Callers hold b.mu.
func (b *batcher) arm() {
	first := b.pending[b.waiting*b.max]
	if b.timer != nil && b.timed == first {
		return
	}
	b.disarm()
	gen := b.gen
	b.timed = first
	b.timer = time.AfterFunc(b.wait-time.Since(first.enq), func() { b.onTimer(gen) })
}

// disarm stops the MaxBatchWait cap. Callers hold b.mu.
func (b *batcher) disarm() {
	if b.timer == nil {
		return
	}
	b.timer.Stop()
	b.timer, b.timed = nil, nil
	b.gen++
}

// onTimer flushes the unclaimed lanes whose oldest has waited
// MaxBatchWait behind a busy batcher, unless the cap it was armed for
// already ended.
func (b *batcher) onTimer(gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen {
		return
	}
	b.timer, b.timed = nil, nil
	b.gen++
	if len(b.pending) > b.waiting*b.max {
		b.spawn("timer")
	}
	b.schedule()
}

// take unbinds up to n lanes from the front of pending. Callers hold
// b.mu.
func (b *batcher) take(n int) []*lane {
	if n > len(b.pending) {
		n = len(b.pending)
	}
	lanes := make([]*lane, n)
	copy(lanes, b.pending)
	rest := copy(b.pending, b.pending[n:])
	clear(b.pending[rest:])
	b.pending = b.pending[:rest]
	return lanes
}

// flusher waits for a pool slot, binds the lanes pending at that
// moment, and runs them as one batch. The batch counts as complete
// before its verdicts fan out, so a client's follow-up request finds
// the batcher idle. When lanes coalesced while the batch ran, the
// flusher goes round again with them: completion is the batcher's
// clock. A flusher whose lanes were all withdrawn stops waiting.
func (b *batcher) flusher(reason string) {
	defer b.srv.runnerDone()
	for {
		b.mu.Lock()
		if b.surplus() {
			b.waiting--
			b.mu.Unlock()
			return
		}
		wake := b.wake
		b.mu.Unlock()
		slot, err := b.srv.pool.Acquire(wake)
		closed := errors.Is(err, ErrPoolClosed)
		if err != nil && !closed {
			// Roused to recheck the claim, or refused a busy slot (the
			// pool counts the breach): no lane is bound, wait again.
			continue
		}
		b.mu.Lock()
		b.waiting--
		var lanes []*lane
		if closed {
			// Nothing pending can be served any more.
			lanes = b.take(len(b.pending))
		} else if lanes = b.take(b.max); len(lanes) > 0 {
			b.running++
		}
		b.schedule()
		b.mu.Unlock()
		if closed {
			deliver(lanes, batchRun{err: err})
			return
		}
		if len(lanes) == 0 {
			// Withdrawals emptied pending while the slot was granted.
			b.srv.pool.Release(slot)
			return
		}
		live, out := b.flush(slot, lanes, reason)

		b.mu.Lock()
		b.running--
		more := len(b.pending) > b.waiting*b.max
		if more {
			b.waiting++
			reason = "idle"
		}
		b.schedule()
		b.mu.Unlock()
		deliver(live, out)
		if !more {
			return
		}
	}
}

// flush sheds expired lanes and runs the survivors as one batch on the
// granted slot, which it always gives back. It returns the survivors
// with their outcome, for the caller to deliver.
func (b *batcher) flush(slot *Slot, lanes []*lane, reason string) ([]*lane, batchRun) {
	m := b.srv.metrics
	m.BatchFlushes.With(reason).Inc()
	m.BatchSize.Observe(int64(len(lanes)))
	now := time.Now()
	live := lanes[:0]
	for _, ln := range lanes {
		m.BatchWait.Observe(int64(now.Sub(ln.enq)))
		if err := ln.ctx.Err(); err != nil {
			// The handler already replied (503 on deadline, 499 on a gone
			// client); the buffered send is bookkeeping for a listener
			// that may still be in its select.
			ln.done <- laneOutcome{err: err}
			continue
		}
		live = append(live, ln)
	}
	if len(live) == 0 {
		b.srv.pool.Release(slot)
		return nil, batchRun{}
	}
	return live, b.run(slot, live)
}

// deliver fans one batch outcome out to its lanes.
func deliver(lanes []*lane, out batchRun) {
	for j, ln := range lanes {
		if out.err != nil {
			ln.done <- laneOutcome{err: out.err}
			continue
		}
		ln.done <- laneOutcome{v: out.verdicts[j], session: out.session, model: out.model, hedged: out.hedge}
	}
}

// batchRun is one runner's outcome for a whole batch.
type batchRun struct {
	verdicts []core.Verdict
	session  int
	model    uint32
	hedge    bool
	err      error
}

// run executes the batch on the acquired slot, hedging onto a second
// idle slot past the configured budget exactly like scalar dispatch,
// and returns the first successful outcome (or the first failure when
// every runner failed).
func (b *batcher) run(primary *Slot, lanes []*lane) batchRun {
	traces := make([][]trace.WindowCounts, len(lanes))
	tenants := make([]string, len(lanes))
	for i, ln := range lanes {
		traces[i] = ln.windows
		tenants[i] = ln.tenant
	}
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan batchRun, 2)
	b.runDetached(primary, traces, tenants, false, outcomes)

	var hedgeC <-chan time.Time
	if b.srv.cfg.HedgeAfter > 0 {
		tm := time.NewTimer(b.srv.cfg.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			if out.err == nil {
				return out
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Never wait for a hedge slot: hedging spends only capacity
			// that is idle right now.
			if hslot, ok := b.srv.pool.TryAcquire(); ok {
				b.srv.metrics.Hedges.Inc()
				pending++
				b.runDetached(hslot, traces, tenants, true, outcomes)
			}
		}
	}
	return batchRun{err: firstErr}
}

// runDetached starts one tracked runner for the batch, so a hedged
// loser can finish after the winner replied. Once the pool's drain
// refuses runners none starts: the slot goes back and the outcome is
// errDraining.
func (b *batcher) runDetached(slot *Slot, traces [][]trace.WindowCounts, tenants []string, hedge bool, outcomes chan<- batchRun) {
	if !b.srv.addRunner() {
		b.srv.pool.Release(slot)
		outcomes <- batchRun{hedge: hedge, err: errDraining}
		return
	}
	go func() {
		defer b.srv.runnerDone()
		outcomes <- b.detect(slot, traces, tenants, hedge)
	}()
}

// detect serves the whole batch through the slot's supervisor in a
// single batched detection, records each lane's provenance when
// tracing is on, and always releases the slot.
func (b *batcher) detect(slot *Slot, traces [][]trace.WindowCounts, tenants []string, hedge bool) batchRun {
	s := b.srv
	record := s.cfg.Trace != nil
	verdicts, logs, err := slot.Sup.DetectBatch(traces, record)
	if err == nil && record {
		for j, v := range verdicts {
			draws := faults.DrawLog{InitialGap: -1}
			if logs != nil && !v.Unprotected {
				draws = logs[j]
			}
			s.traceRecord(slot, traces[j], v, Confidence(v.Score, s.threshold, v.Malware), draws, tenants[j])
		}
	}
	s.pool.Release(slot)
	return batchRun{verdicts: verdicts, session: slot.ID, model: slot.Model, hedge: hedge, err: err}
}
