package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/tenant"
	"shmd/internal/trace"
)

// The serve dispatcher: concurrent /v1/detect programs (and SHMDWIRE
// DETECT and STREAM programs) coalesce into lane batches of up to
// MaxBatch, each served by ONE pool-slot checkout and ONE batched
// undervolted pass (core.Supervisor.DetectBatch feeding the batch-lane
// kernels). MaxBatch 0 or 1 is a batch of one: every program gets its
// own slot checkout and its own freshly seeded lane fault stream.
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
// Pending lanes bind in priority-class order (realtime, then
// standard, then batch; first-in first-out within a class), so under
// saturation a realtime tenant's lanes take the next free slot.
//
// Admission control, per-request deadlines, hedged dispatch, and
// decision tracing:
//
//   - the admission queue token is held by each request's handler for
//     its whole life, batching wait included;
//   - a lane whose request deadline expires while the batch forms is
//     shed when it binds (its handler has already replied 503) and
//     never occupies a kernel lane;
//   - a batch past the hedge budget re-dispatches onto a second idle
//     slot, first outcome winning;
//   - with a trace sink attached, every lane's verdict records its own
//     per-lane draw log, replayable through the scalar replay path
//     (batched lane scores are bit-identical to scalar).
type batcher struct {
	srv  *Server
	max  int
	wait time.Duration

	mu sync.Mutex
	// pending holds the lanes not yet bound to a batch in bind order:
	// higher priority classes first, oldest first within a class.
	pending []*lane
	// waiting counts flushers blocked on a pool slot; each binds up to
	// max lanes from the front of pending when its slot is granted, so
	// the first waiting*max pending lanes are already claimed.
	waiting int
	// running counts bound batches not yet completed.
	running int
	// wake is the context flushers wait for a slot under. When a
	// withdrawal leaves more flushers waiting than the pending lanes
	// need, or the drain refuses runners, rouse cancels it (a fresh one
	// takes its place) and every waiter rechecks, so the surplus stops
	// waiting.
	wake  context.Context
	rouse context.CancelFunc
	// timer is the MaxBatchWait cap on the oldest unclaimed lane
	// (timed). gen counts timer ends (stopped or fired); a callback
	// whose generation moved on stands down, so a late timer never
	// double-flushes.
	timer *time.Timer
	timed *lane
	gen   uint64
	// refused latches once the drain that closes the pool refuses
	// runners: no waiting flusher binds lanes after it.
	refused bool
}

// lane is one program awaiting batched detection.
type lane struct {
	windows []trace.WindowCounts
	// arena is the pooled arena windows were decoded into (SHMDWIRE
	// DETECT), nil when they are the request's own memory. A batch
	// binding the lane takes a reference on it.
	arena *reqArena
	// tenant is the accounting identity the lane's request was
	// admitted under (trace provenance; lanes from different tenants
	// share batches freely), and class its priority class, which
	// orders binding.
	tenant string
	class  tenant.Class
	ctx    context.Context
	enq    time.Time
	// done receives the lane's outcome; buffered so a flusher delivering
	// to an abandoned lane (deadline already expired) never blocks.
	done chan laneOutcome
	// req is the pooled request the lane belongs to.
	req *request
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

// request is one dispatched request's lanes and results. Requests are
// pooled: one goes back only once its handler has received every
// lane's outcome, when no flusher can send on a lane's done channel or
// read its fields any more. A request that failed (deadline, drain)
// may still have lanes bound to a running batch and is left to the GC.
type request struct {
	lanes   []lane
	ptrs    []*lane
	results []DetectResult
}

var requests = sync.Pool{New: func() any { return new(request) }}

// grow readies the request for n lanes, each with its own buffered
// done channel, and returns the lane pointers.
func (rq *request) grow(n int) []*lane {
	if cap(rq.lanes) < n {
		rq.lanes, rq.ptrs = make([]lane, n), make([]*lane, n)
		for i := range rq.lanes {
			rq.lanes[i].done = make(chan laneOutcome, 1)
			rq.lanes[i].req = rq
			rq.ptrs[i] = &rq.lanes[i]
		}
		rq.results = make([]DetectResult, n)
	}
	return rq.ptrs[:n]
}

// release recycles a request whose every lane outcome was received,
// dropping what its lanes referenced.
func (rq *request) release() {
	for i := range rq.lanes {
		ln := &rq.lanes[i]
		ln.windows, ln.arena, ln.ctx, ln.tenant = nil, nil, nil, ""
	}
	clear(rq.results)
	requests.Put(rq)
}

// newBatcher wires the dispatcher to the server's pool and metrics.
// MaxBatch 0 or 1 binds one lane per batch.
func newBatcher(srv *Server) *batcher {
	b := &batcher{srv: srv, max: max(srv.cfg.MaxBatch, 1), wait: srv.cfg.MaxBatchWait}
	b.wake, b.rouse = context.WithCancel(context.Background())
	return b
}

// dispatch submits every program as a lane and assembles the request's
// results as lanes complete. arena, when set, holds the programs'
// windows; the caller keeps its own reference until dispatch returns.
// A successful outcome's results are pooled: the caller calls its
// release once done with them.
func (b *batcher) dispatch(ctx context.Context, class tenant.Class, tenantID string, programs []DecodedProgram, arena *reqArena) (batchOutcome, error) {
	return b.collect(ctx, programs, b.submit(ctx, class, tenantID, programs, arena))
}

// submit enqueues every program of one request as a lane under one
// lock, so no flush can bind part of a request while the rest is still
// arriving: an idle batcher dispatches the whole request at once. The
// lanes join pending behind every lane of their class or a higher one.
func (b *batcher) submit(ctx context.Context, class tenant.Class, tenantID string, programs []DecodedProgram, arena *reqArena) []*lane {
	lanes := requests.Get().(*request).grow(len(programs))
	now := time.Now()
	for i, ln := range lanes {
		ln.windows, ln.arena = programs[i].Windows, arena
		ln.tenant, ln.class, ln.ctx, ln.enq = tenantID, class, ctx, now
	}
	b.mu.Lock()
	at := len(b.pending)
	for at > 0 && b.pending[at-1].class < class {
		at--
	}
	b.pending = slices.Insert(b.pending, at, lanes...)
	b.schedule()
	b.mu.Unlock()
	return lanes
}

// collect waits for the request's lanes. Lanes from one request may
// land in different batches (and thus different slots) once the request
// outgrows MaxBatch or arrives behind a filling batch; the reported
// session is the first lane's. A request error (deadline, pool closed)
// aborts the request and withdraws its unbound lanes; verdict-level
// degradation does not. A successful outcome carries the lanes'
// request, whose results it reports.
func (b *batcher) collect(ctx context.Context, programs []DecodedProgram, lanes []*lane) (batchOutcome, error) {
	out := batchOutcome{session: -1}
	if len(lanes) > 0 {
		out.req = lanes[0].req
		out.results = out.req.results[:len(lanes)]
	}
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
		b.rouseWaiting()
	}
	b.schedule()
}

// refuse fails every lane not yet bound from now on: the drain that
// closes the pool calls it once it refuses runners, and every flusher
// still waiting for a slot is roused to fail its claim with
// errDraining.
func (b *batcher) refuse() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refused = true
	b.rouseWaiting()
}

// rouseWaiting wakes every flusher waiting for a slot to recheck its
// claim, and gives the next waiters a fresh wake context. Callers hold
// b.mu.
func (b *batcher) rouseWaiting() {
	b.rouse()
	b.wake, b.rouse = context.WithCancel(context.Background())
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
		// These lanes were never bound: no batch holds their arenas.
		deliver(b.pending[claimed:], batchRun{err: errDraining})
		clear(b.pending[claimed:])
		b.pending = b.pending[:claimed]
		return
	}
	b.waiting++
	go b.flusher(reason)
}

// arm keeps the MaxBatchWait cap pointed at the first unclaimed lane
// in bind order (the oldest one when every lane shares a class).
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

// take binds up to n lanes from the front of pending, which keeps
// them in bind order: realtime, then standard, then batch, first-in
// first-out within a class. The batch takes a reference on each lane's
// arena while its handler, which has not yet withdrawn the lane, still
// holds its own. Callers hold b.mu.
func (b *batcher) take(n int) *batch {
	n = min(n, len(b.pending))
	bt := batches.Get().(*batch)
	bt.refs.Store(1)
	bt.lanes = append(bt.lanes, b.pending[:n]...)
	for _, ln := range bt.lanes {
		if ln.arena != nil {
			ln.arena.retain()
			bt.arenas = append(bt.arenas, ln.arena)
		}
	}
	rest := copy(b.pending, b.pending[n:])
	clear(b.pending[rest:])
	b.pending = b.pending[:rest]
	return bt
}

// batch is one bound batch: its lanes in bind order and, once expired
// lanes are shed, the live lanes' windows and tenants, which every
// runner of the batch reads. refs counts the flusher and its detached
// runners. The batch holds one reference per arena-backed lane from
// bind until the last of them — a hedged loser still scoring after the
// winner's verdict went out, say — is done; that one releases the
// arenas and recycles the batch.
type batch struct {
	lanes   []*lane
	traces  [][]trace.WindowCounts
	tenants []string
	arenas  []*reqArena
	refs    atomic.Int32
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// done drops one holder's claim on the batch.
func (bt *batch) done() {
	if bt.refs.Add(-1) > 0 {
		return
	}
	for _, a := range bt.arenas {
		a.release()
	}
	clear(bt.lanes)
	clear(bt.traces)
	clear(bt.tenants)
	clear(bt.arenas)
	bt.lanes, bt.traces, bt.tenants, bt.arenas = bt.lanes[:0], bt.traces[:0], bt.tenants[:0], bt.arenas[:0]
	batches.Put(bt)
}

// flusher waits for a pool slot, binds the lanes pending at that
// moment, and runs them as one batch. The batch counts as complete
// before its verdicts fan out, so a client's follow-up request finds
// the batcher idle. When lanes coalesced while the batch ran, the
// flusher goes round again with them: completion is the batcher's
// clock. A flusher whose lanes were all withdrawn stops waiting, and
// once the pool's drain refuses runners it fails its claim with
// errDraining instead of binding it.
func (b *batcher) flusher(reason string) {
	defer b.srv.runnerDone()
	for {
		b.mu.Lock()
		if b.surplus() {
			b.waiting--
			b.mu.Unlock()
			return
		}
		if b.refused {
			b.waiting--
			bt := b.take(b.max)
			b.schedule()
			b.mu.Unlock()
			deliver(bt.lanes, batchRun{err: errDraining})
			bt.done()
			return
		}
		wake := b.wake
		b.mu.Unlock()
		slot, err := b.srv.pool.Acquire(wake)
		closed := errors.Is(err, ErrPoolClosed)
		if err != nil && !closed {
			// Roused to recheck the claim or the drain, or refused a busy
			// slot (the pool counts the breach): no lane is bound, wait
			// again.
			continue
		}
		b.mu.Lock()
		b.waiting--
		var bt *batch
		if closed {
			// Nothing pending can be served any more.
			bt = b.take(len(b.pending))
		} else if bt = b.take(b.max); len(bt.lanes) > 0 {
			b.running++
		}
		b.schedule()
		b.mu.Unlock()
		if closed {
			deliver(bt.lanes, batchRun{err: err})
			bt.done()
			return
		}
		if len(bt.lanes) == 0 {
			// Withdrawals emptied pending while the slot was granted.
			b.srv.pool.Release(slot)
			bt.done()
			return
		}
		live, out := b.flush(slot, bt, reason)

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
		bt.done()
		if !more {
			return
		}
	}
}

// flush sheds expired lanes and runs the survivors as one batch on the
// granted slot, which it always gives back. It returns the survivors
// with their outcome, for the caller to deliver. Each lane's wait from
// enqueue to bind is recorded, per class too when tenancy is on.
func (b *batcher) flush(slot *Slot, bt *batch, reason string) ([]*lane, batchRun) {
	m := b.srv.metrics
	m.BatchFlushes.With(reason).Inc()
	m.BatchSize.Observe(int64(len(bt.lanes)))
	now := time.Now()
	live := bt.lanes[:0]
	for _, ln := range bt.lanes {
		wait := int64(now.Sub(ln.enq))
		m.BatchWait.Observe(wait)
		if b.srv.tenants != nil {
			m.ClassWait[ln.class].Observe(wait)
		}
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
	for _, ln := range live {
		bt.traces = append(bt.traces, ln.windows)
		bt.tenants = append(bt.tenants, ln.tenant)
	}
	return live, b.run(slot, bt)
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
// idle slot past the configured budget, and returns the first
// successful outcome (or the first failure when every runner failed).
// Without hedging the flusher runs the batch itself.
func (b *batcher) run(primary *Slot, bt *batch) batchRun {
	if b.srv.cfg.HedgeAfter <= 0 {
		return b.detect(primary, bt, false)
	}
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan batchRun, 2)
	b.runDetached(primary, bt, false, outcomes)

	tm := time.NewTimer(b.srv.cfg.HedgeAfter)
	defer tm.Stop()
	hedgeC := tm.C
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			if out.err == nil {
				if out.hedge {
					b.srv.metrics.HedgeWins.Inc()
				}
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
				b.runDetached(hslot, bt, true, outcomes)
			}
		}
	}
	return batchRun{err: firstErr}
}

// runDetached starts one tracked runner for the batch, holding the
// batch until it is done, so a hedged loser can finish after the
// winner replied. Once the pool's drain refuses runners none starts:
// the slot goes back and the outcome is errDraining.
func (b *batcher) runDetached(slot *Slot, bt *batch, hedge bool, outcomes chan<- batchRun) {
	if !b.srv.addRunner() {
		b.srv.pool.Release(slot)
		outcomes <- batchRun{hedge: hedge, err: errDraining}
		return
	}
	bt.refs.Add(1)
	go func() {
		defer b.srv.runnerDone()
		defer bt.done()
		outcomes <- b.detect(slot, bt, hedge)
	}()
}

// detect serves the whole batch through the slot's supervisor in a
// single batched detection, records each lane's provenance when
// tracing is on, and always releases the slot.
func (b *batcher) detect(slot *Slot, bt *batch, hedge bool) batchRun {
	s := b.srv
	record := s.cfg.Trace != nil
	traces, tenants := bt.traces, bt.tenants
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
