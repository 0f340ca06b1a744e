package serve

// The SHMDWIRE streaming listener: persistent binary connections
// multiplexing detect streams into the same admission queue, deadline
// plumbing, micro-batcher, hedged dispatch, tracing, and metrics as
// the HTTP transport. One connection carries many concurrent DETECT
// frames; each frame becomes one tracked detection whose VERDICT (or
// typed ERROR) is written back under the frame's correlation id, so
// windows from a Pin-style collector stream without per-request
// connection or JSON re-encoding cost.
//
// Graceful drain mirrors the HTTP path: the server broadcasts a
// GOAWAY frame to every live connection, stops admitting new DETECTs
// (typed 503), finishes in-flight ones, and only then closes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// wireState tracks live SHMDWIRE connections for drain broadcast.
type wireState struct {
	mu    sync.Mutex
	conns map[*wireConn]struct{}
}

// wireConn is one accepted SHMDWIRE connection.
type wireConn struct {
	c *wire.Conn
	// wg counts in-flight detect goroutines on this connection.
	wg sync.WaitGroup
	// cancel ends the connection's context, unblocking any dispatch
	// still waiting when the connection is force-closed.
	cancel context.CancelFunc
	// extended latches when the client sends its own HELLO (the v1.1
	// opt-in); only extended peers receive ERROR retry-after tails.
	// Atomic because detect goroutines read it while the read loop may
	// still process a late HELLO.
	extended atomic.Bool
	// tenantID is the connection-level identity bound by the client
	// HELLO metadata; per-frame tenant tags take precedence. Written
	// and read only on the connection's read loop.
	tenantID string
	// streams holds the connection's live sliding-window detection
	// streams, keyed by client-chosen stream id. Touched only on the
	// read loop, so no lock.
	streams map[uint32]*windowStream
}

// maxWireStreams bounds the live sliding-window streams one
// connection may hold open.
const maxWireStreams = 64

// windowStream is one long-lived sliding-window detection stream: a
// trailing buffer of the model period's windows, re-scored every
// stride appended windows.
type windowStream struct {
	label  string
	tenant string
	class  tenant.Class
	stride int
	period int
	// buf holds the trailing period windows.
	buf []trace.WindowCounts
	// total counts windows ever appended; a re-scoring triggered at
	// window N is labelled "<label>#N" in its verdict.
	total int
	// sinceScore counts windows appended since the last re-scoring.
	sinceScore int
}

// register adds a live connection (nil map allocates on first use).
func (ws *wireState) register(wc *wireConn) {
	ws.mu.Lock()
	if ws.conns == nil {
		ws.conns = make(map[*wireConn]struct{})
	}
	ws.conns[wc] = struct{}{}
	ws.mu.Unlock()
}

// unregister removes a connection.
func (ws *wireState) unregister(wc *wireConn) {
	ws.mu.Lock()
	delete(ws.conns, wc)
	ws.mu.Unlock()
}

// snapshot copies the live connection set.
func (ws *wireState) snapshot() []*wireConn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*wireConn, 0, len(ws.conns))
	for wc := range ws.conns {
		out = append(out, wc)
	}
	return out
}

// ServeWire accepts SHMDWIRE connections on ln until ctx is cancelled,
// then drains gracefully: GOAWAY to every connection, in-flight
// detects finish (bounded by ShutdownTimeout), stragglers are cut.
// It serves the same pool as the HTTP listener and does not close it —
// the caller owns the pool's lifetime (Serve's shutdown path, or an
// explicit Close when running wire-only).
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	done := make(chan error, 1)
	go func() { done <- s.acceptWire(ln) }()
	select {
	case <-ctx.Done():
		s.draining.Store(true) // /readyz goes 503 before the drain starts
		ln.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		s.drainWire(shCtx)
		// Wait for the wire's runners without refusing new ones: the
		// HTTP listener on the same pool keeps serving until its drain.
		s.waitRunners(shCtx)
		<-done
		return nil
	case err := <-done:
		return err
	}
}

// acceptWire runs the accept loop; a closed listener ends it cleanly.
func (s *Server) acceptWire(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleWireConn(nc)
	}
}

// drainWire broadcasts GOAWAY, waits for every connection's in-flight
// detects (bounded by ctx), then closes whatever remains.
func (s *Server) drainWire(ctx context.Context) {
	conns := s.wire.snapshot()
	goaway := wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "draining"})
	for _, wc := range conns {
		s.metrics.WireGoAways.Inc()
		wc.c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: goaway})
	}
	idle := make(chan struct{})
	go func() {
		for _, wc := range conns {
			wc.wg.Wait()
		}
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
	}
	for _, wc := range conns {
		wc.cancel()
		wc.c.Close()
	}
}

// handleWireConn owns one connection: handshake, HELLO, then the frame
// loop. Detect frames run in per-frame goroutines so one slow batch
// never blocks the next frame — that concurrency is what feeds the
// micro-batcher from a single connection.
func (s *Server) handleWireConn(nc net.Conn) {
	c := wire.NewConn(nc, int(s.cfg.Limits.MaxBodyBytes))
	v, err := c.Handshake(s.cfg.ReadHeaderTimeout)
	if err != nil {
		c.Close()
		return
	}
	s.metrics.WireConns.Inc()
	s.metrics.WireActive.Inc()
	defer s.metrics.WireActive.Dec()
	if v != wire.ProtoVersion {
		// Answer skew with a typed error, not a silent hangup, so the
		// client can report something actionable.
		c.WriteError(0, wire.CodeVersion, fmt.Sprintf("server speaks SHMDWIRE v%d, client sent v%d", wire.ProtoVersion, v))
		c.Close()
		return
	}
	if err := c.WriteFrame(wire.Frame{
		Type:    wire.FrameHello,
		Payload: wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, MaxFrame: uint32(c.MaxPayload())}),
	}); err != nil {
		c.Close()
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	wc := &wireConn{c: c, cancel: cancel}
	s.wire.register(wc)
	defer func() {
		s.wire.unregister(wc)
		cancel()
		// The reader is gone; wait for in-flight detects (their verdict
		// writes fail fast once the conn closes) before releasing the conn.
		wc.wg.Wait()
		c.Close()
	}()
	if s.draining.Load() {
		s.metrics.WireGoAways.Inc()
		c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "draining"})})
	}

	for {
		f, err := c.ReadFrame()
		if err != nil {
			var tooBig *wire.TooLargeError
			if errors.As(err, &tooBig) {
				// The stream is still synchronized: reject this frame and
				// keep the connection.
				s.metrics.Request(int(wire.CodeTooLarge))
				c.WriteError(tooBig.Corr, wire.CodeTooLarge, err.Error())
				continue
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("serve: wire: closing %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		s.metrics.WireFrames.Inc()
		switch f.Type {
		case wire.FrameDetect:
			s.wireDetect(ctx, wc, f)
		case wire.FrameStream:
			s.wireStream(ctx, wc, f)
		case wire.FrameHello:
			s.wireHello(wc, f)
		case wire.FramePing:
			c.WriteFrame(wire.Frame{Type: wire.FramePong, Corr: f.Corr})
		case wire.FrameHealthReq:
			s.wireHealth(c, f.Corr)
		case wire.FrameGoAway:
			// The client is draining its side; it will close when its
			// in-flight requests complete. Nothing to do server-side.
		default:
			if !f.Type.Known() {
				// Forward compatibility: skip with a warning, never kill
				// the connection over a frame we don't understand.
				s.metrics.WireUnknownFrames.Inc()
				log.Printf("serve: wire: skipping unknown frame type 0x%02x from %s", uint8(f.Type), c.RemoteAddr())
				continue
			}
			s.metrics.Request(int(wire.CodeBadRequest))
			c.WriteError(f.Corr, wire.CodeBadRequest, fmt.Sprintf("unexpected %v frame", f.Type))
		}
	}
}

// wireHello handles a client HELLO — the v1.1 opt-in, new in this
// direction (the server's own HELLO still opens every connection).
// Its metadata binds a connection-level tenant identity; per-frame
// tenant tags take precedence over it. The class advisory
// (wire.MetaClass) is for relays: this server resolves the
// authoritative class from its tenant registry.
func (s *Server) wireHello(wc *wireConn, f wire.Frame) {
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.metrics.Request(int(wire.CodeBadRequest))
		wc.c.WriteError(f.Corr, wire.CodeBadRequest, err.Error())
		return
	}
	wc.extended.Store(true)
	if id, ok := h.Meta[wire.MetaTenant]; ok {
		wc.tenantID = id
	}
}

// writeWireError sends a typed ERROR with an optional backoff hint:
// extended (v1.1) peers get the machine-readable RetryAfterSec tail;
// legacy peers get only the message, whose text carries the hint.
func (s *Server) writeWireError(wc *wireConn, corr uint64, code wire.ErrorCode, msg string, retryAfter int) {
	e := wire.ErrorFrame{Code: code, Msg: msg}
	if retryAfter > 0 && retryAfter <= int(^uint16(0)) && wc.extended.Load() {
		e.RetryAfterSec = uint16(retryAfter)
	}
	wc.c.WriteFrame(wire.Frame{Type: wire.FrameError, Corr: corr, Payload: wire.AppendErrorFrame(nil, e)})
}

// rejectWireTenant writes the wire twin of rejectTenant: 403 for an
// unknown tenant, 429 with a jittered backoff hint for quota and
// pressure sheds.
func (s *Server) rejectWireTenant(wc *wireConn, corr uint64, adm *tenant.Admission) {
	s.metrics.shedTenant(adm.Tenant, adm.Class.String(), adm.Outcome.String())
	if adm.Outcome == tenant.Unknown {
		s.metrics.Request(int(wire.CodeForbidden))
		wc.c.WriteError(corr, wire.CodeForbidden, fmt.Sprintf("unknown tenant %q", adm.Tenant))
		return
	}
	s.metrics.Request(int(wire.CodeOverloaded))
	hint := s.jitter.RetryAfter()
	s.writeWireError(wc, corr, wire.CodeOverloaded, fmt.Sprintf("tenant %s over %s limit; retry in %ds", adm.Tenant, adm.Outcome, hint), hint)
}

// wireHealth answers a HEALTH_REQ with the same JSON report /healthz
// serves, carried opaquely in a HEALTH frame.
func (s *Server) wireHealth(c *wire.Conn, corr uint64) {
	report, code := s.healthReport()
	s.metrics.Request(code)
	payload, err := json.Marshal(report)
	if err != nil {
		c.WriteError(corr, wire.CodeInternal, err.Error())
		return
	}
	c.WriteFrame(wire.Frame{Type: wire.FrameHealth, Corr: corr, Payload: payload})
}

// wireDetect admits, decodes, and launches one DETECT frame. The flat
// queue probe and decode happen on the read loop (both are cheap and
// their typed rejections must preserve frame order); tenant QoS runs
// after decode — unlike the HTTP path, the per-frame tenant tag lives
// in the payload — and the dispatch itself runs in a tracked
// goroutine so the connection keeps multiplexing.
func (s *Server) wireDetect(ctx context.Context, wc *wireConn, f wire.Frame) {
	start := time.Now()
	c := wc.c
	if s.draining.Load() {
		s.metrics.Request(int(wire.CodeUnavailable))
		c.WriteError(f.Corr, wire.CodeUnavailable, "draining")
		return
	}
	// Admission control before any decode work, exactly like the HTTP
	// path: shed at the backpressure limit with a typed 429.
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.QueueRejects.Inc()
		s.metrics.Request(int(wire.CodeOverloaded))
		hint := s.jitter.RetryAfter()
		s.writeWireError(wc, f.Corr, wire.CodeOverloaded, fmt.Sprintf("detection queue full; retry in %ds", hint), hint)
		return
	}
	// Holding a queue token guarantees inflight capacity (same sizes).
	s.inflight <- struct{}{}
	release := func() { <-s.inflight; <-s.queue }

	req, err := wire.DecodeDetectRequest(f.Payload)
	if err != nil {
		release()
		s.metrics.Request(int(wire.CodeBadRequest))
		c.WriteError(f.Corr, wire.CodeBadRequest, err.Error())
		return
	}
	// Tenant QoS: the frame tag outranks the connection HELLO binding.
	var tenantID string
	var class tenant.Class
	var adm *tenant.Admission
	if s.tenants != nil {
		id := req.Tenant
		if id == "" {
			id = wc.tenantID
		}
		adm = s.tenants.Admit(id, s.admissionLoad())
		tenantID, class = adm.Tenant, adm.Class
		if !adm.OK() {
			release()
			s.rejectWireTenant(wc, f.Corr, adm)
			return
		}
		s.metrics.TenantAccepted.With(tenantID, class.String()).Inc()
	}
	programs := make([]DecodedProgram, len(req.Programs))
	for i, p := range req.Programs {
		programs[i] = DecodedProgram{ID: p.ID, Windows: p.Windows}
	}
	if err := ValidatePrograms(programs, s.cfg.Limits); err != nil {
		release()
		if adm != nil {
			adm.Release()
		}
		s.metrics.Request(StatusOf(err))
		c.WriteError(f.Corr, wire.ErrorCode(StatusOf(err)), err.Error())
		return
	}
	deadline := req.Deadline()
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}

	wc.wg.Add(1)
	go func() {
		defer wc.wg.Done()
		defer release()
		if adm != nil {
			defer adm.Release()
		}
		dctx := ctx
		if deadline > 0 {
			var cancel context.CancelFunc
			dctx, cancel = context.WithTimeout(dctx, deadline)
			defer cancel()
		}
		var out batchOutcome
		var err error
		if s.batcher != nil {
			out, err = s.batcher.dispatch(dctx, tenantID, programs)
		} else {
			out, err = s.dispatch(dctx, class, tenantID, programs)
		}
		if err != nil {
			s.failWireDetect(ctx, wc, f.Corr, err)
			return
		}
		if out.hedge {
			s.metrics.HedgeWins.Inc()
		}
		for _, res := range out.results {
			s.metrics.Decision(res.Malware, res.Unprotected)
		}
		payload, encErr := s.encodeVerdict(out, tenantID)
		if encErr != nil {
			s.metrics.Request(int(wire.CodeInternal))
			c.WriteError(f.Corr, wire.CodeInternal, encErr.Error())
			return
		}
		s.metrics.Request(200)
		s.metrics.DetectLatency.Observe(int64(time.Since(start)))
		c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: f.Corr, Payload: payload})
	}()
}

// encodeVerdict builds the VERDICT payload for a finished batch,
// tagging it with the serving tenant so identity round-trips
// bit-identically across transports.
func (s *Server) encodeVerdict(out batchOutcome, tenantID string) ([]byte, error) {
	results := make([]wire.VerdictResult, len(out.results))
	for i, res := range out.results {
		results[i] = wire.VerdictResult{
			ID:          res.ID,
			Malware:     res.Malware,
			Unprotected: res.Unprotected,
			Score:       res.Score,
			Confidence:  res.Confidence,
			Attempts:    uint32(res.Attempts),
			Windows:     uint32(res.Windows),
		}
	}
	return wire.AppendVerdict(nil, wire.Verdict{
		Session: int32(out.session),
		Hedged:  out.hedge,
		Results: results,
		Tenant:  tenantID,
	})
}

// wireStream handles one STREAM frame: an append to (or open/close
// of) a long-lived sliding-window detection stream. The stream keeps
// the trailing detection-period windows buffered server-side and
// re-scores them every stride appended windows, so a Pin-style
// collector ships each window once and still gets overlapping
// verdicts. Buffer bookkeeping runs on the read loop (appends must
// stay ordered); any triggered re-scorings dispatch in a tracked
// goroutine exactly like a DETECT, answering a VERDICT under the
// append's correlation id (zero results = ack, windows buffered but
// no re-scoring due).
//
// Tenant QoS is applied per append, not just at open: every
// window-carrying append charges the stream tenant's bucket, so a
// stream cannot smuggle unmetered load past admission.
func (s *Server) wireStream(ctx context.Context, wc *wireConn, f wire.Frame) {
	start := time.Now()
	c := wc.c
	if s.draining.Load() {
		s.metrics.Request(int(wire.CodeUnavailable))
		c.WriteError(f.Corr, wire.CodeUnavailable, "draining")
		return
	}
	req, err := wire.DecodeStreamRequest(f.Payload)
	if err != nil {
		s.metrics.Request(int(wire.CodeBadRequest))
		c.WriteError(f.Corr, wire.CodeBadRequest, err.Error())
		return
	}
	if wc.streams == nil {
		wc.streams = make(map[uint32]*windowStream)
	}
	st, open := wc.streams[req.StreamID]
	if !open {
		if req.Close {
			// Closing a stream that is not open is idempotent: ack.
			s.ackStream(c, f.Corr, "")
			return
		}
		if len(wc.streams) >= maxWireStreams {
			s.metrics.Request(int(wire.CodeOverloaded))
			hint := s.jitter.RetryAfter()
			s.writeWireError(wc, f.Corr, wire.CodeOverloaded, fmt.Sprintf("connection holds %d streams, limit %d", len(wc.streams), maxWireStreams), hint)
			return
		}
		st = &windowStream{
			label:  req.ID,
			period: s.cfg.Limits.MinWindows,
			stride: int(req.Stride),
		}
		if s.tenants != nil {
			id := req.Tenant
			if id == "" {
				id = wc.tenantID
			}
			look := s.tenants.Lookup(id)
			if !look.OK() {
				s.rejectWireTenant(wc, f.Corr, look)
				return
			}
			st.tenant, st.class = look.Tenant, look.Class
			if st.stride == 0 {
				st.stride = look.Stride
			}
		}
		if st.stride <= 0 {
			st.stride = st.period
		}
		wc.streams[req.StreamID] = st
	} else if req.Tenant != "" && req.Tenant != st.tenant {
		// An append cannot re-bill an open stream to another tenant.
		s.metrics.Request(int(wire.CodeBadRequest))
		c.WriteError(f.Corr, wire.CodeBadRequest, fmt.Sprintf("stream %d is bound to tenant %q, append tagged %q", req.StreamID, st.tenant, req.Tenant))
		return
	}
	if req.Close {
		defer delete(wc.streams, req.StreamID)
	}
	if len(req.Windows) == 0 {
		s.ackStream(c, f.Corr, st.tenant)
		return
	}

	// Per-append admission: tenant QoS first, then the flat queue,
	// mirroring the HTTP ordering. A shed append buffers nothing — the
	// client retries the same windows after the hint.
	var adm *tenant.Admission
	if s.tenants != nil {
		adm = s.tenants.Admit(st.tenant, s.admissionLoad())
		if !adm.OK() {
			s.rejectWireTenant(wc, f.Corr, adm)
			return
		}
		s.metrics.TenantAccepted.With(adm.Tenant, adm.Class.String()).Inc()
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.QueueRejects.Inc()
		if adm != nil {
			s.metrics.shedTenant(adm.Tenant, adm.Class.String(), "queue")
			adm.Release()
		}
		s.metrics.Request(int(wire.CodeOverloaded))
		hint := s.jitter.RetryAfter()
		s.writeWireError(wc, f.Corr, wire.CodeOverloaded, fmt.Sprintf("detection queue full; retry in %ds", hint), hint)
		return
	}
	s.inflight <- struct{}{}
	release := func() { <-s.inflight; <-s.queue }

	// Slide the buffer and collect the spans due for re-scoring.
	var programs []DecodedProgram
	for _, w := range req.Windows {
		st.buf = append(st.buf, w)
		if len(st.buf) > st.period {
			st.buf = st.buf[len(st.buf)-st.period:]
		}
		st.total++
		st.sinceScore++
		if len(st.buf) == st.period && st.sinceScore >= st.stride {
			span := make([]trace.WindowCounts, st.period)
			copy(span, st.buf)
			programs = append(programs, DecodedProgram{
				ID:      fmt.Sprintf("%s#%d", st.label, st.total),
				Windows: span,
			})
			st.sinceScore = 0
		}
	}
	if len(programs) == 0 {
		release()
		if adm != nil {
			adm.Release()
		}
		s.ackStream(c, f.Corr, st.tenant)
		return
	}

	tenantID, class := st.tenant, st.class
	wc.wg.Add(1)
	go func() {
		defer wc.wg.Done()
		defer release()
		if adm != nil {
			defer adm.Release()
		}
		dctx := ctx
		if s.cfg.DefaultDeadline > 0 {
			var cancel context.CancelFunc
			dctx, cancel = context.WithTimeout(dctx, s.cfg.DefaultDeadline)
			defer cancel()
		}
		var out batchOutcome
		var err error
		if s.batcher != nil {
			out, err = s.batcher.dispatch(dctx, tenantID, programs)
		} else {
			out, err = s.dispatch(dctx, class, tenantID, programs)
		}
		if err != nil {
			s.failWireDetect(ctx, wc, f.Corr, err)
			return
		}
		if out.hedge {
			s.metrics.HedgeWins.Inc()
		}
		for _, res := range out.results {
			s.metrics.Decision(res.Malware, res.Unprotected)
		}
		payload, encErr := s.encodeVerdict(out, tenantID)
		if encErr != nil {
			s.metrics.Request(int(wire.CodeInternal))
			c.WriteError(f.Corr, wire.CodeInternal, encErr.Error())
			return
		}
		s.metrics.Request(200)
		s.metrics.DetectLatency.Observe(int64(time.Since(start)))
		c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: f.Corr, Payload: payload})
	}()
}

// ackStream answers a STREAM append that triggered no re-scoring with
// an empty VERDICT under the append's correlation id.
func (s *Server) ackStream(c *wire.Conn, corr uint64, tenantID string) {
	payload, err := wire.AppendVerdict(nil, wire.Verdict{Session: -1, Tenant: tenantID})
	if err != nil {
		s.metrics.Request(int(wire.CodeInternal))
		c.WriteError(corr, wire.CodeInternal, err.Error())
		return
	}
	s.metrics.Request(200)
	c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: corr, Payload: payload})
}

// failWireDetect maps a dispatch failure to its typed ERROR frame,
// mirroring the HTTP transport's failDetect status mapping so the two
// transports shed and fail with the same vocabulary.
func (s *Server) failWireDetect(connCtx context.Context, wc *wireConn, corr uint64, err error) {
	c := wc.c
	switch {
	case connCtx.Err() != nil:
		// The connection is gone; nobody is listening.
		s.metrics.Request(statusClientClosedRequest)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.DeadlineExpired.Inc()
		s.metrics.Request(int(wire.CodeUnavailable))
		c.WriteError(corr, wire.CodeUnavailable, "detection deadline exceeded")
	case errors.Is(err, tenant.ErrQueueFull):
		s.metrics.QueueRejects.Inc()
		s.metrics.Request(int(wire.CodeOverloaded))
		hint := s.jitter.RetryAfter()
		s.writeWireError(wc, corr, wire.CodeOverloaded, err.Error(), hint)
	case errors.Is(err, ErrPoolClosed):
		s.metrics.Request(int(wire.CodeUnavailable))
		c.WriteError(corr, wire.CodeUnavailable, err.Error())
	default:
		var ae *AcquireError
		if errors.As(err, &ae) {
			s.metrics.Request(int(wire.CodeUnavailable))
			c.WriteError(corr, wire.CodeUnavailable, err.Error())
			return
		}
		s.metrics.Request(int(wire.CodeInternal))
		c.WriteError(corr, wire.CodeInternal, err.Error())
	}
}
