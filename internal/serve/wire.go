package serve

// The SHMDWIRE streaming listener: persistent binary connections
// carrying detect requests into the detect core (detect.go) that HTTP
// requests take too — one admission order, deadline plumbing,
// micro-batcher, hedged dispatch, tracing and metrics. This file is
// the core's binary codec: wireCodec reads a DETECT frame and
// streamCodec a STREAM append; both answer a VERDICT (or typed ERROR)
// under the frame's correlation id. One connection carries many
// concurrent requests: admission and decode run on the connection's
// read loop, so typed rejections keep frame order, and each admitted
// request dispatches in its own tracked goroutine, so windows from a
// Pin-style collector stream without per-request connection or JSON
// re-encoding cost.
//
// Graceful drain mirrors the HTTP path: the server broadcasts a
// GOAWAY frame to every live connection, stops admitting new requests
// (typed 503), finishes in-flight ones, and only then closes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/bits"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

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
	// ctx is the connection's context, which every request on it
	// dispatches under; cancel ends it, unblocking any dispatch still
	// waiting when the connection is force-closed.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes once the connection's handler has released it.
	done chan struct{}
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
	// arena holds the windows of the STREAM append being read. Touched
	// only on the read loop.
	arena wire.Arena
}

// maxWireStreams bounds the live sliding-window streams one
// connection may hold open.
const maxWireStreams = 64

// maxStreamLabel bounds a STREAM label so that every re-scoring's
// result ID "label#N" fits wire.MaxIDLen: N is the stream's int window
// counter, at most 19 decimal digits (math.MaxInt64).
const maxStreamLabel = wire.MaxIDLen - len("#") - len("9223372036854775807")

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
// It waits only for its own connections' detects: the drain that
// closes the pool (Serve or Drain) waits for the runners, those serving
// HTTP lanes and those a wire detect left behind (a hedged loser). It
// serves the same pool as the HTTP listener and does not close it —
// the caller owns the pool's lifetime (Serve's shutdown path, or Drain
// when running wire-only).
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
// detects (bounded by ctx), then closes whatever remains and waits for
// the connections' handlers to release them (bounded by ctx too).
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
	for _, wc := range conns {
		select {
		case <-wc.done:
		case <-ctx.Done():
			return
		}
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
	wc := &wireConn{c: c, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	s.wire.register(wc)
	s.metrics.WireActive.Inc()
	defer func() {
		s.wire.unregister(wc)
		cancel()
		// The reader is gone; wait for in-flight detects (their verdict
		// writes fail fast once the conn closes) before releasing the conn.
		wc.wg.Wait()
		c.Close()
		s.metrics.WireActive.Dec()
		close(wc.done)
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
				s.failWire(wc, tooBig.Corr, failure{code: int(wire.CodeTooLarge), msg: err.Error()})
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
			// Only this listener's drain refuses here: the core is shared
			// with HTTP, which keeps serving through a wire-only drain.
			if s.draining.Load() {
				s.failWire(wc, f.Corr, failure{code: int(wire.CodeUnavailable), msg: "draining"})
				continue
			}
			detach(s, wc, wireCodec{s, wc, f.Corr, f.Payload})
		case wire.FrameStream:
			s.wireStream(wc, f)
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
			s.failWire(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: fmt.Sprintf("unexpected %v frame", f.Type)})
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
		s.failWire(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: err.Error()})
		return
	}
	wc.extended.Store(true)
	if id, ok := h.Meta[wire.MetaTenant]; ok {
		wc.tenantID = id
	}
}

// failWire writes a failure as a typed ERROR frame under corr. A
// 429's backoff hint rides in the message text, and as the
// machine-readable retry-after tail for peers that opted in with a
// client HELLO (PROTOCOL.md §11.2); other hints are HTTP's alone.
func (s *Server) failWire(wc *wireConn, corr uint64, f failure) {
	s.metrics.Request(f.code)
	if f.code == statusClientClosedRequest {
		return
	}
	e := wire.ErrorFrame{Code: wire.ErrorCode(f.code), Msg: f.msg}
	if f.retry && f.code == http.StatusTooManyRequests {
		hint := s.jitter.RetryAfter()
		e.Msg = fmt.Sprintf("%s; retry in %ds", f.msg, hint)
		if wc.extended.Load() {
			e.RetryAfterSec = uint16(hint)
		}
	}
	wc.c.WriteFrame(wire.Frame{Type: wire.FrameError, Corr: corr, Payload: wire.AppendErrorFrame(nil, e)})
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

// detach runs one wire request through the detect core: admission
// and decode on the read loop, so typed rejections keep frame order,
// and the dispatch in a tracked goroutine, so the connection keeps
// multiplexing.
func detach[C codec](s *Server, wc *wireConn, c C) {
	j, ok := admit(s, c)
	if !ok {
		return
	}
	wc.wg.Add(1)
	go func() {
		defer wc.wg.Done()
		serve(s, c, j)
	}()
}

// wireCodec is the detect core's SHMDWIRE transport for one DETECT
// frame: the tenant is the payload's tag, or the connection's HELLO
// identity for an untagged frame; the programs and deadline are the
// payload's. The reply is a VERDICT, a failure a typed ERROR (failWire).
type wireCodec struct {
	s       *Server
	wc      *wireConn
	corr    uint64
	payload []byte
}

func (c wireCodec) context() context.Context { return c.wc.ctx }

// tenant reads the payload's tenant tag without decoding any windows.
func (c wireCodec) tenant() (string, error) {
	id, err := wire.DetectTenant(c.payload)
	if id == "" {
		id = c.wc.tenantID
	}
	return id, err
}

// decode decodes the payload into a pooled request arena.
func (c wireCodec) decode() (work, error) {
	w := work{arena: newReqArena(len(c.payload))}
	req, err := w.arena.DecodeDetect(c.payload)
	if err == nil {
		err = ValidatePrograms(req.Programs, c.s.cfg.Limits)
	}
	if err != nil {
		return w, err
	}
	w.programs = req.Programs
	if w.deadline = req.Deadline(); w.deadline == 0 {
		w.deadline = c.s.cfg.DefaultDeadline
	}
	return w, nil
}

func (c wireCodec) reply(out batchOutcome, tenantID string) {
	c.s.writeVerdict(c.wc.c, c.corr, out, tenantID)
}

func (c wireCodec) fail(f failure, _ string) { c.s.failWire(c.wc, c.corr, f) }

// reqArena is one SHMDWIRE DETECT request's decoded programs and
// windows, shared by reference count: the request's handler holds one
// reference, and every batch that binds one of its lanes holds one
// per lane until the batch's last runner is done with it. The last
// release recycles the arena, so a decision trace record copies the
// windows it keeps.
type reqArena struct {
	wire.Arena
	refs atomic.Int32
	// class is the arena's pool: it decodes payloads shorter than
	// 1<<class bytes.
	class int
}

// reqArenas pools request arenas by payload size class, so an arena
// grown for the largest request does not serve every small one: class
// c holds arenas that decode payloads shorter than 1<<c bytes. Larger
// payloads decode into an arena that is not pooled.
var reqArenas [21]sync.Pool

// newReqArena returns an arena for a payload of n bytes, holding the
// caller's reference.
func newReqArena(n int) *reqArena {
	c := bits.Len(uint(n))
	var a *reqArena
	if c < len(reqArenas) {
		a, _ = reqArenas[c].Get().(*reqArena)
	}
	if a == nil {
		a = &reqArena{class: c}
	}
	a.refs.Store(1)
	return a
}

// retain adds a reference; the caller already holds one.
func (a *reqArena) retain() { a.refs.Add(1) }

// release drops a reference and, with the last one, clears and
// recycles the arena. A nil arena is a no-op.
func (a *reqArena) release() {
	if a != nil && a.refs.Add(-1) == 0 && a.class < len(reqArenas) {
		a.Clear()
		reqArenas[a.class].Put(a)
	}
}

// verdictBuf is a pooled VERDICT encoding. Conn.WriteFrame copies the
// payload, so the buffer goes back once the frame is written.
type verdictBuf struct {
	results []wire.VerdictResult
	payload []byte
}

var verdictBufs = sync.Pool{New: func() any { return new(verdictBuf) }}

// writeVerdict answers a finished request with its VERDICT, tagged
// with the serving tenant so identity round-trips bit-identically
// across transports.
func (s *Server) writeVerdict(c *wire.Conn, corr uint64, out batchOutcome, tenantID string) {
	vb := verdictBufs.Get().(*verdictBuf)
	defer verdictBufs.Put(vb)
	results := vb.results[:0]
	for _, res := range out.results {
		results = append(results, wire.VerdictResult{
			ID:          res.ID,
			Malware:     res.Malware,
			Unprotected: res.Unprotected,
			Score:       res.Score,
			Confidence:  res.Confidence,
			Attempts:    uint32(res.Attempts),
			Windows:     uint32(res.Windows),
		})
	}
	payload, err := wire.AppendVerdict(vb.payload[:0], wire.Verdict{
		Session: int32(out.session),
		Hedged:  out.hedge,
		Results: results,
		Tenant:  tenantID,
	})
	clear(results)
	vb.results = results[:0]
	if err != nil {
		s.metrics.Request(int(wire.CodeInternal))
		c.WriteError(corr, wire.CodeInternal, err.Error())
		return
	}
	vb.payload = payload
	s.metrics.Request(200)
	c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: corr, Payload: payload})
}

// wireStream handles one STREAM frame: an append to (or open/close
// of) a long-lived sliding-window detection stream. The stream keeps
// the trailing detection-period windows buffered server-side and
// re-scores them every stride appended windows, so a Pin-style
// collector ships each window once and still gets overlapping
// verdicts. Opening and closing run on the read loop; an append with
// windows goes through the detect core as a streamCodec request,
// answering a VERDICT under the append's correlation id (zero results
// = ack, windows buffered but no re-scoring due).
//
// Tenant QoS is applied per append, not just at open: every
// window-carrying append is admitted by the stream tenant's bucket, so
// a stream cannot smuggle unmetered load past admission.
func (s *Server) wireStream(wc *wireConn, f wire.Frame) {
	c := wireCodec{s, wc, f.Corr, f.Payload}
	if s.draining.Load() {
		c.fail(failure{code: int(wire.CodeUnavailable), msg: "draining"}, "")
		return
	}
	// The appended windows are copied into the stream's buffer before
	// the read loop moves on, so they decode into the connection's own
	// arena.
	req, err := wc.arena.DecodeStream(f.Payload)
	if err != nil {
		c.fail(failure{code: int(wire.CodeBadRequest), msg: err.Error()}, "")
		return
	}
	if wc.streams == nil {
		wc.streams = make(map[uint32]*windowStream)
	}
	st, open := wc.streams[req.StreamID]
	if !open {
		if req.Close {
			// Closing a stream that is not open is idempotent: ack.
			c.reply(batchOutcome{session: -1}, "")
			return
		}
		if len(req.ID) > maxStreamLabel {
			c.fail(failure{code: int(wire.CodeBadRequest), msg: fmt.Sprintf("stream label is %d bytes, limit %d (room for \"#N\" in result ids)", len(req.ID), maxStreamLabel)}, "")
			return
		}
		if len(wc.streams) >= maxWireStreams {
			c.fail(failure{http.StatusTooManyRequests, fmt.Sprintf("connection holds %d streams, limit %d", len(wc.streams), maxWireStreams), true}, "")
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
				c.fail(s.rejectTenant(look), "")
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
		c.fail(failure{code: int(wire.CodeBadRequest), msg: fmt.Sprintf("stream %d is bound to tenant %q, append tagged %q", req.StreamID, st.tenant, req.Tenant)}, "")
		return
	}
	if req.Close {
		defer delete(wc.streams, req.StreamID)
	}
	if len(req.Windows) == 0 {
		c.reply(batchOutcome{session: -1}, st.tenant)
		return
	}
	// A shed append buffers nothing — the client retries the same
	// windows after the hint: the windows slide into the buffer only
	// once the append is admitted.
	detach(s, wc, streamCodec{c, st, req.Windows})
}

// streamCodec is the detect core's transport for one STREAM append:
// the tenant is the one the stream is bound to, and decoding slides
// the appended windows into the stream's buffer, collecting one
// re-scoring per completed stride. Replies are wireCodec's.
type streamCodec struct {
	wireCodec
	st      *windowStream
	windows []trace.WindowCounts
}

func (c streamCodec) tenant() (string, error) { return c.st.tenant, nil }

func (c streamCodec) decode() (work, error) {
	w := work{deadline: c.s.cfg.DefaultDeadline}
	st := c.st
	for i := range c.windows {
		st.buf = append(st.buf, c.windows[i])
		if len(st.buf) > st.period {
			st.buf = st.buf[len(st.buf)-st.period:]
		}
		st.total++
		st.sinceScore++
		if len(st.buf) == st.period && st.sinceScore >= st.stride {
			w.programs = append(w.programs, DecodedProgram{
				ID:      fmt.Sprintf("%s#%d", st.label, st.total),
				Windows: slices.Clone(st.buf),
			})
			st.sinceScore = 0
		}
	}
	return w, nil
}
