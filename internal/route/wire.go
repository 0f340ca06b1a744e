package route

// The router's SHMDWIRE tier: a client-facing binary listener (SDK
// clients connect here exactly as they would to a backend) and pooled
// persistent upstream connections to each backend's wire listener.
//
// This file is the binary codec of the router's one request path
// (dispatch.go): a DETECT frame passes the same admission step as an
// HTTP request (drain, then class brownout, the class advisory read
// from the client HELLO), runs through the same retry-and-hedge loop
// with wireForward as its send and SHMDWIRE-speaking backends as the
// only eligible ones, and fails through the same mapping, written as
// a typed ERROR frame. Both transports feed one view of each backend's
// health: the prober's rotation flag, in-flight counts and breakers.
//
// DETECT and VERDICT payloads are relayed verbatim — the router
// re-correlates frames but never re-encodes them, so the binary path
// through the fleet costs zero marshalling at the middle hop.
//
// Upstream connections are pooled with exclusive checkout: one relay
// owns one connection for the life of one request. That keeps the
// router free of demux state (the SDK is the multiplexed endpoint) at
// the cost of one pooled connection per concurrent upstream request.

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
	"shmd/internal/wire"
)

// maxIdleWireConns caps pooled idle connections per backend; beyond
// it, returned connections are closed instead of pooled.
const maxIdleWireConns = 16

// wirePool is one backend's pool of persistent SHMDWIRE connections.
type wirePool struct {
	addr       string
	timeout    time.Duration
	maxPayload int

	mu     sync.Mutex
	idle   []*wire.Conn
	closed bool
}

// newWirePool builds an empty pool; connections dial lazily.
func newWirePool(addr string, timeout time.Duration, maxPayload int) *wirePool {
	return &wirePool{addr: addr, timeout: timeout, maxPayload: maxPayload}
}

// get checks out a connection, dialing when the pool is empty.
func (p *wirePool) get() (*wire.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return wire.Dial(p.addr, p.timeout, p.maxPayload)
}

// put returns a healthy connection for reuse.
func (p *wirePool) put(c *wire.Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdleWireConns {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// close closes every idle connection and stops pooling.
func (p *wirePool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// closeWirePools releases every backend's idle upstream connections.
func (rt *Router) closeWirePools() {
	for _, b := range rt.backends {
		if b.wire != nil {
			b.wire.close()
		}
	}
}

// wireReply is one backend's relayed response frame.
type wireReply struct {
	// frameType is VERDICT or ERROR; payload is relayed verbatim.
	frameType wire.FrameType
	payload   []byte
	backend   string
}

// speaksWire reports whether the backend has a SHMDWIRE listener: the
// eligibility predicate of a binary relay's dispatch.
func (b *backend) speaksWire() bool { return b.wire != nil }

// failWire writes a failure as a typed ERROR frame under corr. A
// backoff hint rides in the message text: the router relays upstream
// frames verbatim and keeps no per-client opt-in state for the
// machine-readable tail.
func (rt *Router) failWire(c *wire.Conn, corr uint64, f failure) {
	rt.metrics.Request(f.code)
	if f.code == statusClientClosedRequest {
		return
	}
	msg := f.msg
	if f.retry {
		msg = fmt.Sprintf("%s; retry in %ds", msg, rt.jitter.RetryAfter())
	}
	c.WriteError(corr, wire.ErrorCode(f.code), msg)
}

// wireForward relays one DETECT payload to one backend over a pooled
// connection and waits for its correlated VERDICT or ERROR, bounded by
// cfg.Timeout. Outcome classification mirrors the HTTP forward:
// transport failures and 5xx-class ERROR frames are breaker failures;
// everything else — including 4xx and 429, which prove the backend is
// alive and reasoning — is a success and relays to the client. A
// half-open probe claim is always resolved on every exit path.
func (rt *Router) wireForward(ctx context.Context, b *backend, payload []byte, probe bool) (*wireReply, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	resolved := false
	if probe {
		defer func() {
			if !resolved {
				b.breaker.Release()
			}
		}()
	}

	c, err := b.wire.get()
	if err != nil {
		if ctx.Err() == nil {
			resolved = true
			rt.noteFailure(b)
		}
		return nil, fmt.Errorf("route: %s: wire dial: %w", b.name, err)
	}
	// reuse flips true only after a clean, fully-consumed exchange on a
	// connection the backend has not announced it is draining.
	reuse := false
	goaway := false
	defer func() {
		if reuse && !goaway {
			c.SetReadDeadline(time.Time{})
			b.wire.put(c)
		} else {
			c.Close()
		}
	}()

	corr := rt.wireCorr.Add(1)
	c.SetReadDeadline(time.Now().Add(rt.cfg.Timeout))
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: corr, Payload: payload}); err != nil {
		if ctx.Err() == nil {
			resolved = true
			rt.noteFailure(b)
		}
		return nil, fmt.Errorf("route: %s: wire send: %w", b.name, err)
	}
	for {
		f, err := c.ReadFrame()
		if err != nil {
			var tooBig *wire.TooLargeError
			if errors.As(err, &tooBig) {
				if tooBig.Corr != corr {
					continue
				}
				// The backend's reply exceeds the relay cap — the wire twin
				// of an over-cap HTTP reply.
				resolved = true
				rt.noteFailure(b)
				return nil, fmt.Errorf("route: %s reply exceeds %d bytes", b.name, rt.cfg.MaxBodyBytes)
			}
			if ctx.Err() == nil {
				resolved = true
				rt.noteFailure(b)
			}
			return nil, fmt.Errorf("route: %s: wire read: %w", b.name, err)
		}
		if f.Type == wire.FrameGoAway {
			// Finish this exchange, then retire the connection.
			goaway = true
			continue
		}
		if f.Corr != corr {
			// HELLO from a fresh dial, stray PONGs: not ours.
			continue
		}
		switch f.Type {
		case wire.FrameVerdict:
			resolved = true
			b.breaker.Success()
			reuse = true
			return &wireReply{frameType: wire.FrameVerdict, payload: f.Payload, backend: b.name}, nil
		case wire.FrameError:
			e, decErr := wire.DecodeErrorFrame(f.Payload)
			if decErr != nil {
				resolved = true
				rt.noteFailure(b)
				return nil, fmt.Errorf("route: %s: undecodable error frame: %w", b.name, decErr)
			}
			if e.Code >= 500 {
				resolved = true
				rt.noteFailure(b)
				return nil, fmt.Errorf("route: %s answered %d: %s", b.name, e.Code, e.Msg)
			}
			resolved = true
			b.breaker.Success()
			reuse = true
			return &wireReply{frameType: wire.FrameError, payload: f.Payload, backend: b.name}, nil
		default:
			continue
		}
	}
}

// wireConnSet tracks live client-facing connections for drain.
type wireConnSet struct {
	mu    sync.Mutex
	conns map[*routerWireConn]struct{}
}

// routerWireConn is one accepted SDK-client connection.
type routerWireConn struct {
	c      *wire.Conn
	wg     sync.WaitGroup
	cancel context.CancelFunc
	// class is the connection's priority-class advisory, latched from
	// the client HELLO's metadata; it orders the router's brownout
	// shedding only. Tenant identity itself is NOT latched here: the
	// router relays DETECT payloads verbatim over pooled upstream
	// connections that carry no per-client HELLO, so clients behind a
	// router must tag each frame (the SDK does) for quota to land on
	// the right tenant at the backend.
	class atomic.Int32
}

func (s *wireConnSet) register(wc *routerWireConn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[*routerWireConn]struct{})
	}
	s.conns[wc] = struct{}{}
	s.mu.Unlock()
}

func (s *wireConnSet) unregister(wc *routerWireConn) {
	s.mu.Lock()
	delete(s.conns, wc)
	s.mu.Unlock()
}

func (s *wireConnSet) snapshot() []*routerWireConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*routerWireConn, 0, len(s.conns))
	for wc := range s.conns {
		out = append(out, wc)
	}
	return out
}

// ServeWire accepts SHMDWIRE client connections on ln until ctx is
// cancelled, then drains: GOAWAY to every client, in-flight relays
// finish (bounded by ShutdownTimeout), stragglers are cut, and the
// upstream pools close. Run alongside Serve (which owns the prober);
// wire-only deployments must drive ProbeOnce themselves.
func (rt *Router) ServeWire(ctx context.Context, ln net.Listener) error {
	done := make(chan error, 1)
	go func() { done <- rt.acceptWire(ln) }()
	select {
	case <-ctx.Done():
		rt.draining.Store(true)
		ln.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShutdownTimeout)
		defer cancel()
		rt.drainWire(shCtx)
		rt.waitRequests(shCtx)
		rt.closeWirePools()
		<-done
		return nil
	case err := <-done:
		rt.closeWirePools()
		return err
	}
}

// acceptWire runs the accept loop; a closed listener ends it cleanly.
func (rt *Router) acceptWire(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go rt.handleWireClient(nc)
	}
}

// drainWire broadcasts GOAWAY and waits for in-flight relays.
func (rt *Router) drainWire(ctx context.Context) {
	conns := rt.wireConns.snapshot()
	goaway := wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "router draining"})
	for _, wc := range conns {
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

// handleWireClient owns one SDK-client connection: handshake, HELLO,
// then relaying DETECT frames through the fleet dispatch machinery.
func (rt *Router) handleWireClient(nc net.Conn) {
	c := wire.NewConn(nc, int(rt.cfg.MaxBodyBytes))
	v, err := c.Handshake(rt.cfg.ReadHeaderTimeout)
	if err != nil {
		c.Close()
		return
	}
	if v != wire.ProtoVersion {
		c.WriteError(0, wire.CodeVersion, fmt.Sprintf("router speaks SHMDWIRE v%d, client sent v%d", wire.ProtoVersion, v))
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
	wc := &routerWireConn{c: c, cancel: cancel}
	wc.class.Store(int32(tenant.Standard))
	rt.wireConns.register(wc)
	defer func() {
		rt.wireConns.unregister(wc)
		cancel()
		wc.wg.Wait()
		c.Close()
	}()
	if rt.draining.Load() {
		c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "router draining"})})
	}

	for {
		f, err := c.ReadFrame()
		if err != nil {
			var tooBig *wire.TooLargeError
			if errors.As(err, &tooBig) {
				rt.failWire(c, tooBig.Corr, failure{code: int(wire.CodeTooLarge), msg: err.Error()})
				continue
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("route: wire: closing %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		switch f.Type {
		case wire.FrameDetect:
			if fl, ok := rt.admit(tenant.Class(wc.class.Load())); !ok {
				rt.failWire(c, f.Corr, fl)
				continue
			}
			wc.wg.Add(1)
			go func(f wire.Frame) {
				defer wc.wg.Done()
				rt.relayWireDetect(ctx, wc, f)
			}(f)
		case wire.FrameHello:
			// v1.1 client HELLO: only the class advisory matters to the
			// router (see routerWireConn.class for why tenant identity
			// does not latch here).
			h, derr := wire.DecodeHello(f.Payload)
			if derr != nil {
				rt.failWire(c, f.Corr, failure{code: int(wire.CodeBadRequest), msg: "bad HELLO: " + derr.Error()})
				continue
			}
			wc.class.Store(int32(classFor(h.Meta[wire.MetaClass])))
		case wire.FrameStream:
			// Sliding-window streams are stateful per connection; the
			// router's pooled exclusive-checkout relay has no home for
			// that state, so streams go directly to a backend.
			rt.failWire(c, f.Corr, failure{code: int(wire.CodeBadRequest),
				msg: "STREAM is not relayed; open window streams directly against a backend wire listener"})
		case wire.FramePing:
			c.WriteFrame(wire.Frame{Type: wire.FramePong, Corr: f.Corr})
		case wire.FrameHealthReq:
			report := rt.healthReport()
			payload, merr := json.Marshal(report)
			if merr != nil {
				c.WriteError(f.Corr, wire.CodeInternal, merr.Error())
				continue
			}
			c.WriteFrame(wire.Frame{Type: wire.FrameHealth, Corr: f.Corr, Payload: payload})
		case wire.FrameGoAway:
			// Client draining its side; it will close when done.
		default:
			if !f.Type.Known() {
				log.Printf("route: wire: skipping unknown frame type 0x%02x from %s", uint8(f.Type), c.RemoteAddr())
				continue
			}
			rt.failWire(c, f.Corr, failure{code: int(wire.CodeBadRequest), msg: fmt.Sprintf("unexpected %v frame", f.Type)})
		}
	}
}

// relayWireDetect dispatches one client DETECT payload through the
// fleet and writes the winning reply back under the client's
// correlation id.
func (rt *Router) relayWireDetect(ctx context.Context, wc *routerWireConn, f wire.Frame) {
	res, err := dispatch(ctx, rt, (*backend).speaksWire, func(ctx context.Context, b *backend, probe bool) (*wireReply, error) {
		return rt.wireForward(ctx, b, f.Payload, probe)
	})
	if err != nil {
		rt.failWire(wc.c, f.Corr, rt.failed(ctx, err))
		return
	}
	if res.frameType == wire.FrameVerdict {
		rt.metrics.Request(200)
	} else if e, decErr := wire.DecodeErrorFrame(res.payload); decErr == nil {
		rt.metrics.Request(int(e.Code))
	}
	wc.c.WriteFrame(wire.Frame{Type: res.frameType, Corr: f.Corr, Payload: res.payload})
}
