// Package sdk is the Go client for the SHMDWIRE binary detect
// protocol (PROTOCOL.md): a thin, connection-owning SDK over a
// long-running detection engine.
//
// One Client owns one multiplexed connection. Every request gets a
// client-wide monotonic correlation id — ids are never reused, so a
// response can never be delivered to the wrong waiter, even across
// reconnects. A dedicated reader goroutine demultiplexes response
// frames to their waiting callers; any number of goroutines may call
// Detect concurrently and their frames interleave safely on the one
// connection.
//
// The Client reconnects with seeded equal-jitter backoff when the
// connection dies between requests. Requests in flight when the
// connection dies fail with ErrConnLost — the SDK never silently
// re-dispatches a detection that may already be running server-side;
// retry policy belongs to the caller, who knows whether the work is
// idempotent. A server GOAWAY marks the connection draining: in-flight
// requests finish, new requests dial a fresh connection.
package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/backoff"
	"shmd/internal/tenant"
	"shmd/internal/wire"
)

// ErrConnLost marks a request that was in flight when its connection
// died. The detection may or may not have run server-side; the caller
// decides whether to retry.
var ErrConnLost = errors.New("sdk: connection lost with request in flight")

// ErrClosed marks use of a closed Client.
var ErrClosed = errors.New("sdk: client closed")

// ErrRateLimited is the typed rejection for a tenant-QoS shed (wire
// code 429): the tenant's quota, concurrency cap, or a load-shedding
// rule refused the request. It wraps the underlying *wire.ErrorFrame,
// so errors.As against either type works.
type ErrRateLimited struct {
	// RetryAfter is the server's machine-readable backoff hint, zero
	// when the peer predates the v1.1 retry tail (callers fall back to
	// their own backoff).
	RetryAfter time.Duration
	frame      *wire.ErrorFrame
}

// Error names the shed and its hint.
func (e *ErrRateLimited) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("sdk: rate limited (retry after %s): %s", e.RetryAfter, e.frame.Msg)
	}
	return "sdk: rate limited: " + e.frame.Msg
}

// Unwrap exposes the underlying wire error frame.
func (e *ErrRateLimited) Unwrap() error { return e.frame }

// typedError maps a server ERROR frame to the SDK's typed errors.
func typedError(e *wire.ErrorFrame) error {
	if e.Code == wire.CodeOverloaded {
		return &ErrRateLimited{RetryAfter: time.Duration(e.RetryAfterSec) * time.Second, frame: e}
	}
	return e
}

// Options tunes a Client. The zero value is usable.
type Options struct {
	// DialTimeout bounds each connection attempt, handshake included
	// (default 5s).
	DialTimeout time.Duration
	// MaxFramePayload bounds incoming frame payloads
	// (default wire.DefaultMaxFramePayload).
	MaxFramePayload int
	// ReconnectBase/ReconnectMax bound the equal-jitter reconnect
	// backoff (defaults 50ms / 2s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// JitterSeed seeds the reconnect jitter (0 = from the clock; tests
	// pin a seed).
	JitterSeed int64
	// Tenant is the client's tenant identity. When set, every
	// connection announces it in a v1.1 client HELLO and every DETECT
	// and STREAM payload is tagged with it — per-frame tags survive
	// relays (routers forward payloads verbatim but not connection
	// state), so quota lands on the right tenant end to end.
	Tenant string
	// Class is the client's priority-class advisory ("realtime",
	// "standard", or "batch"), announced in the HELLO metadata. Relays
	// use it to order brownout shedding; the backend's registry stays
	// authoritative for the real class. Invalid values fail Dial.
	Class string
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFramePayload == 0 {
		o.MaxFramePayload = wire.DefaultMaxFramePayload
	}
	if o.ReconnectBase == 0 {
		o.ReconnectBase = 50 * time.Millisecond
	}
	if o.ReconnectMax == 0 {
		o.ReconnectMax = 2 * time.Second
	}
	return o
}

// Client is a SHMDWIRE detect client. Safe for concurrent use.
type Client struct {
	addr   string
	opts   Options
	jitter *backoff.Jitter
	// meta is the HELLO metadata (tenant, class) Dial validated, nil
	// when there is none to announce.
	meta map[string]string
	// corr issues client-wide monotonic correlation ids, never reused
	// across requests or reconnects.
	corr atomic.Uint64
	// streamID issues window-stream ids, unique client-wide so they are
	// unique on whichever connection a stream's frames land on.
	streamID atomic.Uint32
	closed   atomic.Bool

	mu   sync.Mutex
	conn *clientConn
}

// clientConn is one live connection plus its demux state.
type clientConn struct {
	c *wire.Conn

	mu       sync.Mutex
	inflight map[uint64]chan wire.Frame
	// draining is set by a server GOAWAY: no new requests board this
	// connection, in-flight ones finish.
	draining atomic.Bool
	// dead closes when the reader exits; err holds the reason. once
	// makes fail idempotent — the reader, a failed writer, and Close can
	// race to report the death.
	once sync.Once
	dead chan struct{}
	err  error
}

// Dial connects to a SHMDWIRE server and verifies the handshake. The
// initial dial fails fast (no retries) so misconfiguration surfaces
// immediately; reconnects after a drop use backoff.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	if opts.Class != "" {
		if _, err := tenant.ParseClass(opts.Class); err != nil {
			return nil, fmt.Errorf("sdk: %w", err)
		}
	}
	var meta map[string]string
	if opts.Tenant != "" || opts.Class != "" {
		meta = make(map[string]string, 2)
		if opts.Tenant != "" {
			meta[wire.MetaTenant] = opts.Tenant
		}
		if opts.Class != "" {
			meta[wire.MetaClass] = opts.Class
		}
		if err := wire.ValidHelloMeta(meta); err != nil {
			return nil, fmt.Errorf("sdk: %w", err)
		}
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	cl := &Client{addr: addr, opts: opts, jitter: backoff.New(seed), meta: meta}
	cc, err := cl.connect()
	if err != nil {
		return nil, err
	}
	cl.conn = cc
	return cl, nil
}

// connect opens one connection and starts its reader. A configured
// tenant identity or class advisory is announced in a v1.1 client
// HELLO before any request boards, which also opts the connection into
// extension tails (machine-readable Retry-After on shed ERRORs).
func (cl *Client) connect() (*clientConn, error) {
	c, err := wire.Dial(cl.addr, cl.opts.DialTimeout, cl.opts.MaxFramePayload)
	if err != nil {
		return nil, err
	}
	if cl.meta != nil {
		hello := wire.AppendHello(nil, wire.Hello{
			Version:  wire.ProtoVersion,
			MaxFrame: uint32(cl.opts.MaxFramePayload),
			Meta:     cl.meta,
		})
		if err := c.WriteFrame(wire.Frame{Type: wire.FrameHello, Payload: hello}); err != nil {
			c.Close()
			return nil, fmt.Errorf("sdk: sending HELLO: %w", err)
		}
	}
	cc := &clientConn{
		c:        c,
		inflight: make(map[uint64]chan wire.Frame),
		dead:     make(chan struct{}),
	}
	go cc.readLoop()
	return cc, nil
}

// readLoop demultiplexes response frames to their waiters until the
// connection dies, then fails every remaining waiter with ErrConnLost.
func (cc *clientConn) readLoop() {
	for {
		f, err := cc.c.ReadFrame()
		if err != nil {
			var tooBig *wire.TooLargeError
			if errors.As(err, &tooBig) {
				// The stream is still synchronized; the oversized frame's
				// waiter (if any) learns its fate as a typed failure.
				cc.deliver(wire.Frame{Type: wire.FrameError, Corr: tooBig.Corr,
					Payload: wire.AppendErrorFrame(nil, wire.ErrorFrame{Code: wire.CodeTooLarge, Msg: err.Error()})})
				continue
			}
			cc.fail(err)
			return
		}
		switch f.Type {
		case wire.FrameVerdict, wire.FrameError, wire.FramePong, wire.FrameHealth:
			cc.deliver(f)
		case wire.FrameGoAway:
			cc.draining.Store(true)
		case wire.FrameHello:
			// The server's greeting; nothing to correlate.
		default:
			// Forward compatibility: skip frames we don't understand.
		}
	}
}

// deliver routes one response frame to its registered waiter. The
// response channel is buffered, so a waiter that gave up (context
// cancelled) never blocks the reader.
func (cc *clientConn) deliver(f wire.Frame) {
	cc.mu.Lock()
	ch, ok := cc.inflight[f.Corr]
	if ok {
		delete(cc.inflight, f.Corr)
	}
	cc.mu.Unlock()
	if ok {
		ch <- f
	}
}

// fail marks the connection dead and releases every waiter.
func (cc *clientConn) fail(err error) {
	cc.once.Do(func() {
		cc.mu.Lock()
		waiters := cc.inflight
		cc.inflight = nil
		cc.err = err
		cc.mu.Unlock()
		close(cc.dead)
		cc.c.Close()
		for _, ch := range waiters {
			close(ch) // a closed response channel reads as ErrConnLost
		}
	})
}

// register adds a waiter for corr. It fails if the connection already
// died (the caller will grab a fresh connection and try again).
func (cc *clientConn) register(corr uint64, ch chan wire.Frame) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.inflight == nil {
		return ErrConnLost
	}
	cc.inflight[corr] = ch
	return nil
}

// unregister abandons a waiter (context cancelled). The connection
// stays healthy; a late response for corr is dropped by deliver.
func (cc *clientConn) unregister(corr uint64) {
	cc.mu.Lock()
	if cc.inflight != nil {
		delete(cc.inflight, corr)
	}
	cc.mu.Unlock()
}

// alive reports whether the connection can board new requests.
func (cc *clientConn) alive() bool {
	select {
	case <-cc.dead:
		return false
	default:
		return !cc.draining.Load()
	}
}

// getConn returns a boardable connection, reconnecting with jittered
// backoff until ctx expires.
func (cl *Client) getConn(ctx context.Context) (*clientConn, error) {
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.conn != nil && cl.conn.alive() {
		return cl.conn, nil
	}
	prev := cl.conn
	for attempt := 0; ; attempt++ {
		if cl.closed.Load() {
			return nil, ErrClosed
		}
		cc, err := cl.connect()
		if err == nil {
			cl.conn = cc
			if prev != nil && prev.draining.Load() {
				// Let the drained connection finish its in-flight work,
				// then release it.
				go prev.closeWhenIdle()
			}
			return cc, nil
		}
		select {
		case <-time.After(cl.jitter.Backoff(cl.opts.ReconnectBase, cl.opts.ReconnectMax, attempt)):
		case <-ctx.Done():
			return nil, fmt.Errorf("sdk: reconnecting to %s: %w (last dial error: %v)", cl.addr, ctx.Err(), err)
		}
	}
}

// closeWhenIdle closes a draining connection once its in-flight
// requests have all been answered (or it dies on its own).
func (cc *clientConn) closeWhenIdle() {
	for {
		select {
		case <-cc.dead:
			return
		case <-time.After(10 * time.Millisecond):
		}
		cc.mu.Lock()
		idle := len(cc.inflight) == 0
		cc.mu.Unlock()
		if idle {
			cc.fail(errors.New("sdk: connection drained"))
			return
		}
	}
}

// encodeBufs recycles request payload buffers. Conn.WriteFrame copies
// a payload into the connection's writer, so a buffer goes back as
// soon as its frame is written.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// roundTrip sends one frame and waits for its correlated response. A
// non-nil buf is the pooled encode buffer holding the payload; it goes
// back to encodeBufs once the frame is written or the send has failed.
func (cl *Client) roundTrip(ctx context.Context, t wire.FrameType, payload []byte, buf *[]byte) (wire.Frame, error) {
	cc, corr, ch, err := cl.send(ctx, t, payload)
	if buf != nil {
		*buf = payload[:0]
		encodeBufs.Put(buf)
	}
	if err != nil {
		return wire.Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return wire.Frame{}, ErrConnLost
		}
		return f, nil
	case <-ctx.Done():
		// Release the correlation slot; the connection itself stays
		// healthy for other requests.
		cc.unregister(corr)
		return wire.Frame{}, ctx.Err()
	}
}

// send writes one frame on a boardable connection under a fresh
// correlation id, registered for the response that ch receives.
func (cl *Client) send(ctx context.Context, t wire.FrameType, payload []byte) (cc *clientConn, corr uint64, ch chan wire.Frame, err error) {
	if cc, err = cl.getConn(ctx); err != nil {
		return nil, 0, nil, err
	}
	corr = cl.corr.Add(1)
	ch = make(chan wire.Frame, 1)
	if err := cc.register(corr, ch); err != nil {
		return nil, 0, nil, err
	}
	if err := cc.c.WriteFrame(wire.Frame{Type: t, Corr: corr, Payload: payload}); err != nil {
		cc.unregister(corr)
		cc.fail(err)
		return nil, 0, nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return cc, corr, ch, nil
}

// Detect runs one detect request and returns the verdict. A request
// without its own tenant tag inherits the client's Options.Tenant. A
// server-side rejection (validation, overload, drain) comes back as a
// *wire.ErrorFrame carrying its typed code; a tenant-QoS shed comes
// back as *ErrRateLimited.
func (cl *Client) Detect(ctx context.Context, req wire.DetectRequest) (wire.Verdict, error) {
	if req.Tenant == "" {
		req.Tenant = cl.opts.Tenant
	}
	buf := encodeBufs.Get().(*[]byte)
	payload, err := wire.AppendDetectRequest((*buf)[:0], req)
	if err != nil {
		encodeBufs.Put(buf)
		return wire.Verdict{}, err
	}
	f, err := cl.roundTrip(ctx, wire.FrameDetect, payload, buf)
	if err != nil {
		return wire.Verdict{}, err
	}
	switch f.Type {
	case wire.FrameVerdict:
		return wire.DecodeVerdict(f.Payload)
	case wire.FrameError:
		e, decErr := wire.DecodeErrorFrame(f.Payload)
		if decErr != nil {
			return wire.Verdict{}, decErr
		}
		return wire.Verdict{}, typedError(&e)
	default:
		return wire.Verdict{}, fmt.Errorf("sdk: unexpected %v response", f.Type)
	}
}

// Ping round-trips a liveness probe.
func (cl *Client) Ping(ctx context.Context) error {
	f, err := cl.roundTrip(ctx, wire.FramePing, nil, nil)
	if err != nil {
		return err
	}
	if f.Type != wire.FramePong {
		return fmt.Errorf("sdk: unexpected %v response to ping", f.Type)
	}
	return nil
}

// Health fetches the server's health report (the same JSON body
// /healthz serves, decoded into the caller's structure of choice).
func (cl *Client) Health(ctx context.Context) (json.RawMessage, error) {
	f, err := cl.roundTrip(ctx, wire.FrameHealthReq, nil, nil)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case wire.FrameHealth:
		return json.RawMessage(f.Payload), nil
	case wire.FrameError:
		e, decErr := wire.DecodeErrorFrame(f.Payload)
		if decErr != nil {
			return nil, decErr
		}
		return nil, &e
	default:
		return nil, fmt.Errorf("sdk: unexpected %v response to health request", f.Type)
	}
}

// Close tears the client down. In-flight requests fail with
// ErrConnLost.
func (cl *Client) Close() error {
	if !cl.closed.CompareAndSwap(false, true) {
		return nil
	}
	cl.mu.Lock()
	cc := cl.conn
	cl.conn = nil
	cl.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClosed)
	}
	return nil
}
