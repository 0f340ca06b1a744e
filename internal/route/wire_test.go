package route

// Tests for the router's SHMDWIRE tier: binary upstream relay with
// pooled connections, breaker-driven retry, verbatim 4xx relay,
// brownout, drain GOAWAY, and HTTP-only backend exclusion.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmd/internal/core"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// fakeWireBackend pairs a scriptable SHMDWIRE listener with the
// scriptable HTTP backend (whose /readyz feeds the router's prober —
// readiness is shared across transports).
type fakeWireBackend struct {
	*fakeBackend
	name string
	ln   net.Listener

	wireHits  atomic.Int64 // DETECT frames answered
	wireConns atomic.Int64 // connections accepted (pins pooling)
	errCode   atomic.Int32 // != 0: answer ERROR with this code
	goaway    atomic.Bool  // send GOAWAY before each verdict

	verdict []byte // canned VERDICT payload carrying the backend name

	mu    sync.Mutex
	conns []net.Conn
}

func newFakeWireBackend(t *testing.T, name string) *fakeWireBackend {
	t.Helper()
	fw := &fakeWireBackend{fakeBackend: newFakeBackend(t, name), name: name}
	var err error
	fw.verdict, err = wire.AppendVerdict(nil, wire.Verdict{
		Session: 1,
		Results: []wire.VerdictResult{{
			ID: name, Malware: true, Score: 0.75, Confidence: 0.9,
			Attempts: 1, Windows: 2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fw.accept()
	t.Cleanup(func() {
		fw.ln.Close()
		fw.mu.Lock()
		conns := fw.conns
		fw.conns = nil
		fw.mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	return fw
}

func (fw *fakeWireBackend) wireAddr() string { return fw.ln.Addr().String() }

func (fw *fakeWireBackend) accept() {
	for {
		nc, err := fw.ln.Accept()
		if err != nil {
			return
		}
		fw.wireConns.Add(1)
		fw.mu.Lock()
		fw.conns = append(fw.conns, nc)
		fw.mu.Unlock()
		go fw.serveConn(nc)
	}
}

func (fw *fakeWireBackend) serveConn(nc net.Conn) {
	c := wire.NewConn(nc, 0)
	if _, err := c.Handshake(time.Second); err != nil {
		c.Close()
		return
	}
	c.WriteFrame(wire.Frame{
		Type:    wire.FrameHello,
		Payload: wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, MaxFrame: uint32(c.MaxPayload())}),
	})
	for {
		f, err := c.ReadFrame()
		if err != nil {
			c.Close()
			return
		}
		if f.Type != wire.FrameDetect {
			continue
		}
		fw.wireHits.Add(1)
		if fw.goaway.Load() {
			c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: wire.AppendGoAway(nil, wire.GoAway{Msg: "backend draining"})})
		}
		if code := fw.errCode.Load(); code != 0 {
			c.WriteError(f.Corr, wire.ErrorCode(code), "scripted wire failure")
			continue
		}
		c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: f.Corr, Payload: fw.verdict})
	}
}

// newWireRouter builds a router whose backends all speak SHMDWIRE.
func newWireRouter(t *testing.T, cfg Config, backends ...*fakeWireBackend) *Router {
	t.Helper()
	for _, fw := range backends {
		cfg.Backends = append(cfg.Backends, fw.ts.URL)
		cfg.WireBackends = append(cfg.WireBackends, fw.wireAddr())
	}
	cfg.ProbeInterval = -1
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// startRouterWire serves the router's client-facing wire listener.
func startRouterWire(t *testing.T, rt *Router) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.ServeWire(ctx, ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("ServeWire: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

func routeWireRequest(t *testing.T) wire.DetectRequest {
	t.Helper()
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := prog.Trace(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	return wire.DetectRequest{Programs: []wire.DetectProgram{{ID: "prog-0", Windows: windows}}}
}

func dialRouter(t *testing.T, addr string) *sdk.Client {
	t.Helper()
	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestWireBackendsMustBeIndexAligned(t *testing.T) {
	_, err := New(Config{
		Backends:     []string{"http://127.0.0.1:1"},
		WireBackends: []string{"127.0.0.1:2", "127.0.0.1:3"},
	})
	if err == nil || !strings.Contains(err.Error(), "index-aligned") {
		t.Fatalf("misaligned WireBackends error = %v, want index-aligned complaint", err)
	}
}

// TestWireRelayPoolsUpstreamConnections pins the happy path: the
// verdict payload arrives bit-exact through the relay, and sequential
// requests reuse one pooled upstream connection.
func TestWireRelayPoolsUpstreamConnections(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	rt := newWireRouter(t, Config{}, fw)
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	req := routeWireRequest(t)
	for i := 0; i < 3; i++ {
		v, err := cl.Detect(context.Background(), req)
		if err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
		if len(v.Results) != 1 || v.Results[0].ID != "a" || !v.Results[0].Malware {
			t.Fatalf("detect %d: verdict %+v, want backend a's canned verdict", i, v)
		}
		if bits := math.Float64bits(v.Results[0].Score); bits != math.Float64bits(0.75) {
			t.Fatalf("detect %d: score bits %x — payload not relayed verbatim", i, bits)
		}
	}
	if hits := fw.wireHits.Load(); hits != 3 {
		t.Errorf("backend answered %d DETECTs, want 3", hits)
	}
	if conns := fw.wireConns.Load(); conns != 1 {
		t.Errorf("backend accepted %d connections for 3 sequential requests, want 1 (pooled)", conns)
	}
}

// TestWireRelayRetries5xxOnAnotherBackend pins outcome classification:
// a 5xx-class ERROR frame is a breaker failure and earns a retry on a
// different backend; the client sees only the winning verdict.
func TestWireRelayRetries5xxOnAnotherBackend(t *testing.T) {
	fa := newFakeWireBackend(t, "a")
	fb := newFakeWireBackend(t, "b")
	fa.errCode.Store(int32(wire.CodeInternal))
	fb.errCode.Store(int32(wire.CodeInternal))
	rt := newWireRouter(t, Config{MaxRetries: 2}, fa, fb)
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	// Heal one backend so the retry has a winner; which backend the
	// first attempt lands on is the picker's business.
	fb.errCode.Store(0)
	v, err := cl.Detect(context.Background(), routeWireRequest(t))
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	if len(v.Results) != 1 || v.Results[0].ID != "b" {
		t.Fatalf("verdict %+v, want backend b's", v)
	}
	var aFailures uint64
	for _, b := range rt.backends {
		if b.name == fa.host() {
			aFailures = b.failures.Load()
		}
	}
	if fa.wireHits.Load() > 0 && aFailures == 0 {
		t.Error("backend a answered 500 but its breaker saw no failure")
	}
}

// TestWireRelay4xxRelayedVerbatim pins that client-class errors prove
// the backend alive: no retry, no breaker failure, and the typed
// ERROR frame reaches the SDK caller intact.
func TestWireRelay4xxRelayedVerbatim(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	fw.errCode.Store(int32(wire.CodeBadRequest))
	rt := newWireRouter(t, Config{}, fw)
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	_, err := cl.Detect(context.Background(), routeWireRequest(t))
	var ef *wire.ErrorFrame
	if !errors.As(err, &ef) || ef.Code != wire.CodeBadRequest {
		t.Fatalf("detect error = %v, want *wire.ErrorFrame with code 400", err)
	}
	if !strings.Contains(ef.Msg, "scripted wire failure") {
		t.Errorf("error message %q lost the backend's words", ef.Msg)
	}
	if hits := fw.wireHits.Load(); hits != 1 {
		t.Errorf("backend hit %d times, want 1 — 4xx must not retry", hits)
	}
	if failures := rt.backends[0].failures.Load(); failures != 0 {
		t.Errorf("4xx counted %d breaker failures, want 0", failures)
	}
}

// TestWireBrownout pins the no-ready-backends path: a typed 503 with a
// jittered retry hint, cheap and immediate, no upstream traffic.
func TestWireBrownout(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	fw.ready.Store(false)
	rt := newWireRouter(t, Config{}, fw)
	if up := rt.ProbeOnce(context.Background()); up != 0 {
		t.Fatalf("ProbeOnce = %d ready, want 0", up)
	}
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	_, err := cl.Detect(context.Background(), routeWireRequest(t))
	var ef *wire.ErrorFrame
	if !errors.As(err, &ef) || ef.Code != wire.CodeUnavailable {
		t.Fatalf("brownout error = %v, want *wire.ErrorFrame with code 503", err)
	}
	if !strings.Contains(ef.Msg, "retry in") {
		t.Errorf("brownout message %q carries no retry hint", ef.Msg)
	}
	if hits := fw.wireHits.Load(); hits != 0 {
		t.Errorf("brownout still sent %d requests upstream", hits)
	}
}

// TestWireUpstreamGoAwayRetiresConnection pins drain cooperation with
// a backend: the in-flight exchange finishes, but the connection is
// not pooled — the next request dials fresh.
func TestWireUpstreamGoAwayRetiresConnection(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	fw.goaway.Store(true)
	rt := newWireRouter(t, Config{}, fw)
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	req := routeWireRequest(t)
	for i := 0; i < 2; i++ {
		v, err := cl.Detect(context.Background(), req)
		if err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
		if len(v.Results) != 1 || v.Results[0].ID != "a" {
			t.Fatalf("detect %d: verdict %+v", i, v)
		}
	}
	if conns := fw.wireConns.Load(); conns != 2 {
		t.Errorf("backend accepted %d connections, want 2 — GOAWAY'd connections must not be reused", conns)
	}
}

// TestWireRouterDrainSendsGoAway pins the client-facing drain: a
// shutdown broadcasts GOAWAY before the connection closes.
func TestWireRouterDrainSendsGoAway(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	rt := newWireRouter(t, Config{ShutdownTimeout: 2 * time.Second}, fw)
	addr, stop := startRouterWire(t, rt)

	c, err := wire.Dial(addr, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.ReadFrame()
	if err != nil || f.Type != wire.FrameHello {
		t.Fatalf("first frame = %v (%v), want HELLO", f.Type, err)
	}

	go stop()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		f, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("connection died before GOAWAY: %v", err)
		}
		if f.Type == wire.FrameGoAway {
			if want := wire.AppendGoAway(nil, wire.GoAway{Msg: "router draining"}); !bytes.Equal(f.Payload, want) {
				t.Errorf("GOAWAY payload %q, want the draining notice %q", f.Payload, want)
			}
			return
		}
	}
}

// TestWireSkipsHTTPOnlyBackends pins mixed fleets: a backend with no
// wire address never sees binary traffic, even across many requests.
func TestWireSkipsHTTPOnlyBackends(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	httpOnly := newFakeBackend(t, "b")
	cfg := Config{
		Backends:     []string{fw.ts.URL, httpOnly.ts.URL},
		WireBackends: []string{fw.wireAddr(), ""},
		JitterSeed:   1,
		Sleep:        func(time.Duration) {},
	}
	cfg.ProbeInterval = -1
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)

	req := routeWireRequest(t)
	for i := 0; i < 6; i++ {
		if _, err := cl.Detect(context.Background(), req); err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
	}
	if hits := fw.wireHits.Load(); hits != 6 {
		t.Errorf("wire backend answered %d, want 6", hits)
	}
	if hits := httpOnly.hits.Load(); hits != 0 {
		t.Errorf("HTTP-only backend saw %d binary relays, want 0", hits)
	}
}

// TestWirePickLeavesHTTPOnlyProbe: an HTTP-only backend whose breaker
// cooldown has elapsed is never picked for a wire relay — its
// eligibility is settled before its breaker is asked, so no wire relay
// claims the half-open probe and leaves it unresolved — and the probe
// is still there for the next HTTP request, which heals the breaker.
func TestWirePickLeavesHTTPOnlyProbe(t *testing.T) {
	fw := newFakeWireBackend(t, "a")
	httpOnly := newFakeBackend(t, "b")
	clock := time.Unix(0, 0)
	rt := newWireRouter(t, Config{
		Backends:     []string{fw.ts.URL, httpOnly.ts.URL},
		WireBackends: []string{fw.wireAddr(), ""},
		Breaker: core.BreakerConfig{
			Threshold: 1,
			Cooldown:  time.Minute,
			Now:       func() time.Time { return clock },
		},
	})
	b := rt.backends[1]
	b.breaker.Failure() // threshold 1: trips open
	clock = clock.Add(time.Minute)

	for i := 0; i < 4; i++ {
		picked, probe := rt.pick(map[*backend]bool{}, (*backend).speaksWire)
		if picked != rt.backends[0] || probe {
			t.Fatalf("wire pick %d = %v probe=%v, want the wire backend, no probe", i, picked, probe)
		}
	}
	addr, _ := startRouterWire(t, rt)
	cl := dialRouter(t, addr)
	for i := 0; i < 4; i++ {
		if _, err := cl.Detect(context.Background(), routeWireRequest(t)); err != nil {
			t.Fatalf("wire detect %d: %v", i, err)
		}
	}
	if st := b.breaker.State(); st != core.BreakerOpen {
		t.Fatalf("HTTP-only breaker = %v after wire relays, want open with its probe unclaimed", st)
	}

	if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
		t.Fatalf("HTTP detect = %d %s", rec.Code, rec.Body)
	}
	if hits := httpOnly.hits.Load(); hits != 1 {
		t.Errorf("HTTP-only backend answered %d requests, want the 1 probe", hits)
	}
	if st := b.breaker.State(); st != core.BreakerClosed {
		t.Errorf("HTTP-only breaker = %v after the HTTP probe, want closed", st)
	}
}
