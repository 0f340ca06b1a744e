package route

// Tests for the router's tenant awareness: identity and class headers
// relayed verbatim, class-keyed partial-brownout shedding on both
// transports, and the STREAM rejection.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shmd/internal/wire"
)

// TestForwardTenantHeaders pins the relay contract: the backend sees
// the client's X-Tenant and X-Tenant-Class exactly as sent — the
// router never rewrites identity — while unlisted headers are dropped.
func TestForwardTenantHeaders(t *testing.T) {
	var got http.Header
	bk := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		got = r.Header.Clone()
		w.WriteHeader(http.StatusOK)
	}))
	defer bk.Close()
	rt, err := New(Config{Backends: []string{bk.URL}, ProbeInterval: -1, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader("{}"))
	req.Header.Set("X-Tenant", "acme-corp")
	req.Header.Set("X-Tenant-Class", "realtime")
	req.Header.Set("X-Internal-Secret", "nope")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if v := got.Get("X-Tenant"); v != "acme-corp" {
		t.Errorf("backend saw X-Tenant %q, want acme-corp", v)
	}
	if v := got.Get("X-Tenant-Class"); v != "realtime" {
		t.Errorf("backend saw X-Tenant-Class %q, want realtime", v)
	}
	if v := got.Get("X-Internal-Secret"); v != "" {
		t.Errorf("unlisted header leaked to backend: %q", v)
	}
}

// TestBrownoutClassShed pins the partial-brownout ladder: with half
// the fleet unroutable, batch traffic sheds 429 with Retry-After while
// standard and realtime still route; once the fleet recovers past the
// hysteresis margin, batch flows again.
func TestBrownoutClassShed(t *testing.T) {
	fb1 := newFakeBackend(t, "b1")
	fb2 := newFakeBackend(t, "b2")
	rt := newTestRouter(t, Config{}, fb1, fb2)

	fb2.ready.Store(false)
	rt.ProbeOnce(context.Background())

	post := func(class string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader("{}"))
		if class != "" {
			req.Header.Set("X-Tenant-Class", class)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := post("batch")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch under half-brownout: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("class shed missing Retry-After")
	}
	for _, class := range []string{"standard", "realtime", "", "not-a-class"} {
		if rec := post(class); rec.Code != http.StatusOK {
			t.Fatalf("class %q under half-brownout: status %d, want 200", class, rec.Code)
		}
	}
	if n := rt.Metrics().ClassSheds.With("batch").Value(); n != 1 {
		t.Errorf("batch class sheds = %d, want 1", n)
	}

	// Recovery: load falls to 0, under MinLoad-hysteresis, the rule
	// disengages and batch routes again.
	fb2.ready.Store(true)
	rt.ProbeOnce(context.Background())
	if rec := post("batch"); rec.Code != http.StatusOK {
		t.Fatalf("batch after recovery: status %d, want 200", rec.Code)
	}
}

// TestWireClassShedAndStreamReject pins the wire twin: a client HELLO
// latches the class advisory, DETECTs from a shed class answer 429
// ERROR frames under partial brownout, and STREAM frames are refused
// with a typed error pointing the client at a backend.
func TestWireClassShedAndStreamReject(t *testing.T) {
	fw1 := newFakeWireBackend(t, "w1")
	fw2 := newFakeWireBackend(t, "w2")
	rt := newWireRouter(t, Config{}, fw1, fw2)
	addr, _ := startRouterWire(t, rt)

	c, err := wire.Dial(addr, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if f, err := c.ReadFrame(); err != nil || f.Type != wire.FrameHello {
		t.Fatalf("server HELLO = %v, %v", f.Type, err)
	}
	hello := wire.AppendHello(nil, wire.Hello{
		Version:  wire.ProtoVersion,
		MaxFrame: uint32(wire.DefaultMaxFramePayload),
		Meta:     map[string]string{wire.MetaClass: "batch"},
	})
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}

	// STREAM is refused regardless of fleet health.
	sreq, err := wire.AppendStreamRequest(nil, wire.StreamRequest{StreamID: 1, ID: "cam", Windows: nil, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameStream, Corr: 1, Payload: sreq}); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || f.Corr != 1 {
		t.Fatalf("STREAM reply = %v corr %d, want ERROR corr 1", f.Type, f.Corr)
	}
	e, err := wire.DecodeErrorFrame(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeBadRequest || !strings.Contains(e.Msg, "backend") {
		t.Fatalf("STREAM rejection = %d %q, want 400 pointing at a backend", e.Code, e.Msg)
	}

	// Half the fleet down: this connection advertised batch, so its
	// DETECTs shed before any dispatch.
	fw2.ready.Store(false)
	rt.ProbeOnce(context.Background())
	payload, err := wire.AppendDetectRequest(nil, routeWireRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if f, err = c.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || f.Corr != 2 {
		t.Fatalf("batch DETECT reply = %v corr %d, want ERROR corr 2", f.Type, f.Corr)
	}
	if e, err = wire.DecodeErrorFrame(f.Payload); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeOverloaded || !strings.Contains(e.Msg, "batch") {
		t.Fatalf("batch shed = %d %q, want 429 naming the class", e.Code, e.Msg)
	}
	if hits := fw1.wireHits.Load() + fw2.wireHits.Load(); hits != 0 {
		t.Errorf("shed DETECT reached a backend (%d hits)", hits)
	}
}
