package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shmd/internal/core"
)

// fakeBackend is one scriptable detection backend: an httptest server
// whose /v1/detect behavior and /readyz verdict tests flip at will.
type fakeBackend struct {
	ts *httptest.Server
	// status is the /v1/detect reply code (200 = echo a verdict).
	status atomic.Int64
	// ready is the /readyz verdict.
	ready atomic.Bool
	// delay stalls /v1/detect to simulate a slow backend.
	delay atomic.Int64 // nanoseconds
	// replySize, when >0, makes /v1/detect answer 200 with a body of
	// exactly this many bytes (exercises the router's relay cap).
	replySize atomic.Int64
	// hits counts /v1/detect requests served.
	hits atomic.Int64
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	fb.status.Store(http.StatusOK)
	fb.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", func(w http.ResponseWriter, r *http.Request) {
		fb.hits.Add(1)
		if d := fb.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		code := int(fb.status.Load())
		if code != http.StatusOK {
			http.Error(w, "scripted failure", code)
			return
		}
		if n := fb.replySize.Load(); n > 0 {
			w.Header().Set("Content-Type", "application/json")
			w.Write(bytes.Repeat([]byte("x"), int(n)))
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q,"echo":%d}`, name, len(body))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !fb.ready.Load() {
			http.Error(w, `{"ready":false}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"ready":true}`)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) host() string {
	u, _ := url.Parse(fb.ts.URL)
	return u.Host
}

// newTestRouter builds a router over the given backends with fast,
// deterministic settings: pinned jitter seed, no retry sleeps, no
// background prober.
func newTestRouter(t *testing.T, cfg Config, backends ...*fakeBackend) *Router {
	t.Helper()
	for _, fb := range backends {
		cfg.Backends = append(cfg.Backends, fb.ts.URL)
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

// postDetect drives the router handler directly.
func postDetect(t *testing.T, rt *Router, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New(Config{Backends: []string{"not a url", ""}}); err == nil {
		t.Error("relative backend URL accepted")
	}
	if _, err := New(Config{Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:1"}}); err == nil {
		t.Error("duplicate backend accepted")
	}
}

// TestProxyHappyPath checks the full relay: body forwarded, reply
// status/type/body relayed, backend identity exposed.
func TestProxyHappyPath(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	rt := newTestRouter(t, Config{}, fb)
	rec := postDetect(t, rt, `{"programs":[]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var reply struct {
		Backend string `json:"backend"`
		Echo    int    `json:"echo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Backend != "b0" || reply.Echo != len(`{"programs":[]}`) {
		t.Errorf("reply = %+v", reply)
	}
	if got := rec.Header().Get("X-Shmd-Backend"); got != fb.host() {
		t.Errorf("X-Shmd-Backend = %q, want %q", got, fb.host())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/detect", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/detect = %d, want 405", rec.Code)
	}
}

// TestPickLoadAware pins the dispatch invariant: between two routable
// backends, the one with fewer outstanding requests wins.
func TestPickLoadAware(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	rt := newTestRouter(t, Config{}, b0, b1)
	rt.backends[0].inflight.Store(5)
	for i := 0; i < 10; i++ {
		if got, _ := rt.pick(map[*backend]bool{}, nil); got != rt.backends[1] {
			t.Fatalf("pick chose the loaded backend (inflight 5 vs 0)")
		}
	}
	rt.backends[0].inflight.Store(0)
	rt.backends[1].inflight.Store(3)
	for i := 0; i < 10; i++ {
		if got, _ := rt.pick(map[*backend]bool{}, nil); got != rt.backends[0] {
			t.Fatalf("pick chose the loaded backend (inflight 0 vs 3)")
		}
	}
}

// TestPickPowerOfTwo checks the 3+ backend path: the pair is sampled
// randomly but the less-loaded of the sampled pair always wins, so the
// most loaded backend of three must receive a minority of picks.
func TestPickPowerOfTwo(t *testing.T) {
	b0, b1, b2 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
	rt := newTestRouter(t, Config{}, b0, b1, b2)
	rt.backends[0].inflight.Store(100)
	picks := map[string]int{}
	for i := 0; i < 300; i++ {
		b, _ := rt.pick(map[*backend]bool{}, nil)
		picks[b.name]++
	}
	// The loaded backend can only win when sampled against itself —
	// impossible with distinct indices — so it must never be picked.
	if picks[rt.backends[0].name] != 0 {
		t.Errorf("most-loaded backend picked %d times, want 0 (picks: %v)", picks[rt.backends[0].name], picks)
	}
	if picks[rt.backends[1].name] == 0 || picks[rt.backends[2].name] == 0 {
		t.Errorf("healthy backends starved: %v", picks)
	}
}

// TestPickExcludesTried: a hedge or retry never lands on a backend
// already holding the same request.
func TestPickExcludesTried(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	rt := newTestRouter(t, Config{}, b0, b1)
	tried := map[*backend]bool{rt.backends[0]: true}
	for i := 0; i < 10; i++ {
		if got, _ := rt.pick(tried, nil); got != rt.backends[1] {
			t.Fatal("pick returned a tried backend")
		}
	}
	tried[rt.backends[1]] = true
	if got, _ := rt.pick(tried, nil); got != nil {
		t.Error("pick invented a backend with all tried")
	}
}

// TestBreakerTripAndProbe drives a backend through failure → breaker
// open → half-open live probe → recovery, using an injected breaker
// clock for determinism.
func TestBreakerTripAndProbe(t *testing.T) {
	bad, good := newFakeBackend(t, "bad"), newFakeBackend(t, "good")
	bad.status.Store(http.StatusInternalServerError)
	clock := time.Unix(0, 0)
	rt := newTestRouter(t, Config{
		MaxRetries: 3,
		Breaker: core.BreakerConfig{
			Threshold: 2,
			Cooldown:  time.Minute,
			Now:       func() time.Time { return clock },
		},
	}, bad, good)

	// Each request that lands on `bad` fails and is retried onto
	// `good`; two such failures open bad's breaker.
	for i := 0; i < 8; i++ {
		if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if st := rt.backends[0].breaker.State(); st != core.BreakerOpen {
		t.Fatalf("bad backend breaker = %v, want open", st)
	}
	badHits := bad.hits.Load()

	// Breaker open: traffic flows to `good` only.
	for i := 0; i < 5; i++ {
		if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
			t.Fatalf("during open: %d", rec.Code)
		}
	}
	if got := bad.hits.Load(); got != badHits {
		t.Fatalf("open breaker leaked %d requests to bad backend", got-badHits)
	}

	// Cooldown elapses; the backend has healed. The next dispatch may
	// claim the half-open probe with live traffic and close the breaker.
	bad.status.Store(http.StatusOK)
	clock = clock.Add(time.Minute)
	for i := 0; i < 20 && rt.backends[0].breaker.State() != core.BreakerClosed; i++ {
		if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
			t.Fatalf("during half-open: %d", rec.Code)
		}
	}
	if st := rt.backends[0].breaker.State(); st != core.BreakerClosed {
		t.Fatalf("breaker = %v after healed probes, want closed", st)
	}
	if snap := rt.backends[0].breaker.Snapshot(); snap.Recoveries == 0 {
		t.Error("recovery not counted")
	}
}

// TestRetryOnConnectError: a dead backend (closed listener) is
// retried onto a live one; the client sees only the 200.
func TestRetryOnConnectError(t *testing.T) {
	dead, live := newFakeBackend(t, "dead"), newFakeBackend(t, "live")
	dead.ts.Close()
	rt := newTestRouter(t, Config{MaxRetries: 2}, dead, live)
	ok, retried := false, false
	for i := 0; i < 6; i++ {
		rec := postDetect(t, rt, `{}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		ok = true
	}
	retried = rt.metrics.Retries.Value() > 0
	if !ok || !retried {
		t.Errorf("ok=%v retries=%d, want success with retries recorded", ok, rt.metrics.Retries.Value())
	}
	if rt.backends[0].failures.Load() == 0 {
		t.Error("dead backend recorded no failures")
	}
}

// TestHedgeWinsOnSlowPrimary: the primary stalls past HedgeAfter, the
// hedge lands on the second backend, and its verdict is served first.
func TestHedgeWinsOnSlowPrimary(t *testing.T) {
	slow, fast := newFakeBackend(t, "slow"), newFakeBackend(t, "fast")
	slow.delay.Store(int64(2 * time.Second))
	fast.delay.Store(0)
	rt := newTestRouter(t, Config{HedgeAfter: 10 * time.Millisecond}, slow, fast)
	// Force the primary pick onto `slow` by loading `fast`.
	rt.backends[1].inflight.Add(10)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postDetect(t, rt, `{}`) }()
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(time.Second):
		t.Fatal("hedged request still waiting on the slow primary")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	var reply struct {
		Backend string `json:"backend"`
	}
	json.Unmarshal(rec.Body.Bytes(), &reply)
	if reply.Backend != "fast" {
		t.Errorf("verdict came from %q, want the hedge backend", reply.Backend)
	}
	if rt.metrics.Hedges.Value() != 1 || rt.metrics.HedgeWins.Value() != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", rt.metrics.Hedges.Value(), rt.metrics.HedgeWins.Value())
	}
}

// TestBrownout: every backend ejected → immediate 503 with a jittered
// Retry-After, and /healthz goes 503 with the fleet view.
func TestBrownout(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	b0.ready.Store(false)
	b1.ready.Store(false)
	rt := newTestRouter(t, Config{}, b0, b1)
	if up := rt.ProbeOnce(context.Background()); up != 0 {
		t.Fatalf("ProbeOnce = %d backends up, want 0", up)
	}
	if rt.metrics.Ejections.Value() != 2 {
		t.Errorf("ejections = %d, want 2", rt.metrics.Ejections.Value())
	}

	rec := postDetect(t, rt, `{}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("brownout status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("brownout 503 missing Retry-After")
	}
	if rt.metrics.Sheds.Value() == 0 {
		t.Error("shed not counted")
	}

	hrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d, want 503", hrec.Code)
	}
	var health RouteHealth
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "brownout" || len(health.Backends) != 2 {
		t.Errorf("health = %+v", health)
	}

	// One backend recovers: the next probe re-admits it and traffic
	// flows again.
	b1.ready.Store(true)
	if up := rt.ProbeOnce(context.Background()); up != 1 {
		t.Fatalf("ProbeOnce after recovery = %d, want 1", up)
	}
	if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
		t.Errorf("after recovery: %d %s", rec.Code, rec.Body)
	}
}

// TestMetricsEndpoint spot-checks the exposition format.
func TestMetricsEndpoint(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	rt := newTestRouter(t, Config{}, fb)
	postDetect(t, rt, `{}`)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	out := rec.Body.String()
	// Only the detect request counts; the scrape itself must not.
	for _, want := range []string{
		`shmd_route_requests_total{code="200"} 1`,
		fmt.Sprintf(`shmd_route_backend_up{backend="%s"} 1`, fb.host()),
		fmt.Sprintf(`shmd_route_backend_breaker_state{backend="%s"} 0`, fb.host()),
		fmt.Sprintf(`shmd_route_backend_requests_total{backend="%s"} 1`, fb.host()),
		"shmd_route_sheds_total 0",
		"shmd_route_ejections_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServeDrain: cancelling Serve's context flips /readyz to 503
// (draining) and refuses new detect traffic, while the listener drains.
func TestServeDrain(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	rt := newTestRouter(t, Config{ShutdownTimeout: 5 * time.Second}, fb)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ctx, ln) }()

	// The router answers while up.
	resp, err := http.Get("http://" + ln.Addr().String() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while up = %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Post-drain, the handler (still mountable) refuses work.
	rec := postDetect(t, rt, `{}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("detect after drain = %d, want 503", rec.Code)
	}
	rrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rrec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rrec.Code != http.StatusServiceUnavailable || !strings.Contains(rrec.Body.String(), "draining") {
		t.Errorf("readyz after drain = %d %s, want 503 draining", rrec.Code, rrec.Body)
	}
}

// TestBodyTooLarge: the router refuses to buffer an oversized body
// rather than streaming it through unreplayably.
func TestBodyTooLarge(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	rt := newTestRouter(t, Config{MaxBodyBytes: 64}, fb)
	rec := postDetect(t, rt, strings.Repeat("x", 65))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", rec.Code)
	}
	if fb.hits.Load() != 0 {
		t.Error("oversized body reached a backend")
	}
}

// TestHalfOpenProbeReleasedOnCancel: an attempt holding the half-open
// probe whose context dies (client disconnect, hedge loser) must hand
// the probe back. A leaked probe wedges the breaker half-open — Allow
// refuses forever — and the backend never serves again.
func TestHalfOpenProbeReleasedOnCancel(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	clock := time.Unix(0, 0)
	rt := newTestRouter(t, Config{
		Breaker: core.BreakerConfig{
			Threshold: 1,
			Cooldown:  time.Minute,
			Now:       func() time.Time { return clock },
		},
	}, fb)
	b := rt.backends[0]
	b.breaker.Failure() // threshold 1: trips open
	clock = clock.Add(time.Minute)

	picked, probe := rt.pick(map[*backend]bool{}, nil)
	if picked != b || !probe {
		t.Fatalf("pick = %v probe=%v, want the half-open probe claimed", picked, probe)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.forward(ctx, b, []byte(`{}`), http.Header{}, true); err == nil {
		t.Fatal("cancelled forward reported success")
	}
	snap := b.breaker.Snapshot()
	if snap.State != core.BreakerOpen {
		t.Fatalf("breaker = %v after abandoned probe, want open (released)", snap.State)
	}
	if snap.Reopens != 0 {
		t.Errorf("abandoned probe counted as a reopen (%d)", snap.Reopens)
	}
	if snap.Cooldown != time.Minute {
		t.Errorf("abandoned probe changed the cooldown to %v", snap.Cooldown)
	}

	// The backend re-earns traffic on the next cooldown: a fresh probe
	// is granted and the healed backend closes its breaker.
	clock = clock.Add(time.Minute)
	if rec := postDetect(t, rt, `{}`); rec.Code != http.StatusOK {
		t.Fatalf("post-release dispatch = %d, want 200", rec.Code)
	}
	if st := b.breaker.State(); st != core.BreakerClosed {
		t.Errorf("breaker = %v after healed probe, want closed", st)
	}
}

// TestOversizedReplyNotTruncated: a backend reply past MaxBodyBytes is
// a failed attempt — retried onto a fresh backend or surfaced as 502 —
// never truncated and relayed with the backend's 200.
func TestOversizedReplyNotTruncated(t *testing.T) {
	big := newFakeBackend(t, "big")
	big.replySize.Store(100)
	solo := newTestRouter(t, Config{MaxBodyBytes: 64}, big)
	if rec := postDetect(t, solo, `{}`); rec.Code != http.StatusBadGateway {
		t.Fatalf("oversized reply relayed as %d (body %d bytes), want 502", rec.Code, rec.Body.Len())
	}
	if solo.backends[0].failures.Load() == 0 {
		t.Error("oversized reply not counted as a backend failure")
	}

	// With a sane peer available, the retry lands there and the client
	// sees its complete reply.
	big2, sane := newFakeBackend(t, "big2"), newFakeBackend(t, "sane")
	big2.replySize.Store(100)
	rt := newTestRouter(t, Config{MaxBodyBytes: 64, MaxRetries: 1}, big2, sane)
	// Pin the primary pick onto the oversized backend.
	rt.backends[1].inflight.Add(10)
	rec := postDetect(t, rt, `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s, want 200 from the retry", rec.Code, rec.Body)
	}
	var reply struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("relayed body is not intact JSON: %v (%q)", err, rec.Body.String())
	}
	if reply.Backend != "sane" {
		t.Errorf("verdict came from %q, want the sane backend", reply.Backend)
	}
}

// TestServeLameDuck: after the serve context is cancelled the listener
// keeps answering for DrainDelay with /readyz at 503 — the upstream
// tier sees a drain signal, not connection resets.
func TestServeLameDuck(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	rt := newTestRouter(t, Config{
		DrainDelay:      400 * time.Millisecond,
		ShutdownTimeout: 5 * time.Second,
	}, fb)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while up = %d", resp.StatusCode)
	}

	cancel()
	saw503 := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener closed; the window is over
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !saw503 {
		t.Error("no 503 drain signal observed over the listener during the lame-duck window")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNon5xxRelayedVerbatim: a backend 429 (admission shed) is the
// backend reasoning, not failing — it relays to the client untouched
// and feeds the breaker a success.
func TestNon5xxRelayedVerbatim(t *testing.T) {
	fb := newFakeBackend(t, "b0")
	fb.status.Store(http.StatusTooManyRequests)
	rt := newTestRouter(t, Config{}, fb)
	rec := postDetect(t, rt, `{}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 relayed", rec.Code)
	}
	if st := rt.backends[0].breaker.State(); st != core.BreakerClosed {
		t.Errorf("breaker = %v after 429, want closed", st)
	}
}
