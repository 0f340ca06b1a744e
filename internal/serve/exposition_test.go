package serve

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"shmd/internal/replay"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite the testdata/*.prom golden expositions")

// exposition is one parsed Prometheus text scrape: family headers and
// sample values keyed by series (name plus its raw label set).
type exposition struct {
	help, typ map[string]string
	samples   map[string]string
}

// parseExposition reads a scrape strictly: every sample must follow
// its family's HELP and TYPE lines, and no series may appear twice.
func parseExposition(t *testing.T, body string) exposition {
	t.Helper()
	e := exposition{help: map[string]string{}, typ: map[string]string{}, samples: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			e.help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, ok := e.help[name]; !ok {
				t.Errorf("TYPE before HELP for %s", name)
			}
			e.typ[name] = typ
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, value := line[:cut], line[cut+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("sample %q: value %q: %v", series, value, err)
		}
		if _, dup := e.samples[series]; dup {
			t.Errorf("series %s appears twice", series)
		}
		if _, ok := e.typ[e.family(series)]; !ok {
			t.Errorf("sample %s precedes its family's TYPE line", series)
		}
		e.samples[series] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// family names the metric family a series belongs to: histogram
// _bucket/_sum/_count series fold into their histogram.
func (e exposition) family(series string) string {
	name, _, _ := strings.Cut(series, "{")
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && e.typ[base] == "histogram" {
			return base
		}
	}
	return name
}

// sampled lists the families that carry at least one sample.
func (e exposition) sampled() map[string]bool {
	out := map[string]bool{}
	for series := range e.samples {
		out[e.family(series)] = true
	}
	return out
}

// compareExposition checks a live scrape against the golden file: the
// same series, the same values (except where volatile says the value
// depends on timing), and the same HELP and TYPE text for every family
// with samples. A family with no samples may come or go, and a counter
// family the golden scrape hid at zero may show its zero.
func compareExposition(t *testing.T, golden string, body string, volatile func(series string) bool) {
	t.Helper()
	if *updateExposition {
		if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-exposition to create it)", err)
	}
	want, got := parseExposition(t, string(raw)), parseExposition(t, body)
	for fam := range want.sampled() {
		if !got.sampled()[fam] {
			t.Errorf("family %s lost its samples", fam)
			continue
		}
		if got.help[fam] != want.help[fam] || got.typ[fam] != want.typ[fam] {
			t.Errorf("family %s header = (%q, %s), want (%q, %s)", fam, got.help[fam], got.typ[fam], want.help[fam], want.typ[fam])
		}
	}
	// A counter family the golden scrape hid at zero may show its zero.
	shownZero := func(series string) bool {
		fam := got.family(series)
		return !want.sampled()[fam] && got.typ[fam] == "counter" && got.samples[series] == "0"
	}
	for fam := range got.sampled() {
		if !want.sampled()[fam] && got.typ[fam] != "counter" {
			t.Errorf("unexpected family %s", fam)
		}
	}
	var missing, extra []string
	for series, wv := range want.samples {
		gv, ok := got.samples[series]
		if !ok {
			missing = append(missing, series)
			continue
		}
		if volatile(series) {
			continue
		}
		w, _ := strconv.ParseFloat(wv, 64)
		g, _ := strconv.ParseFloat(gv, 64)
		if w != g {
			t.Errorf("%s = %s, want %s", series, gv, wv)
		}
	}
	for series := range got.samples {
		if _, ok := want.samples[series]; !ok && !shownZero(series) {
			extra = append(extra, series)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, s := range missing {
		t.Errorf("missing series %s", s)
	}
	for _, s := range extra {
		t.Errorf("unexpected series %s", s)
	}
}

// timingVolatile marks the series whose values depend on wall-clock
// time: the buckets and sums of the seconds histograms. Their _count
// series stay exact.
func timingVolatile(series string) bool {
	name, _, _ := strings.Cut(series, "{")
	return strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_seconds_sum")
}

// metricsText renders the metrics without an HTTP request, so polling
// them leaves the request counters as they are.
func metricsText(srv *Server) string {
	var b bytes.Buffer
	srv.Metrics().Write(&b)
	return b.String()
}

// scrapeHandler renders /metrics straight off the handler.
func scrapeHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// postExpect posts one detect with optional tenant and deadline
// headers and checks the status code.
func postExpect(t *testing.T, ts *httptest.Server, tenantID, deadline string, body []byte, want int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenantID != "" {
		req.Header.Set(tenantHeader, tenantID)
	}
	if deadline != "" {
		req.Header.Set(deadlineHeader, deadline)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("tenant %q: status %d (%s), want %d", tenantID, resp.StatusCode, buf.Bytes(), want)
	}
}

// wireExchange speaks one raw SHMDWIRE session: a HELLO naming the
// tenant, one DETECT, one unknown frame and one PING. The connection
// stays open; the caller's listener drain sends it GOAWAY.
func wireExchange(t *testing.T, addr, tenantID string, req wire.DetectRequest) {
	t.Helper()
	c := wireDial(t, addr)
	hello := wire.Hello{Version: wire.ProtoVersion, MaxFrame: wire.DefaultMaxFramePayload}
	if tenantID != "" {
		hello.Meta = map[string]string{wire.MetaTenant: tenantID}
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameHello, Payload: wire.AppendHello(nil, hello)}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendDetectRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameDetect, Corr: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != wire.FrameVerdict {
		t.Fatalf("wire detect reply = %v, %v; want VERDICT", f.Type, err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FrameType(0x7F), Corr: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(wire.Frame{Type: wire.FramePing, Corr: 3}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != wire.FramePong {
		t.Fatalf("wire ping reply = %v, %v; want PONG", f.Type, err)
	}
}

// TestGoldenExposition drives fixed event sequences through real
// servers and compares each /metrics scrape with a committed golden
// exposition under testdata/.
func TestGoldenExposition(t *testing.T) {
	t.Run("scalar", goldenScalar)
	t.Run("batched", goldenBatched)
	t.Run("hedged", goldenHedged)
}

// goldenScalar covers batches of one (MaxBatch 0) with tenancy on:
// every status code family, the tenant cap, each shed reason, the
// per-class wait from enqueue to bind, SHMDWIRE traffic, two served
// model versions, each rollout outcome, and the trace counters.
func goldenScalar(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1700000000, 0)}
	sink, err := replay.OpenSink(filepath.Join(t.TempDir(), "decisions.trace"), 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{
		Pool:       PoolConfig{Size: 3, ModelVersion: 1},
		QueueDepth: 1,
		JitterSeed: 1,
		Trace:      sink,
		Tenancy: &tenant.Config{
			Tenants: []tenant.Spec{
				{ID: "metered", Class: tenant.Realtime, Rate: 1, Burst: 1},
				{ID: "capped", Class: tenant.Standard, MaxInFlight: 1},
				{ID: "vip", Class: tenant.Realtime},
			},
			Default: &tenant.Spec{Class: tenant.Batch},
			Now:     frozenClock(),
		},
		Rollout: RolloutConfig{Window: 16, MinCanary: 4, MinCanaryTime: time.Hour, Now: clock.Now},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr, stopWire := startWireServer(t, srv)
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))

	// Rate and unknown-tenant sheds, bad requests.
	postExpect(t, ts, "metered", "", body, http.StatusOK)
	postExpect(t, ts, "metered", "", body, http.StatusTooManyRequests)
	postExpect(t, ts, "", "", body, http.StatusForbidden)
	postExpect(t, ts, "vip", "", []byte("{not json"), http.StatusBadRequest)
	resp, err := ts.Client().Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Concurrency shed and deadline expiry behind a fully held pool.
	var held []*Slot
	for i := 0; i < srv.Pool().Size(); i++ {
		slot, err := srv.Pool().Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, slot)
	}
	// The deadline expires while no other lane is pending, so its
	// flusher stops unused; were the capped lane pending too, which of
	// the two flushers serves it, and so its flush reason, would be a
	// race.
	postExpect(t, ts, "vip", "20", body, http.StatusServiceUnavailable)
	first := make(chan struct{})
	go func() {
		defer close(first)
		postExpect(t, ts, "capped", "", body, http.StatusOK)
	}()
	// With every slot held, the admitted request is still in flight.
	waitFor(t, 5*time.Second, "capped tenant in flight", func() bool {
		return strings.Contains(metricsText(srv), `shmd_tenant_accepted_total{tenant="capped",class="standard"} 1`)
	})
	postExpect(t, ts, "capped", "", body, http.StatusTooManyRequests)
	for _, slot := range held {
		srv.Pool().Release(slot)
	}
	<-first

	// 70 auto-registered tenants cross the 64-series cap.
	for i := 0; i < 70; i++ {
		postExpect(t, ts, "t-"+strconv.Itoa(100+i), "", body, http.StatusOK)
	}

	// Pressure and flat-queue sheds at full admission load.
	for i := 0; i < cap(srv.queue); i++ {
		srv.queue <- struct{}{}
	}
	postExpect(t, ts, "t-100", "", body, http.StatusTooManyRequests)
	postExpect(t, ts, "newcomer", "", body, http.StatusTooManyRequests)
	postExpect(t, ts, "vip", "", body, http.StatusTooManyRequests)
	for i := 0; i < cap(srv.queue); i++ {
		<-srv.queue
	}

	wireExchange(t, addr, "vip", wireDetectRequest(testWindows(t, trace.Benign, 1, 4)))

	// v2 canaries and promotes; traffic then decides on v2.
	ro := srv.Rollout()
	agree := func(a, b uint32, n int) {
		for i := 0; i < n; i++ {
			ro.Observe(b, false, 0.9)
			ro.Observe(a, false, 0.9)
		}
	}
	drift := func(a, b uint32, n int) {
		for i := 0; i < n; i++ {
			ro.Observe(a, false, 0.9)
			ro.Observe(b, true, 0.9)
		}
	}
	for v := uint32(2); v <= 4; v++ {
		if err := srv.Pool().RegisterModel(v, testHMDSeed(t, 7+uint64(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ro.Begin(2); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 2)
	agree(1, 2, 30)
	clock.Advance(2 * time.Hour)
	agree(1, 2, 1)
	waitRollout(t, "promotion", func() bool { st := ro.Status(); return st.Phase == "idle" && st.Promoted == 1 })
	postExpect(t, ts, "vip", "", detectBody(t, testWindows(t, trace.Trojan, 2, 4), testWindows(t, trace.Benign, 2, 4)), http.StatusOK)

	// v3 drifts and rolls back.
	if err := ro.Begin(3); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 3)
	drift(2, 3, 16)
	waitRollout(t, "rollback", func() bool { st := ro.Status(); return st.Phase == "idle" && st.RolledBack == 1 })

	// v4 is still canarying when the pool closes: its rollback aborts.
	if err := ro.Begin(4); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 4)
	stopWire()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	drift(2, 4, 16)
	waitRollout(t, "abort", func() bool { st := ro.Status(); return st.Phase == "idle" && st.Aborted == 1 })
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	compareExposition(t, filepath.Join("testdata", "exposition_scalar.prom"), scrapeHandler(t, srv.Handler()), timingVolatile)
}

// goldenBatched covers the micro-batcher's flush counter and the
// batch-size and batch-wait histograms, over HTTP and SHMDWIRE.
func goldenBatched(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 2}, MaxBatch: 4, JitterSeed: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr, stopWire := startWireServer(t, srv)

	for n := 1; n <= 3; n++ {
		var traces [][]trace.WindowCounts
		for i := 0; i < n; i++ {
			traces = append(traces, testWindows(t, trace.Trojan, n*10+i, 4))
		}
		postExpect(t, ts, "", "", detectBody(t, traces...), http.StatusOK)
	}
	wireExchange(t, addr, "", wireDetectRequest(testWindows(t, trace.Benign, 5, 4), testWindows(t, trace.Benign, 6, 4)))
	stopWire()

	compareExposition(t, filepath.Join("testdata", "exposition_batched.prom"), scrapeHandler(t, srv.Handler()), timingVolatile)
}

// goldenHedged covers the hedge counters. Which runner wins, and so
// which session serves, is a race; only the series set and the
// request counts are pinned.
func goldenHedged(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 2}, HedgeAfter: time.Nanosecond, JitterSeed: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))
	for i := 0; i < 4; i++ {
		postExpect(t, ts, "", "", body, http.StatusOK)
	}
	volatile := func(series string) bool {
		name, _, _ := strings.Cut(series, "{")
		return timingVolatile(series) || strings.HasPrefix(name, "shmd_hedge") ||
			strings.HasPrefix(name, "shmd_session_") || strings.HasPrefix(name, "shmd_model_decisions") ||
			name == "shmd_decisions_total" || name == "shmd_unprotected_decisions_total"
	}
	compareExposition(t, filepath.Join("testdata", "exposition_hedged.prom"), scrapeHandler(t, srv.Handler()), volatile)
}
