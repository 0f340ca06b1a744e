package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/trace"
)

// testHMD builds a deterministic untrained detector (seeded random
// weights): decisions are arbitrary but stable, which is all the
// service-layer tests need.
func testHMD(t testing.TB) *hmd.HMD {
	t.Helper()
	net, err := fann.New(fann.Config{
		Layers: []int{features.DimInstrFreq, 8, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hmd.FromNetwork(net, hmd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// testWindows synthesizes a deterministic program trace.
func testWindows(t testing.TB, cls trace.Class, index, n int) []trace.WindowCounts {
	t.Helper()
	prog, err := trace.NewProgram(cls, index, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := prog.Trace(n, 512)
	if err != nil {
		t.Fatal(err)
	}
	return windows
}

// detectBody marshals a batch request over the given traces.
func detectBody(t testing.TB, traces ...[]trace.WindowCounts) []byte {
	t.Helper()
	req := DetectRequest{}
	for i, tr := range traces {
		req.Programs = append(req.Programs, ProgramJSON{
			ID:      fmt.Sprintf("prog-%d", i),
			Windows: EncodeWindows(tr),
		})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestServer builds a server with a small pool.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Pool.Size == 0 {
		cfg.Pool.Size = 2
	}
	if cfg.Pool.ErrorRate == 0 && cfg.Pool.UndervoltMV == 0 {
		cfg.Pool.ErrorRate = 0.1
	}
	if cfg.Pool.Seed == 0 {
		cfg.Pool.Seed = 1
	}
	srv, err := New(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postDetect(t testing.TB, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestDetectBasic(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := detectBody(t,
		testWindows(t, trace.Trojan, 0, 8),
		testWindows(t, trace.Benign, 0, 8))
	resp, raw := postDetect(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	if len(dr.Results) != 2 {
		t.Fatalf("results = %d", len(dr.Results))
	}
	if dr.Session < 0 || dr.Session >= srv.Pool().Size() {
		t.Errorf("session = %d outside pool", dr.Session)
	}
	for i, r := range dr.Results {
		if r.ID != fmt.Sprintf("prog-%d", i) {
			t.Errorf("result %d id = %q", i, r.ID)
		}
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("result %d score = %v", i, r.Score)
		}
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("result %d confidence = %v", i, r.Confidence)
		}
		if r.Attempts < 1 {
			t.Errorf("result %d attempts = %d", i, r.Attempts)
		}
		if r.Windows != 8 {
			t.Errorf("result %d windows = %d", i, r.Windows)
		}
		if r.Unprotected {
			t.Errorf("result %d unprotected on ideal hardware", i)
		}
	}
	// The decision margin and the confidence must agree.
	for i, r := range dr.Results {
		want := Confidence(r.Score, 0.5, r.Malware)
		if r.Confidence != want {
			t.Errorf("result %d confidence %v, margin says %v", i, r.Confidence, want)
		}
	}
}

// TestDetectConcurrent hammers /v1/detect with 64 concurrent clients
// over a 4-session pool sized so none shed; every request must get a
// decision, the pool must never hand two requests the same session,
// and the counters must reconcile.
func TestDetectConcurrent(t *testing.T) {
	const clients, perClient = 64, 4
	srv := newTestServer(t, Config{
		Pool:       PoolConfig{Size: 4},
		QueueDepth: clients, // admit all 64 concurrent clients
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport = &http.Transport{MaxIdleConnsPerHost: clients}

	bodies := [][]byte{
		detectBody(t, testWindows(t, trace.Trojan, 1, 4)),
		detectBody(t, testWindows(t, trace.Benign, 1, 4)),
		detectBody(t, testWindows(t, trace.Worm, 2, 4), testWindows(t, trace.Backdoor, 3, 4)),
	}
	var wg sync.WaitGroup
	var ok, decisions atomic.Uint64
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := bodies[(c+i)%len(bodies)]
				resp, err := ts.Client().Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, raw)
					return
				}
				var dr DetectResponse
				if err := json.Unmarshal(raw, &dr); err != nil {
					errc <- err
					return
				}
				ok.Add(1)
				decisions.Add(uint64(len(dr.Results)))
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := ok.Load(); got != clients*perClient {
		t.Errorf("successful requests = %d, want %d", got, clients*perClient)
	}
	if got := srv.Pool().DoubleCheckouts(); got != 0 {
		t.Fatalf("pool handed out a session twice: %d violations", got)
	}

	// The supervisors' own counters must account for every decision.
	var served uint64
	for _, slot := range srv.Pool().Slots() {
		served += slot.Sup.Health().Detections
	}
	if served != decisions.Load() {
		t.Errorf("supervisors served %d detections, responses carried %d", served, decisions.Load())
	}
}

// TestBackpressure verifies overload sheds with 429 instead of growing
// the queue: with the single session held and the admission queue
// full, a new request is rejected immediately.
func TestBackpressure(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 1}, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only session so admitted requests queue.
	slot, err := srv.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 2))

	// Fill the admission queue (capacity pool+queue = 2).
	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{status: resp.StatusCode}
		}()
	}
	// Wait until both requests hold admission tokens.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued requests never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next request must shed with 429.
	resp, raw := postDetect(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// Release the session: the queued requests complete normally.
	srv.Pool().Release(slot)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Errorf("queued request status = %d", r.status)
		}
	}
	if srv.Metrics().QueueRejects.Value() == 0 {
		t.Error("queue reject not counted")
	}
}

// TestMalformedRequests exercises the rejection surface: every bad
// payload maps to its proper status code, none panic, none consume a
// detection.
func TestMalformedRequests(t *testing.T) {
	srv := newTestServer(t, Config{
		Limits: Limits{MaxBodyBytes: 64 << 10, MaxPrograms: 2, MaxWindows: 4},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	valid := testWindows(t, trace.Trojan, 0, 2)
	tooManyPrograms := detectBody(t, valid, valid, valid)
	tooManyWindows := detectBody(t, testWindows(t, trace.Trojan, 0, 5))

	shortOpcode := DetectRequest{Programs: []ProgramJSON{{Windows: []WindowJSON{{Opcode: []int{1, 2, 3}}}}}}
	shortOpcodeBody, _ := json.Marshal(shortOpcode)

	negCount := DetectRequest{Programs: []ProgramJSON{{Windows: EncodeWindows(valid)}}}
	negCount.Programs[0].Windows[0].Opcode[5] = -1
	negCountBody, _ := json.Marshal(negCount)

	badTaken := DetectRequest{Programs: []ProgramJSON{{Windows: EncodeWindows(valid)}}}
	badTaken.Programs[0].Windows[0].Taken = 1 << 29
	badTakenBody, _ := json.Marshal(badTaken)

	badStride := DetectRequest{Programs: []ProgramJSON{{Windows: EncodeWindows(valid)}}}
	badStride.Programs[0].Windows[0].Stride = []int{1, 2}
	badStrideBody, _ := json.Marshal(badStride)

	emptyWindow := DetectRequest{Programs: []ProgramJSON{{Windows: []WindowJSON{{Opcode: make([]int, features.DimInstrFreq)}}}}}
	emptyWindowBody, _ := json.Marshal(emptyWindow)

	oversized := append([]byte(`{"programs":[{"windows":[`), bytes.Repeat([]byte("0,"), 80<<10)...)

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"invalid JSON", []byte("{nope"), http.StatusBadRequest},
		{"wrong type", []byte(`{"programs": 3}`), http.StatusBadRequest},
		{"unknown field", []byte(`{"progams": []}`), http.StatusBadRequest},
		{"empty batch", []byte(`{"programs": []}`), http.StatusBadRequest},
		{"trailing garbage", append(detectBody(t, valid), []byte("{}")...), http.StatusBadRequest},
		{"no windows", []byte(`{"programs":[{"windows":[]}]}`), http.StatusBadRequest},
		{"too many programs", tooManyPrograms, http.StatusBadRequest},
		{"too many windows", tooManyWindows, http.StatusBadRequest},
		{"short opcode vector", shortOpcodeBody, http.StatusBadRequest},
		{"negative count", negCountBody, http.StatusBadRequest},
		{"taken exceeds branches", badTakenBody, http.StatusBadRequest},
		{"bad stride length", badStrideBody, http.StatusBadRequest},
		{"empty window", emptyWindowBody, http.StatusBadRequest},
		{"oversized body", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postDetect(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.want, raw)
			}
		})
	}

	// No rejected request reached a supervisor.
	for _, slot := range srv.Pool().Slots() {
		if n := slot.Sup.Health().Detections; n != 0 {
			t.Errorf("slot %d served %d detections from rejected requests", slot.ID, n)
		}
	}

	// Method checks.
	resp, err := ts.Client().Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/detect = %d", resp.StatusCode)
	}
	postResp, err := ts.Client().Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d", postResp.StatusCode)
	}
}

// TestDetectReadErrors pins the status and message of bodies whose
// read fails part-way: the body limit tripping (inside or after the
// JSON value) and a transport cut-off. The decoder buffers the body
// before parsing, so these are the cases where the read error, not
// the bytes, decides the reply.
func TestDetectReadErrors(t *testing.T) {
	const limit = 4 << 10
	srv := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: limit}})
	handler := srv.Handler()

	valid := detectBody(t, testWindows(t, trace.Trojan, 0, 1))
	if len(valid) >= limit {
		t.Fatalf("valid body %d bytes does not fit the %d-byte limit", len(valid), limit)
	}
	cutMidArray := `{"programs":[{"windows":[{"opcode":[1,2,`
	cases := []struct {
		name string
		body io.Reader
		want int
		msg  string
	}{
		{"over limit",
			bytes.NewReader(append([]byte(`{"programs":[{"windows":[`), bytes.Repeat([]byte("0,"), limit)...)),
			http.StatusRequestEntityTooLarge, "http: request body too large"},
		{"whitespace past limit after a valid object",
			bytes.NewReader(append(valid, bytes.Repeat([]byte(" "), limit)...)),
			http.StatusBadRequest, "request body holds more than one JSON value"},
		{"cut off mid-array",
			io.MultiReader(strings.NewReader(cutMidArray), iotest.ErrReader(io.ErrUnexpectedEOF)),
			http.StatusBadRequest, "unexpected EOF"},
		{"cut off after a valid object",
			io.MultiReader(bytes.NewReader(valid), iotest.ErrReader(io.ErrUnexpectedEOF)),
			http.StatusBadRequest, "request body holds more than one JSON value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", tc.body))
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body.Bytes())
			}
			if got := strings.TrimSpace(rec.Body.String()); got != tc.msg {
				t.Errorf("message = %q, want %q", got, tc.msg)
			}
		})
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 2}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Serve a little traffic first.
	for i := 0; i < 3; i++ {
		resp, raw := postDetect(t, ts, detectBody(t, testWindows(t, trace.Trojan, i, 4)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect status = %d (%s)", resp.StatusCode, raw)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d (%s)", resp.StatusCode, raw)
	}
	var hr HealthReport
	if err := json.Unmarshal(raw, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status = %q", hr.Status)
	}
	if len(hr.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(hr.Sessions))
	}
	var served uint64
	for _, s := range hr.Sessions {
		served += s.Detections
		if s.TargetRate != 0.1 {
			t.Errorf("session %d target rate = %v", s.Session, s.TargetRate)
		}
		if s.State != "healthy" && s.State != "retrying" {
			t.Errorf("session %d state = %q", s.Session, s.State)
		}
	}
	if served != 3 {
		t.Errorf("healthz sessions served %d detections, want 3", served)
	}

	mResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mRaw, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", mResp.StatusCode)
	}
	metrics := string(mRaw)
	for _, want := range []string{
		`shmd_requests_total{code="200"} 5`, // 3 detects + healthz + this scrape
		"shmd_pool_sessions 2",
		"shmd_pool_double_checkouts_total 0",
		`shmd_session_target_fault_rate{session="0"} 0.1`,
		`shmd_session_state{session="1"} `,
		"shmd_detect_duration_seconds_count 3",
		`shmd_detect_duration_seconds_bucket{le="+Inf"} 3`,
		"shmd_decisions_total{verdict=",
		"shmd_queue_rejects_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// Decisions by class reconcile with requests served.
	var malware, benign int
	fmt.Sscanf(findLine(metrics, `shmd_decisions_total{verdict="malware"}`), `shmd_decisions_total{verdict="malware"} %d`, &malware)
	fmt.Sscanf(findLine(metrics, `shmd_decisions_total{verdict="benign"}`), `shmd_decisions_total{verdict="benign"} %d`, &benign)
	if malware+benign != 3 {
		t.Errorf("decision counters %d+%d, want 3", malware, benign)
	}
}

// findLine returns the first metrics line with the given prefix.
func findLine(metrics, prefix string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestHealthzDegraded kills the pool's only regulator and verifies the
// request still gets a (flagged) decision while /healthz flips to 503
// and /metrics exposes the breaker trip.
func TestHealthzDegraded(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool: PoolConfig{Size: 1, ChaosConfig: &chaos.Config{Seed: 9}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	slot := srv.Pool().Slots()[0]
	env, ok := slot.Det.Regulator().(*chaos.Env)
	if !ok {
		t.Fatalf("slot regulator is %T, want *chaos.Env", slot.Det.Regulator())
	}
	if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err != nil {
		t.Fatal(err)
	}

	// Fail-safe availability: the decision still arrives, degraded.
	resp, raw := postDetect(t, ts, detectBody(t, testWindows(t, trace.Trojan, 0, 4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect on dead regulator = %d (%s)", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Results[0].Unprotected {
		t.Error("decision on dead regulator not flagged Unprotected")
	}

	hResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hRaw, _ := io.ReadAll(hResp.Body)
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz = %d (%s)", hResp.StatusCode, hRaw)
	}
	var hr HealthReport
	if err := json.Unmarshal(hRaw, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" {
		t.Errorf("status = %q", hr.Status)
	}
	if hr.Sessions[0].Trips == 0 {
		t.Error("breaker trip not reported")
	}
}

// TestGracefulShutdownDrains runs the real listener path: in-flight
// requests complete, the listener closes, and every voltage plane ends
// at nominal.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 1}, QueueDepth: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Hold the only session so a request is pinned in flight, then
	// start that request.
	slot, err := srv.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := detectBody(t, testWindows(t, trace.Worm, 0, 4))
	inflightDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			inflightDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			inflightDone <- fmt.Errorf("in-flight request status %d", resp.StatusCode)
			return
		}
		inflightDone <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.queue) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Begin shutdown while the request is in flight, then release the
	// session so it can finish.
	cancel()
	time.Sleep(10 * time.Millisecond)
	srv.Pool().Release(slot)

	if err := <-inflightDone; err != nil {
		t.Errorf("in-flight request during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}

	// The listener is closed and every plane sits at nominal voltage.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	for _, slot := range srv.Pool().Slots() {
		if !slot.Sup.Session().AtNominal() {
			t.Errorf("slot %d not at nominal voltage after shutdown", slot.ID)
		}
	}
	// The pool is closed: new work is refused.
	if _, err := srv.Pool().Acquire(context.Background()); err == nil {
		t.Error("pool still open after shutdown")
	}
}

// TestDrain covers the handler-level drain path tests and embedders
// use (no http.Server involved).
func TestDrain(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, raw := postDetect(t, ts, detectBody(t, testWindows(t, trace.Rogue, 0, 4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect = %d (%s)", resp.StatusCode, raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, slot := range srv.Pool().Slots() {
		if !slot.Sup.Session().AtNominal() {
			t.Errorf("slot %d not nominal after drain", slot.ID)
		}
	}
	// Post-drain requests are refused with 503, not served.
	resp2, raw2 := postDetect(t, ts, detectBody(t, testWindows(t, trace.Rogue, 0, 4)))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain detect = %d (%s)", resp2.StatusCode, raw2)
	}
}

func TestConfidence(t *testing.T) {
	cases := []struct {
		score, thr float64
		malware    bool
		want       float64
	}{
		{0.5, 0.5, true, 0},
		{1, 0.5, true, 1},
		{0, 0.5, false, 1},
		{0.75, 0.5, true, 0.5},
		{0.25, 0.5, false, 0.5},
		{0.4, 0.5, true, 0}, // inconsistent inputs clamp
		{0.95, 0.9, true, 0.5},
	}
	for _, tc := range cases {
		got := Confidence(tc.score, tc.thr, tc.malware)
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Confidence(%v, %v, %v) = %v, want %v", tc.score, tc.thr, tc.malware, got, tc.want)
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil base must be rejected")
	}
	if _, err := New(testHMD(t), Config{QueueDepth: -1}); err == nil {
		t.Error("negative queue depth must be rejected")
	}
	if _, err := NewPool(testHMD(t), PoolConfig{Size: -1}); err == nil {
		t.Error("negative pool size must be rejected")
	}
	if _, err := NewPool(nil, PoolConfig{}); err == nil {
		t.Error("nil base pool must be rejected")
	}
	// Mutually exclusive operating-point knobs surface core's error.
	if _, err := NewPool(testHMD(t), PoolConfig{ErrorRate: 0.1, UndervoltMV: 100}); err == nil {
		t.Error("both rate and depth must be rejected")
	}
}
