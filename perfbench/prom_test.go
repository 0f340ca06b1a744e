package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shmd/internal/dataset"
	"shmd/internal/hmd"
	"shmd/internal/serve"
	"shmd/internal/tenant"
)

func TestParseProm(t *testing.T) {
	text := `# HELP x_total A counter.
# TYPE x_total counter
x_total{code="200"} 7
x_total{code="429"} 2
lat_seconds_bucket{le="0.001"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 0.01
lat_seconds_count 4
gauge{session="0"} -1
gauge{session="1"} 0.1
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("x_total"); got != 9 {
		t.Errorf("sum x_total = %v, want 9", got)
	}
	if got := p.histMean("lat_seconds"); got != 0.0025 {
		t.Errorf("histMean = %v, want 0.0025", got)
	}
	if got := p.gaugeMean("gauge"); got != 0.1 {
		t.Errorf("gaugeMean skipping the -1 sentinel = %v, want 0.1", got)
	}
	before := promSample{`x_total{code="200"}`: 5}
	if got := p.delta(before).sum("x_total"); got != 4 {
		t.Errorf("delta sum = %v, want 4 (series new since before count whole)", got)
	}
	if _, err := parseProm(strings.NewReader("x_total seven\n")); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

var (
	fixtureOnce sync.Once
	fixture     *corpus
	fixtureErr  error
)

// testCorpus is a small corpus with a briefly trained model: enough for
// a real server to return real verdicts.
func testCorpus(t *testing.T) *corpus {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := dataset.QuickConfig(7)
		cfg.MalwarePerFamily, cfg.BenignCount = 6, 6
		data, err := dataset.Generate(cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		split, err := data.ThreeFold(0)
		if err != nil {
			fixtureErr = err
			return
		}
		base, err := hmd.Train(data.Select(split.VictimTrain), hmd.Config{Epochs: 2, Seed: 7})
		if err != nil {
			fixtureErr = err
			return
		}
		c := &corpus{seed: 7, test: data.Select(split.Test), base: base}
		for i, p := range c.test {
			c.items = append(c.items, item{id: "t" + string(rune('a'+i)), windows: p.Windows, malware: p.IsMalware()})
		}
		c.nTest = len(c.items)
		fixture = c
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// TestMetricsDeltaAgainstLiveServer drives a real in-process server
// and checks that the /metrics deltas the benchmark derives its
// per-layer counts from agree with what the client saw.
func TestMetricsDeltaAgainstLiveServer(t *testing.T) {
	c := testCorpus(t)
	srv, err := serve.New(c.base, serve.Config{
		Pool:         serve.PoolConfig{Size: 2, ErrorRate: operatingRate, Seed: 3},
		MaxBatch:     4,
		MaxBatchWait: 200 * time.Microsecond,
		JitterSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	scrape := func() promSample {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		p, err := parseProm(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	before := scrape()
	const requests = 6
	programs, clientNS := 0, time.Duration(0)
	for i := 0; i < requests; i++ {
		var req serve.DetectRequest
		for j := 0; j <= i%3; j++ {
			it := c.items[(i+j)%len(c.items)]
			req.Programs = append(req.Programs, serve.ProgramJSON{ID: it.id, Windows: serve.EncodeWindows(it.windows)})
		}
		programs += len(req.Programs)
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body)))
		clientNS += time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("detect status %d: %s", rec.Code, rec.Body.String())
		}
	}
	d := scrape().delta(before)

	// A scrape counts itself before rendering, so the delta also holds
	// the second scrape.
	if got := d[`shmd_requests_total{code="200"}`]; got != requests+1 {
		t.Errorf("requests delta %v, want %d", got, requests+1)
	}
	if got := d.sum("shmd_decisions_total"); got != float64(programs) {
		t.Errorf("decisions delta %v, want %d", got, programs)
	}
	if got := d.sum("shmd_detect_duration_seconds_count"); got != requests {
		t.Errorf("detect histogram count delta %v, want %d", got, requests)
	}
	// The server's handling time sits inside the client's.
	if mean := d.histMean("shmd_detect_duration_seconds"); mean <= 0 || mean > clientNS.Seconds()/requests {
		t.Errorf("mean detect duration %vs, client mean %vs", mean, clientNS.Seconds()/requests)
	}
	// Every program went through exactly one lane of one batch.
	if got := d.sum("shmd_batch_size_sum"); got != float64(programs) {
		t.Errorf("batch lanes delta %v, want %d", got, programs)
	}
	if fill := d.histMean("shmd_batch_size") / 4; fill <= 0 || fill > 1 {
		t.Errorf("batch fill %v outside (0, 1]", fill)
	}
	if got := d.sum("shmd_batch_wait_seconds_count"); got != float64(programs) {
		t.Errorf("batch wait observations %v, want one per lane (%d)", got, programs)
	}
}

// TestCheckVerdicts exercises reply validation on real verdicts.
func TestCheckVerdicts(t *testing.T) {
	c := testCorpus(t)
	threshold := c.base.Config().Threshold
	good := func() []result {
		it := c.items[0]
		score := threshold + 0.1
		return []result{{id: it.id, malware: true, score: score, windows: len(it.windows), attempts: 1,
			confidence: serve.Confidence(score, threshold, true)}}
	}
	tl := &tally{}
	if _, err := tl.checkVerdicts(c, []int{0}, good(), true); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	bad := map[string]func(r []result) []result{
		"wrong id":         func(r []result) []result { r[0].id = "x"; return r },
		"wrong windows":    func(r []result) []result { r[0].windows++; return r },
		"wrong decision":   func(r []result) []result { r[0].malware = false; return r },
		"wrong confidence": func(r []result) []result { r[0].confidence += 0.01; return r },
		"missing result":   func(r []result) []result { return r[:0] },
	}
	for name, mutate := range bad {
		if _, err := tl.checkVerdicts(c, []int{0}, mutate(good()), true); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if tl.invalid != int64(len(bad)) || tl.verdicts != 1 {
		t.Errorf("invalid=%d verdicts=%d, want %d and 1", tl.invalid, tl.verdicts, len(bad))
	}
}

// TestHTTPDriverKeepsConnections checks that the HTTP driver's senders
// each hold one keep-alive connection across requests and phases, and
// dial afresh after the connections are closed.
func TestHTTPDriverKeepsConnections(t *testing.T) {
	c := testCorpus(t)
	srv, err := startServer(c.base, serve.Config{
		Pool:            serve.PoolConfig{Size: 2, ErrorRate: operatingRate, Seed: 3},
		ShutdownTimeout: 5 * time.Second,
		JitterSeed:      1,
		Tenancy:         &tenant.Config{Tenants: httpTenants},
	}, false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	d := newHTTPDriver(c, makeMix(c, 1), &tally{}, srv.httpAddr)
	defer d.close()
	local := func() map[string]bool {
		out := map[string]bool{}
		for i := 0; i < httpSenders; i++ {
			hc := <-d.conns
			if hc.c != nil {
				out[hc.c.LocalAddr().String()] = true
			}
			defer func() { d.conns <- hc }()
		}
		return out
	}
	phase := func() {
		t.Helper()
		st := closedLoop(realClock{}, 50*time.Millisecond, httpSenders, sloLimit, d.call)
		if st.ok == 0 || st.failed != 0 {
			t.Fatalf("closed loop: ok=%d failed=%d", st.ok, st.failed)
		}
	}
	phase()
	first := local()
	if len(first) == 0 || len(first) > httpSenders {
		t.Fatalf("%d connections after the first phase, want 1 to %d", len(first), httpSenders)
	}
	phase()
	for a := range local() {
		if !first[a] {
			t.Errorf("connection %s opened after the first phase; keep-alive was not kept", a)
		}
	}
	d.close()
	if _, err := d.call(0); err != nil {
		t.Errorf("request after close: %v", err)
	}
}
