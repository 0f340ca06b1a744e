package route

import (
	"bufio"
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

	"shmd/internal/core"
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
		name, _, _ := strings.Cut(series, "{")
		if _, ok := e.typ[name]; !ok {
			t.Errorf("sample %s precedes its family's TYPE line", series)
		}
		e.samples[series] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// sampled lists the families that carry at least one sample.
func (e exposition) sampled() map[string]bool {
	out := map[string]bool{}
	for series := range e.samples {
		name, _, _ := strings.Cut(series, "{")
		out[name] = true
	}
	return out
}

// compareExposition checks a live scrape against the golden file: the
// same series, the same values, and the same HELP and TYPE text for
// every family with samples. A family with no samples may come or go.
func compareExposition(t *testing.T, golden, body string) {
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
		if got.help[fam] != want.help[fam] || got.typ[fam] != want.typ[fam] {
			t.Errorf("family %s header = (%q, %s), want (%q, %s)", fam, got.help[fam], got.typ[fam], want.help[fam], want.typ[fam])
		}
	}
	var diffs []string
	for series, wv := range want.samples {
		gv, ok := got.samples[series]
		if !ok {
			diffs = append(diffs, "missing series "+series)
			continue
		}
		w, _ := strconv.ParseFloat(wv, 64)
		g, _ := strconv.ParseFloat(gv, 64)
		if w != g {
			diffs = append(diffs, series+" = "+gv+", want "+wv)
		}
	}
	for series := range got.samples {
		if _, ok := want.samples[series]; !ok {
			diffs = append(diffs, "unexpected series "+series)
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
}

// scrapeRouter renders /metrics with each backend's host:port label
// replaced by a stable name, so the golden file does not depend on the
// ports the fake backends bound.
func scrapeRouter(t *testing.T, rt *Router, names map[*fakeBackend]string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for fb, name := range names {
		body = strings.ReplaceAll(body, `backend="`+fb.host()+`"`, `backend="`+name+`"`)
	}
	return body
}

// expectCode posts one detect, optionally with a class advisory, and
// checks the status code.
func expectCode(t *testing.T, rt *Router, class, body string, want int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body))
	if class != "" {
		req.Header.Set("X-Tenant-Class", class)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != want {
		t.Fatalf("class %q: status %d (%s), want %d", class, rec.Code, rec.Body, want)
	}
}

// TestGoldenExposition drives fixed event sequences through real
// routers and compares each /metrics scrape with a committed golden
// exposition under testdata/.
func TestGoldenExposition(t *testing.T) {
	t.Run("fleet", goldenFleet)
	t.Run("hedged", goldenHedged)
}

// goldenFleet covers status codes, retries, a breaker trip, a class
// shed, a probe ejection and a total-brownout shed. Dispatch is steered
// by loading the other backend's in-flight count, so every pick is
// deterministic. It ends with one backend ejected (breaker closed) and
// the other in rotation with its breaker open.
func goldenFleet(t *testing.T) {
	good, bad := newFakeBackend(t, "good"), newFakeBackend(t, "bad")
	bad.status.Store(http.StatusInternalServerError)
	clock := time.Unix(0, 0)
	rt := newTestRouter(t, Config{
		MaxRetries:   3,
		MaxBodyBytes: 64,
		Breaker: core.BreakerConfig{
			Threshold: 2,
			Cooldown:  time.Minute,
			Now:       func() time.Time { return clock },
		},
	}, good, bad)

	rt.backends[1].inflight.Add(10)
	expectCode(t, rt, "", `{}`, http.StatusOK)
	rt.backends[1].inflight.Add(-10)

	// Two requests land on bad, fail, and retry onto good; the second
	// failure opens bad's breaker.
	rt.backends[0].inflight.Add(10)
	expectCode(t, rt, "", `{}`, http.StatusOK)
	expectCode(t, rt, "", `{}`, http.StatusOK)
	rt.backends[0].inflight.Add(-10)
	if st := rt.backends[1].breaker.State(); st != core.BreakerOpen {
		t.Fatalf("bad backend breaker = %v, want open", st)
	}

	// Half the fleet unroutable: batch sheds, standard still routes.
	expectCode(t, rt, "batch", `{}`, http.StatusTooManyRequests)
	expectCode(t, rt, "standard", `{}`, http.StatusOK)
	expectCode(t, rt, "", strings.Repeat("x", 100), http.StatusRequestEntityTooLarge)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/detect", nil))

	// good fails its probe: nothing is routable, so the next request
	// sheds 503.
	good.ready.Store(false)
	if up := rt.ProbeOnce(context.Background()); up != 1 {
		t.Fatalf("ProbeOnce = %d backends up, want 1", up)
	}
	expectCode(t, rt, "", `{}`, http.StatusServiceUnavailable)

	compareExposition(t, filepath.Join("testdata", "exposition_fleet.prom"),
		scrapeRouter(t, rt, map[*fakeBackend]string{good: "good", bad: "bad"}))
}

// goldenHedged covers the hedge counters: the primary stalls past the
// hedge budget and the hedge on the second backend wins.
func goldenHedged(t *testing.T) {
	slow, fast := newFakeBackend(t, "slow"), newFakeBackend(t, "fast")
	slow.delay.Store(int64(500 * time.Millisecond))
	rt := newTestRouter(t, Config{HedgeAfter: 20 * time.Millisecond}, slow, fast)
	rt.backends[1].inflight.Add(10)
	expectCode(t, rt, "", `{}`, http.StatusOK)
	rt.backends[1].inflight.Add(-10)
	deadline := time.Now().Add(5 * time.Second)
	for rt.backends[0].inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hedge loser still in flight")
		}
		time.Sleep(time.Millisecond)
	}
	compareExposition(t, filepath.Join("testdata", "exposition_hedged.prom"),
		scrapeRouter(t, rt, map[*fakeBackend]string{slow: "slow", fast: "fast"}))
}
