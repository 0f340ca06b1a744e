package prom_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/route"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
)

// lint checks one exposition against the rules every scrape must keep:
// each family has HELP then TYPE before its samples and appears once,
// no series appears twice, histogram buckets never decrease, and the
// +Inf bucket equals _count.
func lint(t *testing.T, name, body string) {
	t.Helper()
	typ := map[string]string{}
	series := map[string]bool{}
	lastBucket := map[string]float64{}
	inf := map[string]float64{}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, _, _ := strings.Cut(rest, " ")
			if _, dup := typ[fam]; dup {
				t.Errorf("%s: family %s declared twice", name, fam)
			}
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+fam+" ") {
				t.Errorf("%s: HELP %s not followed by its TYPE", name, fam)
			}
			typ[fam] = ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, kind, _ := strings.Cut(rest, " ")
			if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+fam+" ") {
				t.Errorf("%s: TYPE %s without a HELP before it", name, fam)
			}
			typ[fam] = kind
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Errorf("%s: malformed line %q", name, line)
			continue
		}
		key, raw := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Errorf("%s: %s: value %q", name, key, raw)
		}
		if series[key] {
			t.Errorf("%s: series %s appears twice", name, key)
		}
		series[key] = true
		metric, labels, _ := strings.Cut(key, "{")
		fam, suffix := metric, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(metric, s); ok && typ[base] == "histogram" {
				fam, suffix = base, s
			}
		}
		if typ[fam] == "" {
			t.Errorf("%s: sample %s before its family's TYPE", name, key)
		}
		switch suffix {
		case "_bucket":
			le := strings.LastIndex(labels, `le="`)
			set := fam + "{" + strings.TrimSuffix(labels[:le], ",")
			if v < lastBucket[set] {
				t.Errorf("%s: bucket %s = %g decreases", name, key, v)
			}
			lastBucket[set] = v
			if strings.HasPrefix(labels[le:], `le="+Inf"`) {
				inf[set] = v
			}
		case "_count":
			set := fam + "{" + strings.TrimSuffix(labels, "}")
			if got, ok := inf[set]; !ok || got != v {
				t.Errorf("%s: %s = %g, +Inf bucket = %g (present %v)", name, key, v, got, ok)
			}
		}
	}
}

// TestLintGoldenScrapes lints the committed serve and route golden
// expositions.
func TestLintGoldenScrapes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "*", "testdata", "exposition_*.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("golden expositions = %v, want the serve and route files", files)
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lint(t, f, string(body))
	}
}

// scrape reads /metrics off a handler.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestLintLiveScrapes lints what the shared writer renders today for a
// server and a router that have served traffic.
func TestLintLiveScrapes(t *testing.T) {
	net, err := fann.New(fann.Config{Layers: []int{features.DimInstrFreq, 8, 1}, Hidden: fann.SigmoidSymmetric, Output: fann.Sigmoid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	det, err := hmd.FromNetwork(net, hmd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(det, serve.Config{
		Pool:       serve.PoolConfig{Size: 2, ErrorRate: 0.1, Seed: 1},
		JitterSeed: 1,
		Tenancy:    &tenant.Config{Default: &tenant.Spec{Class: tenant.Standard}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := prog.Trace(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{ID: "p", Windows: serve.EncodeWindows(windows)}}})
	for _, id := range []string{"acme", "globex"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		req.Header.Set("X-Tenant", id)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("detect: %d %s", rec.Code, rec.Body)
		}
	}
	lint(t, "serve", scrape(t, srv.Handler()))

	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer backend.Close()
	rt, err := route.New(route.Config{Backends: []string{backend.URL}, ProbeInterval: -1, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(`{}`)))
	lint(t, "route", scrape(t, rt.Handler()))
}
