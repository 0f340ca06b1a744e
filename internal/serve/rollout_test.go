package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/registry"
	"shmd/internal/replay"
	"shmd/internal/trace"
	"shmd/pkg/sdk"
)

// testHMDSeed builds a deterministic detector from a given weight
// seed, so tests can mint distinct model versions.
func testHMDSeed(t testing.TB, seed uint64) *hmd.HMD {
	t.Helper()
	net, err := fann.New(fann.Config{
		Layers: []int{features.DimInstrFreq, 8, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   seed,
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

// fakeClock is an injectable rollout clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// waitRollout polls until cond holds or the deadline passes.
func waitRollout(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitCanaryOn waits for slot 0 to carry the version.
func waitCanaryOn(t *testing.T, srv *Server, version uint32) {
	t.Helper()
	waitRollout(t, fmt.Sprintf("canary slot on v%d", version), func() bool {
		return srv.Pool().ModelVersions()[0] == version
	})
}

func TestRolloutBeginValidation(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 2, ModelVersion: 1}})
	defer srv.Close()
	ro := srv.Rollout()

	if err := ro.Begin(9); err == nil {
		t.Fatal("Begin(unregistered) = nil, want error")
	}
	if err := ro.Begin(1); err == nil {
		t.Fatal("Begin(incumbent) = nil, want error")
	}
	if err := srv.Pool().RegisterModel(2, testHMDSeed(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := ro.Begin(2); err == nil {
		t.Fatal("second Begin while canarying = nil, want error")
	}

	// A canary set as large as the pool leaves no incumbent stream.
	big := newTestServer(t, Config{Pool: PoolConfig{Size: 2}, Rollout: RolloutConfig{CanarySlots: 2}})
	defer big.Close()
	if err := big.Pool().RegisterModel(2, testHMDSeed(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := big.Rollout().Begin(2); err == nil {
		t.Fatal("Begin with canary slots == pool size = nil, want error")
	}
}

// TestRolloutCanaryPromote drives the full agreement path under a fake
// clock: the candidate rolls onto the canary slot, agreeing decision
// streams accumulate, the MinCanaryTime gate holds promotion until the
// clock advances, and promotion rolls every slot and retires the
// canary state.
func TestRolloutCanaryPromote(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1700000000, 0)}
	srv := newTestServer(t, Config{
		Pool: PoolConfig{Size: 3, ModelVersion: 1, Logf: t.Logf},
		Rollout: RolloutConfig{
			Window: 16, MinCanary: 4,
			MinCanaryTime: time.Hour,
			Now:           clock.Now,
		},
	})
	defer srv.Close()
	ro := srv.Rollout()
	if err := srv.Pool().RegisterModel(2, testHMDSeed(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Begin(2); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 2)

	// Perfectly agreeing streams: both sides all-benign, confident.
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ro.Observe(2, false, 0.9)
			ro.Observe(1, false, 0.9)
		}
	}
	feed(30)
	if st := ro.Status(); st.Phase != "canarying" {
		t.Fatalf("phase before MinCanaryTime = %q, want canarying", st.Phase)
	}

	clock.Advance(2 * time.Hour)
	feed(1)
	waitRollout(t, "promotion", func() bool {
		st := ro.Status()
		return st.Phase == "idle" && st.Incumbent == 2
	})
	for id, v := range srv.Pool().ModelVersions() {
		if v != 2 {
			t.Errorf("slot %d on v%d after promote, want v2", id, v)
		}
	}
	if st := ro.Status(); st.Promoted != 1 || st.RolledBack != 0 || st.Aborted != 0 {
		t.Errorf("counters = %+v, want exactly one promotion", st)
	}
	if got := srv.Metrics().ModelRollouts.With("promoted").Value(); got != 1 {
		t.Errorf("shmd_model_rollouts_total{outcome=promoted} = %d, want 1", got)
	}
}

// TestRolloutDriftRollback: a candidate whose verdict stream diverges
// from the incumbent's rolls back automatically, restoring the
// incumbent on the canary slots and leaving it the active version.
func TestRolloutDriftRollback(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool:    PoolConfig{Size: 3, ModelVersion: 1, Logf: t.Logf},
		Rollout: RolloutConfig{Window: 16, MinCanary: 4},
	})
	defer srv.Close()
	ro := srv.Rollout()
	if err := srv.Pool().RegisterModel(2, testHMDSeed(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Begin(2); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 2)

	// Incumbent all-benign, candidate all-malware: verdicts diverge.
	for i := 0; i < 16; i++ {
		ro.Observe(1, false, 0.9)
		ro.Observe(2, true, 0.9)
	}
	waitRollout(t, "rollback", func() bool {
		st := ro.Status()
		return st.Phase == "idle" && st.RolledBack == 1
	})
	if got := ro.Incumbent(); got != 1 {
		t.Fatalf("incumbent after rollback = v%d, want v1", got)
	}
	for id, v := range srv.Pool().ModelVersions() {
		if v != 1 {
			t.Errorf("slot %d on v%d after rollback, want v1", id, v)
		}
	}
	if got := srv.Metrics().ModelRollouts.With("rolledback").Value(); got != 1 {
		t.Errorf("shmd_model_rollouts_total{outcome=rolledback} = %d, want 1", got)
	}
}

// TestRolloutRollbackDuringDrain: a rollback decided after the pool
// has closed cannot roll slots; the controller must abort cleanly
// (counted, phase idle) instead of hanging the drain.
func TestRolloutRollbackDuringDrain(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool:    PoolConfig{Size: 2, ModelVersion: 1, Logf: t.Logf},
		Rollout: RolloutConfig{Window: 8, MinCanary: 2},
	})
	ro := srv.Rollout()
	if err := srv.Pool().RegisterModel(2, testHMDSeed(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Begin(2); err != nil {
		t.Fatal(err)
	}
	waitCanaryOn(t, srv, 2)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ro.Observe(1, false, 0.9)
		ro.Observe(2, true, 0.9)
	}
	waitRollout(t, "abort after drain", func() bool {
		st := ro.Status()
		return st.Phase == "idle" && st.Aborted == 1
	})
	// The drain must complete: every transition goroutine is tracked.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.waitRunners(ctx)
	if err := ctx.Err(); err != nil {
		t.Fatalf("runners still live after abort: %v", err)
	}
}

// TestRolloutActivateUnknownVersionKeepsIncumbent: the admin activate
// path refuses a version the registry does not hold, with a typed
// error and the incumbent untouched.
func TestRolloutActivateUnknownVersionKeepsIncumbent(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(filepath.Join(dir, "registry"), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	det := testHMD(t)
	m, err := registry.NewManifest(1, registry.FannType, det, 42, registry.DefaultGoldenSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(1); err != nil {
		t.Fatal(err)
	}
	srv, err := New(det, Config{
		Pool:     PoolConfig{Size: 2, ErrorRate: 0.1, Seed: 1, ModelVersion: 1},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/admin/models?mode=activate&version=9", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("activate unknown version: status %d (%s), want 404", resp.StatusCode, body)
	}
	if got := srv.Rollout().Incumbent(); got != 1 {
		t.Fatalf("incumbent after failed activate = v%d, want v1", got)
	}
	if v, ok := reg.Active(); !ok || v != 1 {
		t.Fatalf("registry active after failed activate = %d/%v, want 1/true", v, ok)
	}
}

// TestAdminCanaryRolloutOverHTTP pushes a v2 manifest through the
// admin surface and drives it to promotion with live traffic: the end
// to end path the soak harness exercises, in miniature.
func TestAdminCanaryRolloutOverHTTP(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(filepath.Join(dir, "registry"), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	det := testHMD(t)
	m1, err := registry.NewManifest(1, registry.FannType, det, 42, registry.DefaultGoldenSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(1); err != nil {
		t.Fatal(err)
	}
	srv, err := New(det, Config{
		Pool:     PoolConfig{Size: 2, ErrorRate: 0.1, Seed: 1, ModelVersion: 1, Logf: t.Logf},
		Registry: reg,
		Rollout:  RolloutConfig{Window: 8, MinCanary: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// v2 is the same network re-encoded: identical verdicts, so the
	// canary must agree and promote.
	m2, err := registry.NewManifest(2, registry.FannType, det, 43, registry.DefaultGoldenSpecs())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := registry.EncodeManifest(m2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/models", "application/octet-stream", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admin push: status %d (%s), want 202", resp.StatusCode, body)
	}
	waitCanaryOn(t, srv, 2)

	// Live traffic through both versions until the controller promotes.
	reqBody := detectBody(t,
		testWindows(t, trace.Trojan, 0, 8),
		testWindows(t, trace.Benign, 0, 8))
	waitRollout(t, "promotion via live traffic", func() bool {
		resp, raw := postDetect(t, ts, reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect during rollout: status %d (%s)", resp.StatusCode, raw)
		}
		st := srv.Rollout().Status()
		return st.Phase == "idle" && st.Incumbent == 2
	})
	if v, ok := reg.Active(); !ok || v != 2 {
		t.Fatalf("registry active after promote = %d/%v, want 2/true", v, ok)
	}

	// GET surface reflects the new incumbent.
	getResp, err := ts.Client().Get(ts.URL + "/v1/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var report AdminModelsReport
	if err := json.NewDecoder(getResp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Active != 2 || len(report.Models) != 2 {
		t.Fatalf("admin GET = %+v, want active 2 over 2 models", report)
	}
}

// TestWarmRestartAdoptsActiveVersion is the zero-recalibration pin: a
// restart that re-opens the registry and the calibration journal must
// boot every slot on the journaled ACTIVE version without a single
// recalibration, witnessed by the regulator's Calibrations counter.
func TestWarmRestartAdoptsActiveVersion(t *testing.T) {
	dir := t.TempDir()
	regDir := filepath.Join(dir, "registry")
	journal := filepath.Join(dir, "calibration.journal")

	reg, err := registry.Open(regDir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := registry.NewManifest(1, registry.FannType, testHMD(t), 42, registry.DefaultGoldenSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(1); err != nil {
		t.Fatal(err)
	}

	boot := func(reg *registry.Registry) (*Pool, uint64) {
		t.Helper()
		active, ok := reg.Active()
		if !ok {
			t.Fatal("registry has no active version")
		}
		mdl, err := reg.Model(active)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewPool(mdl.Detector(), PoolConfig{
			Size: 2, ErrorRate: 0.1, Seed: 5,
			JournalPath: journal, ModelVersion: active, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		var calibs uint64
		for _, slot := range pool.Slots() {
			if slot.Model != active {
				t.Errorf("slot %d on v%d, want journaled active v%d", slot.ID, slot.Model, active)
			}
			c, ok := slot.Det.Regulator().(interface{ Calibrations() uint64 })
			if !ok {
				t.Fatal("regulator does not count calibrations")
			}
			calibs += c.Calibrations()
		}
		return pool, calibs
	}

	cold, coldCalibs := boot(reg)
	if coldCalibs == 0 {
		t.Fatal("cold boot ran no calibrations; journal adoption is untestable")
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: fresh registry handle, fresh pool, same journal.
	reg2, err := registry.Open(regDir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmCalibs := boot(reg2)
	defer warm.Close()
	if warmCalibs != 0 {
		t.Fatalf("warm restart ran %d calibrations, want 0 (journal adoption)", warmCalibs)
	}
}

// promScrape parses a Prometheus text exposition into sample name
// (with labels, verbatim) → value.
func promScrape(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestModelVersionMetricsAndHealth pins the observability surface for
// versioned models: the per-session shmd_session_model_version gauge,
// the shmd_model_active_version gauge, per-version decision counters,
// and the modelVersion fields in /healthz — all via a real scrape.
func TestModelVersionMetricsAndHealth(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 2, ModelVersion: 7}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postDetect(t, ts, detectBody(t,
		testWindows(t, trace.Trojan, 0, 8),
		testWindows(t, trace.Benign, 0, 8)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d (%s)", resp.StatusCode, raw)
	}

	mResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	samples := promScrape(t, string(body))

	for session := 0; session < 2; session++ {
		name := fmt.Sprintf("shmd_session_model_version{session=\"%d\"}", session)
		if got, ok := samples[name]; !ok || got != 7 {
			t.Errorf("%s = %g/%v, want 7", name, got, ok)
		}
	}
	if got := samples["shmd_model_active_version"]; got != 7 {
		t.Errorf("shmd_model_active_version = %g, want 7", got)
	}
	decided := samples[`shmd_model_decisions_total{version="7",verdict="malware"}`] +
		samples[`shmd_model_decisions_total{version="7",verdict="benign"}`]
	if decided != 2 {
		t.Errorf("shmd_model_decisions_total{version=7} = %g, want 2", decided)
	}

	hResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hResp.Body.Close()
	var report HealthReport
	if err := json.NewDecoder(hResp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.ModelVersion != 7 {
		t.Errorf("healthz modelVersion = %d, want 7", report.ModelVersion)
	}
	if report.Rollout.Phase != "idle" {
		t.Errorf("healthz rollout phase = %q, want idle", report.Rollout.Phase)
	}
	for _, sh := range report.Sessions {
		if sh.ModelVersion != 7 {
			t.Errorf("session %d modelVersion = %d, want 7", sh.Session, sh.ModelVersion)
		}
	}
}

// TestRegistryModelBitIdenticalServe is the cross-version identity
// pin at the serve layer: a registry-loaded copy of the seed model
// must produce bit-identical verdicts, scores, and confidences to the
// compiled-in detector at batch 1, 16, and 64 — over HTTP and over
// SHMDWIRE. Four fresh servers share a pool seed; each serves exactly
// one request, so all four consume their fault streams identically.
func TestRegistryModelBitIdenticalServe(t *testing.T) {
	reg, err := registry.Open(filepath.Join(t.TempDir(), "registry"), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := registry.NewManifest(1, registry.FannType, testHMD(t), 42, registry.DefaultGoldenSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	mdl, err := reg.Model(1)
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 16, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			traces := make([][]trace.WindowCounts, batch)
			for i := range traces {
				cls := trace.Benign
				if i%2 == 0 {
					cls = trace.Trojan
				}
				traces[i] = testWindows(t, cls, i/2, 4)
			}
			maxBatch := 0
			if batch > 1 {
				maxBatch = batch
			}
			mkCfg := func(version uint32) Config {
				return Config{
					Pool:     PoolConfig{Size: 1, Seed: 11, ErrorRate: 0.1, ModelVersion: version},
					MaxBatch: maxBatch,
					Limits:   Limits{MaxBodyBytes: 32 << 20},
				}
			}
			serveHTTP := func(det *hmd.HMD, version uint32) []DetectResult {
				srv, err := New(det, mkCfg(version))
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				resp, raw := postDetect(t, ts, detectBody(t, traces...))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("HTTP status %d: %s", resp.StatusCode, raw)
				}
				var dr DetectResponse
				if err := json.Unmarshal(raw, &dr); err != nil {
					t.Fatal(err)
				}
				return dr.Results
			}
			serveWire := func(det *hmd.HMD, version uint32) []DetectResult {
				srv, err := New(det, mkCfg(version))
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addr, stop := startWireServer(t, srv)
				defer stop()
				cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				v, err := cl.Detect(context.Background(), wireDetectRequest(traces...))
				if err != nil {
					t.Fatal(err)
				}
				out := make([]DetectResult, len(v.Results))
				for i, r := range v.Results {
					out[i] = DetectResult{
						ID: r.ID, Malware: r.Malware, Score: r.Score,
						Confidence: r.Confidence, Unprotected: r.Unprotected,
					}
				}
				return out
			}

			compiledHTTP := serveHTTP(testHMD(t), 0)
			registryHTTP := serveHTTP(mdl.Detector(), 1)
			compiledWire := serveWire(testHMD(t), 0)
			registryWire := serveWire(mdl.Detector(), 1)

			check := func(name string, got []DetectResult) {
				t.Helper()
				if len(got) != len(compiledHTTP) {
					t.Fatalf("%s: %d results, want %d", name, len(got), len(compiledHTTP))
				}
				for i, r := range got {
					ref := compiledHTTP[i]
					if r.Malware != ref.Malware ||
						math.Float64bits(r.Score) != math.Float64bits(ref.Score) ||
						math.Float64bits(r.Confidence) != math.Float64bits(ref.Confidence) {
						t.Errorf("%s result %d: %+v != compiled %+v", name, i, r, ref)
					}
				}
			}
			check("registry/HTTP", registryHTTP)
			check("compiled/wire", compiledWire)
			check("registry/wire", registryWire)
		})
	}
}

// TestMixedVersionTracesReplayPerVersion audits a mid-rollout trace:
// with slot 0 rolled to v2 and slot 1 still on v1, every decision
// record carries its serving model version, and replay.Verify
// reproduces each verdict bit-identically against that version's
// detector.
func TestMixedVersionTracesReplayPerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.trace")
	sink, err := replay.OpenSink(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	detV1 := testHMD(t)
	detV2 := testHMDSeed(t, 9)
	srv, err := New(detV1, Config{
		Pool:  PoolConfig{Size: 2, Seed: 5, ErrorRate: 0.1, ModelVersion: 1, Logf: t.Logf},
		Trace: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Pool().RegisterModel(2, detV2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Pool().Roll(context.Background(), 0, 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	for i := 0; i < 12; i++ {
		resp, raw := postDetect(t, ts, detectBody(t, testWindows(t, trace.Trojan, i%4, 8)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, raw)
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]int{}
	for n := 0; ; n++ {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		var base *hmd.HMD
		switch rec.ModelVersion {
		case 1:
			base = detV1
		case 2:
			base = detV2
		default:
			t.Fatalf("record %d: model version %d, want 1 or 2", n, rec.ModelVersion)
		}
		seen[rec.ModelVersion]++
		if err := replay.Verify(base, rec, Confidence); err != nil {
			t.Errorf("record %d (v%d slot %d): %v", n, rec.ModelVersion, rec.Slot, err)
		}
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("trace versions seen = %v, want both v1 and v2 present", seen)
	}
}
