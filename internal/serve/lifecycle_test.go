package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/journal"
	"shmd/internal/trace"
)

// fastLifecycle is a test lifecycle config with millisecond backoffs.
func fastLifecycle() LifecycleConfig {
	return LifecycleConfig{
		Enabled:           true,
		RespawnBackoff:    time.Millisecond,
		RespawnMaxBackoff: 20 * time.Millisecond,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestQuarantineRespawn kills slot 0's voltage plane permanently and
// proves the pool pulls it from rotation and rebuilds it at the next
// generation, without ever violating the exclusivity invariant.
func TestQuarantineRespawn(t *testing.T) {
	p := newTestPool(t, PoolConfig{
		Size:        1,
		ChaosConfig: &chaos.Config{Seed: 9},
		Lifecycle:   fastLifecycle(),
		Logf:        t.Logf,
	})
	defer p.Close()
	windows := testWindows(t, trace.Trojan, 0, 4)

	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if slot.Gen != 0 {
		t.Fatalf("boot slot gen = %d", slot.Gen)
	}
	env := slot.Det.Regulator().(*chaos.Env)
	if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err != nil {
		t.Fatal(err)
	}
	// Fail-safe still answers on the dead plane.
	if _, err := slot.Sup.DetectProgram(windows); err != nil {
		t.Fatal(err)
	}
	p.Release(slot) // dead plane → quarantine, not park

	if got := p.Quarantines(); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}
	waitFor(t, 5*time.Second, "respawn", func() bool {
		return p.Respawns() >= 1 && p.QuarantinedNow() == 0
	})

	fresh, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(fresh)
	if fresh.Gen != 1 {
		t.Errorf("respawned slot gen = %d, want 1", fresh.Gen)
	}
	if fresh.Lifecycle() != SlotActive {
		t.Errorf("respawned slot lifecycle = %v", fresh.Lifecycle())
	}
	if deadPlane(fresh) {
		t.Error("respawned slot inherited the dead plane")
	}
	if _, err := fresh.Sup.DetectProgram(windows); err != nil {
		t.Errorf("detection on respawned slot: %v", err)
	}
	if got := p.DoubleCheckouts(); got != 0 {
		t.Errorf("double checkouts = %d", got)
	}
}

// TestHealthzRecoversAfterRespawn is the acceptance path: a permanent
// fault degrades /healthz to 503, and the lifecycle heals it back to
// 200 without a process restart.
func TestHealthzRecoversAfterRespawn(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool: PoolConfig{
			Size:        1,
			ChaosConfig: &chaos.Config{Seed: 9},
			Lifecycle:   fastLifecycle(),
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	env := srv.Pool().Slots()[0].Det.Regulator().(*chaos.Env)
	if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err != nil {
		t.Fatal(err)
	}
	// This request trips the breaker and, at release, quarantines the
	// slot.
	resp, raw := postDetect(t, ts, detectBody(t, testWindows(t, trace.Trojan, 0, 4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect on dead plane = %d (%s)", resp.StatusCode, raw)
	}

	healthz := func() (int, HealthReport) {
		r, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var hr HealthReport
		if err := json.NewDecoder(r.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, hr
	}

	waitFor(t, 5*time.Second, "healthz recovery", func() bool {
		code, _ := healthz()
		return code == http.StatusOK
	})
	code, hr := healthz()
	if code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz after respawn = %d %q", code, hr.Status)
	}
	if hr.Respawns < 1 {
		t.Errorf("healthz respawns = %d, want >= 1", hr.Respawns)
	}
	if hr.Quarantined != 0 {
		t.Errorf("healthz quarantined = %d, want 0", hr.Quarantined)
	}
	if hr.Sessions[0].Generation != 1 {
		t.Errorf("session generation = %d, want 1", hr.Sessions[0].Generation)
	}

	// The healed pool serves protected decisions again.
	resp, raw = postDetect(t, ts, detectBody(t, testWindows(t, trace.Trojan, 0, 4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect after respawn = %d (%s)", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Results[0].Unprotected {
		t.Error("respawned slot still serving unprotected decisions")
	}
}

// TestHedgedDispatch forces an immediate hedge on every request and
// proves hedging never breaks the exclusivity invariant.
func TestHedgedDispatch(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool:       PoolConfig{Size: 2},
		HedgeAfter: time.Nanosecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))
	for i := 0; i < 8; i++ {
		resp, raw := postDetect(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d (%s)", i, resp.StatusCode, raw)
		}
		var dr DetectResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		if len(dr.Results) != 1 {
			t.Fatalf("request %d: %d results", i, len(dr.Results))
		}
	}
	ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Pool().DoubleCheckouts(); got != 0 {
		t.Fatalf("double checkouts under hedging = %d", got)
	}
	if srv.Metrics().Hedges.Value() == 0 {
		t.Error("no hedged dispatches recorded despite 1ns hedge budget")
	}
	if srv.Metrics().HedgeWins.Value() > srv.Metrics().Hedges.Value() {
		t.Errorf("hedge wins %d > hedges %d", srv.Metrics().HedgeWins.Value(), srv.Metrics().Hedges.Value())
	}
}

// TestAcquireFailFast proves an already-cancelled context never
// consumes a parked slot and surfaces as a typed AcquireError.
func TestAcquireFailFast(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 2})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slot, err := p.Acquire(ctx)
	if slot != nil {
		t.Fatal("acquired a slot on a cancelled context")
	}
	var ae *AcquireError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T (%v), want *AcquireError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, does not unwrap to context.Canceled", err)
	}
	if got := len(p.slots); got != 2 {
		t.Errorf("parked slots after fail-fast = %d, want 2", got)
	}
}

// TestDeadline exercises the X-Detect-Deadline-Ms header: rejection of
// garbage values, and a 503 with Retry-After when the deadline expires
// while the request is queued behind a busy pool.
func TestDeadline(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))

	post := func(deadline string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline != "" {
			req.Header.Set(deadlineHeader, deadline)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		if resp := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp := post("30000"); resp.StatusCode != http.StatusOK {
		t.Errorf("generous deadline = %d, want 200", resp.StatusCode)
	}

	// Occupy the only slot so the next request waits out its deadline
	// in Acquire.
	slot, err := srv.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp := post("20")
	srv.Pool().Release(slot)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 on expired deadline missing Retry-After")
	}
	if srv.Metrics().DeadlineExpired.Value() == 0 {
		t.Error("deadline expiration not counted")
	}
}

// TestPoolCloseRaces covers the close/checkout interleavings: Close
// with a slot checked out, double Close, and Release after Close must
// not panic, leak, or count a double checkout.
func TestPoolCloseRaces(t *testing.T) {
	p := newTestPool(t, PoolConfig{Size: 2, Lifecycle: fastLifecycle()})
	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 2)
	go func() { closed <- p.Close() }()
	go func() { closed <- p.Close() }()
	for i := 0; i < 2; i++ {
		if err := <-closed; err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
	p.Release(slot) // after Close: parks without quarantine, no panic
	if _, err := p.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("acquire after close = %v, want ErrPoolClosed", err)
	}
	if slot, ok := p.TryAcquire(); ok {
		t.Errorf("TryAcquire after close handed out slot %d", slot.ID)
	}
	if got := p.DoubleCheckouts(); got != 0 {
		t.Errorf("double checkouts = %d", got)
	}
	for _, s := range p.Slots() {
		if !s.Sup.Session().AtNominal() {
			t.Errorf("slot %d not at nominal after close", s.ID)
		}
	}
}

// calibrationCount sums CalibrateToRate invocations across a pool's
// regulators (the journal acceptance criterion's witness).
func calibrationCount(t *testing.T, p *Pool) uint64 {
	t.Helper()
	var total uint64
	for _, slot := range p.Slots() {
		c, ok := slot.Det.Regulator().(interface{ Calibrations() uint64 })
		if !ok {
			t.Fatalf("regulator %T does not count calibrations", slot.Det.Regulator())
		}
		total += c.Calibrations()
	}
	return total
}

// TestJournalSkipsRecalibration proves the crash-safe journal's whole
// point: a journal-backed restart reaches ready without a single
// CalibrateToRate call, while a corrupted journal is rejected, logged,
// and regenerated via a fresh calibration.
func TestJournalSkipsRecalibration(t *testing.T) {
	path := t.TempDir() + "/cal.journal"
	cfg := PoolConfig{Size: 2, ErrorRate: 0.1, Seed: 1, JournalPath: path, Logf: t.Logf}
	windows := testWindows(t, trace.Trojan, 0, 4)

	// Cold boot: at least one slot calibrates from scratch and the
	// journal file appears.
	p1, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := calibrationCount(t, p1); got == 0 {
		t.Error("cold boot ran no calibration")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Load(path); err != nil {
		t.Fatalf("journal after cold boot: %v", err)
	}

	// Warm restart: every slot boots from the journaled depth; zero
	// calibrations anywhere.
	p2, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := calibrationCount(t, p2); got != 0 {
		t.Errorf("journal-backed restart ran %d calibrations, want 0", got)
	}
	slot, err := p2.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, err := slot.Sup.DetectProgram(windows)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unprotected {
		t.Error("journal-booted slot served unprotected")
	}
	p2.Release(slot)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one CRC trailer byte: the journal must be rejected, the pool
	// must recalibrate, and a valid journal must be regenerated.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p3, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := calibrationCount(t, p3); got == 0 {
		t.Error("corrupted journal was trusted: no recalibration")
	}
	if _, err := journal.Load(path); err != nil {
		t.Errorf("journal not regenerated after corruption: %v", err)
	}
}

// TestJournalStaleEntry ages a journal entry out and proves the pool
// recalibrates instead of trusting it.
func TestJournalStaleEntry(t *testing.T) {
	path := t.TempDir() + "/cal.journal"
	cfg := PoolConfig{Size: 1, ErrorRate: 0.1, Seed: 1, JournalPath: path, Logf: t.Logf}
	p1, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.JournalMaxAge = time.Nanosecond
	p2, err := NewPool(testHMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := calibrationCount(t, p2); got == 0 {
		t.Error("stale journal entry was trusted: no recalibration")
	}
}
