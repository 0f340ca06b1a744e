package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCmdRolloutSoak runs a short canary-rollout soak — bootstrap v1,
// push a conforming v2 mid-traffic, push a drifted v3 after the
// promotion — and checks the report the CI gate would consume: v2
// promoted, v3 rolled back, nothing lost while every slot rolled.
func TestCmdRolloutSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("rollout soak takes seconds; skipped under -short")
	}
	report := filepath.Join(t.TempDir(), "rollout_report.json")
	err := soakRun(context.Background(), []string{
		"-rollout",
		"-duration", "30s",
		"-pool", "3",
		"-clients", "3",
		"-report", report,
	})
	if err != nil {
		t.Fatalf("rollout soak: %v", err)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep soakReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, raw)
	}
	requireReportKeys(t, raw, "", []string{
		"duration", "requests", "status", "clientErrors", "rate5xx",
		"doubleCheckouts", "rolls", "promoted", "rolledBack", "aborted",
		"activeVersion", "slotVersions", "failures", "pass",
	})
	if !rep.Pass || len(rep.Failures) != 0 {
		t.Fatalf("report failed: %v", rep.Failures)
	}
	if rep.Promoted != 1 || rep.RolledBack != 1 {
		t.Fatalf("promoted %d / rolledBack %d, want 1 / 1", rep.Promoted, rep.RolledBack)
	}
	if rep.ActiveVersion != 2 {
		t.Fatalf("active version = %d, want 2", rep.ActiveVersion)
	}
	for id, v := range rep.SlotVersions {
		if v != 2 {
			t.Errorf("slot %d ended on v%d, want v2", id, v)
		}
	}
	if rep.ClientErrors != 0 {
		t.Errorf("client errors = %d, want 0 (lost requests mid-roll)", rep.ClientErrors)
	}
	if rep.DoubleCheckouts != 0 {
		t.Errorf("double checkouts = %d, want 0", rep.DoubleCheckouts)
	}
}

// TestRolloutArcWedgedAdmin holds the rollout arc to its budget when
// the admin endpoint accepts a request and never answers.
func TestRolloutArcWedgedAdmin(t *testing.T) {
	base, err := soakModel("")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer wedged.Close()
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = rolloutArc(ctx, wedged.URL, base, 1, 1, func() bool { return true })
	if err == nil {
		t.Fatal("arc against a wedged admin endpoint succeeded")
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("arc returned %v after its 300ms budget", took)
	}
}
