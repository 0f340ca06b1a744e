package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCmdFleetSoak runs a short fleet soak — router over three real
// backend listeners, scripted chaos storm, one hard backend kill — and
// checks the convergence report the CI gate would consume.
func TestCmdFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak takes seconds; skipped under -short")
	}
	report := filepath.Join(t.TempDir(), "soak_report.json")
	err := soakRun(context.Background(), []string{
		"-fleet",
		"-duration", "3s",
		"-clients", "3",
		"-fleet-backends", "3",
		"-pool", "2",
		"-kill-at", "0.3",
		"-report", report,
	})
	if err != nil {
		t.Fatalf("fleet soak: %v", err)
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
		"duration", "wire", "backends", "requests", "status", "clientErrors",
		"rate5xx", "hedges", "hedgeWins", "retries", "sheds", "ejections",
		"stormTriggers", "killed", "fleet", "failures", "pass",
	})
	requireReportKeys(t, raw, "fleet", []string{
		"backend", "killed", "requests", "requestsAfterGrace", "failures",
		"trips", "recoveries", "ejections", "readyAtEnd",
	})
	if !rep.Pass || len(rep.Failures) != 0 {
		t.Errorf("report failures: %v", rep.Failures)
	}
	if rep.Requests == 0 || rep.Status["2xx"] == 0 {
		t.Errorf("no successful traffic: %+v", rep)
	}
	if rep.ClientErrors != 0 {
		t.Errorf("lost %d requests at the client", rep.ClientErrors)
	}
	if rep.Killed == "" || rep.Ejections == 0 {
		t.Errorf("kill arc incomplete: killed=%q ejections=%d", rep.Killed, rep.Ejections)
	}
	var sawVictim bool
	for _, b := range rep.Fleet {
		if b.Killed {
			sawVictim = true
			if b.RequestsAfterGrace != 0 {
				t.Errorf("dead backend %s still dispatched %d requests after grace", b.Backend, b.RequestsAfterGrace)
			}
			if b.ReadyAtEnd {
				t.Errorf("dead backend %s still marked ready", b.Backend)
			}
			continue
		}
		if b.RequestsAfterGrace == 0 {
			t.Errorf("survivor %s received no traffic after the kill", b.Backend)
		}
	}
	if !sawVictim {
		t.Errorf("no killed backend in fleet report: %+v", rep.Fleet)
	}
}

// TestCmdFleetSoakTooFewBackends rejects a single-backend fleet: there
// is nothing to fail over to.
func TestCmdFleetSoakTooFewBackends(t *testing.T) {
	err := soakRun(context.Background(), []string{
		"-fleet", "-duration", "1s", "-fleet-backends", "1",
	})
	if err == nil {
		t.Fatal("single-backend fleet accepted")
	}
}
