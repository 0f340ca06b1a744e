package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCmdTenantSoak runs a short tenant-persona soak — one
// multi-tenant serve instance, the steady/bursty/abusive cast — and
// checks the isolation report the CI gate would consume.
func TestCmdTenantSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("tenant soak takes seconds; skipped under -short")
	}
	report := filepath.Join(t.TempDir(), "tenant_report.json")
	err := soakRun(context.Background(), []string{
		"-tenants",
		"-duration", "2s",
		"-pool", "2",
		"-report", report,
	})
	if err != nil {
		t.Fatalf("tenant soak: %v", err)
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
		"duration", "sloP99Ms", "minAbusiveShedFraction", "personas",
		"tenantSeries", "failures", "pass",
	})
	requireReportKeys(t, raw, "personas", []string{
		"tenant", "class", "requests", "status", "sheds", "shedFraction",
		"clientErrors", "p99Ms",
	})
	if !rep.Pass || len(rep.Failures) != 0 {
		t.Fatalf("report failed: %v", rep.Failures)
	}
	if len(rep.Personas) != 3 {
		t.Fatalf("personas = %d, want 3", len(rep.Personas))
	}
	byTenant := map[string]personaReport{}
	for _, row := range rep.Personas {
		byTenant[row.Tenant] = row
	}
	if row := byTenant["steady"]; row.Sheds != 0 || row.ClientErrors != 0 {
		t.Errorf("steady row = %+v, want zero sheds and zero lost requests", row)
	}
	if row := byTenant["abusive"]; row.ShedFraction < 0.5 {
		t.Errorf("abusive shed fraction = %.3f, want >= 0.5", row.ShedFraction)
	}
	if rep.TenantSeries != 3 {
		t.Errorf("tenant series = %d, want 3", rep.TenantSeries)
	}
}
