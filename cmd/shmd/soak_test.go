package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmd/internal/journal"
)

// TestCmdSoak runs a short full-service soak — scripted chaos storm,
// permanent fault, quarantine, respawn — and checks the report the
// driver would gate on.
func TestCmdSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes seconds; skipped under -short")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	jpath := filepath.Join(dir, "cal.journal")
	err := soakRun(context.Background(), []string{
		"-duration", "2s",
		"-clients", "3",
		"-pool", "2",
		"-permanent-at", "0.25",
		"-report", report,
		"-journal", jpath,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
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
		"duration", "wire", "requests", "status", "clientErrors", "rate5xx",
		"doubleCheckouts", "quarantines", "respawns", "hedges", "hedgeWins",
		"deadlineExpired", "degradedSeen", "recoveredAfterDegraded",
		"stormTriggers", "failures", "pass",
	})
	if !rep.Pass || len(rep.Failures) != 0 {
		t.Errorf("report failures: %v", rep.Failures)
	}
	if rep.Requests == 0 || rep.Status["2xx"] == 0 {
		t.Errorf("no successful traffic: %+v", rep)
	}
	if rep.DoubleCheckouts != 0 {
		t.Errorf("double checkouts = %d", rep.DoubleCheckouts)
	}
	if rep.Quarantines == 0 || rep.Respawns < rep.Quarantines {
		t.Errorf("lifecycle arc incomplete: quarantines %d, respawns %d", rep.Quarantines, rep.Respawns)
	}
	// The soak journaled its calibration; the file must verify.
	if _, err := journal.Load(jpath); err != nil {
		t.Errorf("soak journal: %v", err)
	}
}

// requireReportKeys fails t unless the JSON report raw carries every
// key in keys: at the top level when rows is empty, else in every
// element of the array under the top-level key rows. Downstream
// consumers (CI artifacts, dashboards) read these keys by name.
func requireReportKeys(t *testing.T, raw []byte, rows string, keys []string) {
	t.Helper()
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("report not a JSON object: %v", err)
	}
	objs := []map[string]any{top}
	if rows != "" {
		arr, ok := top[rows].([]any)
		if !ok || len(arr) == 0 {
			t.Fatalf("report key %q = %v, want a non-empty array", rows, top[rows])
		}
		objs = objs[:0]
		for i, el := range arr {
			obj, ok := el.(map[string]any)
			if !ok {
				t.Fatalf("report %s[%d] = %v, want an object", rows, i, el)
			}
			objs = append(objs, obj)
		}
	}
	for i, obj := range objs {
		for _, k := range keys {
			if _, ok := obj[k]; !ok {
				if rows == "" {
					t.Errorf("report lacks key %q", k)
				} else {
					t.Errorf("report %s[%d] lacks key %q", rows, i, k)
				}
			}
		}
	}
}

// TestCmdSoakBadModel surfaces a missing model file as an error.
func TestCmdSoakBadModel(t *testing.T) {
	err := soakRun(context.Background(), []string{
		"-duration", "1s", "-model", filepath.Join(t.TempDir(), "nope.fann"),
	})
	if err == nil {
		t.Fatal("missing model accepted")
	}
}

// TestParseSoakFlags pins which flag sets select a scenario and which
// are refused before anything boots: two mode flags at once, or a flag
// set explicitly that the selected scenario would not act on.
func TestParseSoakFlags(t *testing.T) {
	cases := []struct {
		args     []string
		scenario string // "" = refused
		refuses  string // flag the error must name
	}{
		{nil, "soak", ""},
		{[]string{"-max-batch", "16", "-wire", "-journal", "j", "-permanent-at", "0.2", "-storm-every", "50ms"}, "soak", ""},
		{[]string{"-fleet", "-wire", "-max-batch", "16", "-max-batch-wait", "1ms", "-kill-at", "0.3", "-fleet-backends", "4", "-storm-every", "50ms"}, "fleet soak", ""},
		{[]string{"-tenants", "-wire", "-max-batch", "16", "-hedge-after", "0", "-journal", "j", "-slo-p99", "1s", "-min-abusive-shed", "0.4"}, "tenant soak", ""},
		{[]string{"-rollout", "-wire", "-max-batch", "16", "-max-batch-wait", "1ms", "-hedge-after", "0", "-journal", "j", "-clients", "2"}, "rollout soak", ""},
		{[]string{"-fleet=false", "-tenants"}, "tenant soak", ""},
		{[]string{"-fleet", "-tenants"}, "", "-fleet and -tenants"},
		{[]string{"-tenants", "-rollout"}, "", "-tenants and -rollout"},
		{[]string{"-fleet", "-rollout"}, "", "-fleet and -rollout"},
		{[]string{"-kill-at", "0.5"}, "", "-kill-at"},
		{[]string{"-fleet-backends", "4"}, "", "-fleet-backends"},
		{[]string{"-slo-p99", "1s"}, "", "-slo-p99"},
		{[]string{"-min-abusive-shed", "0.4"}, "", "-min-abusive-shed"},
		{[]string{"-fleet", "-journal", "j"}, "", "-journal"},
		{[]string{"-fleet", "-permanent-at", "0.2"}, "", "-permanent-at"},
		{[]string{"-tenants", "-clients", "8"}, "", "-clients"},
		{[]string{"-tenants", "-storm-every", "50ms"}, "", "-storm-every"},
		{[]string{"-tenants", "-permanent-at", "0.2"}, "", "-permanent-at"},
		{[]string{"-rollout", "-storm-every", "50ms"}, "", "-storm-every"},
		{[]string{"-rollout", "-permanent-at", "0.2"}, "", "-permanent-at"},
		{[]string{"-rollout", "-kill-at", "0.5"}, "", "-kill-at"},
		{[]string{"-fleet", "-fleet-backends", "1"}, "", "2 backends"},
	}
	for _, c := range cases {
		sc, _, err := parseSoak(c.args)
		switch {
		case c.scenario != "" && err != nil:
			t.Errorf("%q refused: %v", c.args, err)
		case c.scenario != "" && sc.name != c.scenario:
			t.Errorf("%q selected %q, want %q", c.args, sc.name, c.scenario)
		case c.scenario == "" && err == nil:
			t.Errorf("%q accepted as %q, want refused naming %s", c.args, sc.name, c.refuses)
		case c.scenario == "" && !strings.Contains(err.Error(), c.refuses):
			t.Errorf("%q refused with %q, want it to name %s", c.args, err, c.refuses)
		}
	}
}
