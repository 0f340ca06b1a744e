package shmd_test

// End-to-end integration test: the full lifecycle a deployment would
// run, crossing every package boundary in one flow —
//
//	synthesize corpus → train baseline → serialize bundle → reload →
//	protect with undervolting → TEE-style detection session →
//	black-box attack campaign → verify the defense's headline property.
import (
	"bytes"
	"testing"

	"shmd/internal/attack"
	"shmd/internal/core"
	"shmd/internal/dataset"
	"shmd/internal/hmd"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

func TestEndToEndLifecycle(t *testing.T) {
	// 1. Corpus and folds.
	data, err := dataset.Generate(dataset.QuickConfig(77))
	if err != nil {
		t.Fatal(err)
	}
	split, err := data.ThreeFold(0)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Train and ship the detector as a bundle.
	trained, err := hmd.Train(data.Select(split.VictimTrain), hmd.Config{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if _, err := trained.SaveBundle(&artifact); err != nil {
		t.Fatal(err)
	}
	deployed, err := hmd.LoadBundle(&artifact)
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := hmd.Evaluate(deployed, data.Select(split.Test)).Accuracy()
	if baseAcc < 0.85 {
		t.Fatalf("deployed baseline accuracy = %v", baseAcc)
	}

	// 3. Protect it: calibrate the locked regulator to the paper's
	// operating point and wrap detection in the enter/exit session.
	protected, err := core.New(deployed, core.Options{ErrorRate: 0.1, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	if protected.SupplyVoltage() >= volt.NominalVoltage {
		t.Fatal("protection did not undervolt")
	}
	session, err := core.NewSession(protected)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range data.Select(split.Test)[:10] {
		decs, _, err := session.DetectBatch([][]trace.WindowCounts{p.Windows}, false)
		if err != nil {
			t.Fatal(err)
		}
		if sc := decs[0]; sc.Score < 0 || sc.Score > 1 {
			t.Fatalf("session score = %v", sc.Score)
		}
		if !session.AtNominal() {
			t.Fatal("voltage not restored between detections")
		}
	}

	// 4. Attack the deployment end to end. The session restored the
	// calibrated depth inside each detection, so attack the protected
	// detector directly (its regulator still holds the operating point
	// via the session's enter path).
	if err := protected.SetErrorRate(0.1); err != nil {
		t.Fatal(err)
	}
	proxy, err := attack.ReverseEngineer(protected, data.Select(split.AttackerTrain), attack.REConfig{
		Kind: attack.ProxyMLP,
		Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := data.Select(data.MalwareOf(split.Test))[:20]
	results, err := attack.EvadeAll(proxy, targets, attack.EvasionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Skip("no samples evaded the proxy at this scale/seed")
	}

	// 5. Headline property: the protected deployment catches evasive
	// malware at a clearly higher rate than the unprotected baseline.
	baseProxy, err := attack.ReverseEngineer(deployed, data.Select(split.AttackerTrain), attack.REConfig{
		Kind: attack.ProxyMLP,
		Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseResults, err := attack.EvadeAll(baseProxy, targets, attack.EvasionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	protCatch, err := attack.DetectionRate(results, protected)
	if err != nil {
		t.Fatal(err)
	}
	baseCatch := 0.0
	if len(baseResults) > 0 {
		baseCatch, err = attack.DetectionRate(baseResults, deployed)
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("end-to-end: baseline acc %.3f; evasive malware caught: baseline %.3f, protected %.3f (n=%d)",
		baseAcc, baseCatch, protCatch, len(results))
	if protCatch <= baseCatch {
		t.Errorf("protected deployment must out-catch the baseline: %v vs %v", protCatch, baseCatch)
	}

	// 6. And the protection stayed essentially free: accuracy within a
	// few points of baseline at the operating point.
	protAcc := hmd.Evaluate(protected, data.Select(split.Test)).Accuracy()
	if baseAcc-protAcc > 0.05 {
		t.Errorf("protection cost too much accuracy: %v -> %v", baseAcc, protAcc)
	}
}
