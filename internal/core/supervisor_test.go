package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// The chaos environment must be able to stand in for the ideal
// regulator everywhere the detection path touches it.
var _ Plane = (*chaos.Env)(nil)

// chaosFixture builds a detector on a chaos-wrapped regulator with
// scripted-only faults (no probabilistic rules unless given).
func chaosFixture(t *testing.T, cfg chaos.Config) (*StochasticHMD, *chaos.Env) {
	t.Helper()
	_, base := fixtures(t)
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(0))
	if err != nil {
		t.Fatal(err)
	}
	env, err := chaos.NewEnv(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewOnPlane(base.WithFreshBuffers(), env, Options{ErrorRate: 0.1, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

// noSleep is the test backoff clock: counts calls, never sleeps.
func noSleep(n *int) func(time.Duration) {
	return func(time.Duration) { *n++ }
}

func TestNewSupervisorValidation(t *testing.T) {
	if _, err := NewSupervisor(nil, SupervisorConfig{}); err == nil {
		t.Error("nil detector must be rejected")
	}
}

func TestSupervisorHealthyPath(t *testing.T) {
	d, _ := fixtures(t)
	s, _ := chaosFixture(t, chaos.Config{Seed: 21})
	sup, err := NewSupervisor(s, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := d.Programs[0].Windows
	for i := 0; i < 3; i++ {
		v, err := sup.DetectProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		if v.Unprotected {
			t.Fatal("healthy detection flagged Unprotected")
		}
		if v.Attempts != 1 {
			t.Errorf("attempts = %d", v.Attempts)
		}
		if !sup.Session().AtNominal() {
			t.Fatal("voltage not nominal between detections")
		}
	}
	h := sup.Health()
	if h.State != Healthy || h.Protected != 3 || h.Retries != 0 || h.Unprotected != 0 {
		t.Errorf("health = %+v", h)
	}
}

// TestSupervisorSelfHealing is the end-to-end resilience scenario:
// transient MSR failures are retried through, a thermal drift event is
// caught by the canary and recalibrated away, every detection returns
// a decision, the plane is verifiably nominal between detections, and
// permanent regulator death degrades to flagged nominal-voltage
// detection instead of erroring out.
func TestSupervisorSelfHealing(t *testing.T) {
	d, _ := fixtures(t)
	s, env := chaosFixture(t, chaos.Config{Seed: 23})
	slept := 0
	sup, err := NewSupervisor(s, SupervisorConfig{
		Sleep:            noSleep(&slept),
		CanaryEvery:      1,
		CanaryMuls:       6000,
		BreakerThreshold: 2,
		BreakerCooldown:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := d.Programs[0].Windows
	target := sup.TargetRate()
	if target != 0.1 {
		t.Fatalf("target rate = %v", target)
	}

	check := func(phase string, wantUnprotected bool) Verdict {
		t.Helper()
		v, err := sup.DetectProgram(w)
		if err != nil {
			t.Fatalf("%s: supervised detection errored: %v", phase, err)
		}
		if v.Unprotected != wantUnprotected {
			t.Fatalf("%s: Unprotected = %v, want %v", phase, v.Unprotected, wantUnprotected)
		}
		if v.Score < 0 || v.Score > 1 {
			t.Fatalf("%s: score = %v", phase, v.Score)
		}
		if !sup.Session().AtNominal() {
			t.Fatalf("%s: voltage not nominal between detections", phase)
		}
		return v
	}

	// Phase 1 — healthy baseline.
	check("healthy", false)
	if sup.State() != Healthy {
		t.Fatalf("state = %v", sup.State())
	}

	// Phase 2 — a burst of transient MSR write failures: the
	// supervisor retries through them without degrading.
	if err := env.Trigger(chaos.Rule{Kind: chaos.TransientMSR, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	check("transient burst", false)
	if h := sup.Health(); h.Retries == 0 {
		t.Error("transient burst absorbed without any retry?")
	}
	if slept == 0 {
		t.Error("retries must back off")
	}

	// Phase 3 — thermal drift: a +40 °C excursion moves the true
	// fault rate far off the calibrated band. The canary (every
	// detection here) must notice and recalibrate the depth for the
	// hotter silicon.
	depthBefore := sup.Session().Depth()
	if err := env.Trigger(chaos.Rule{Kind: chaos.ThermalExcursion, Magnitude: 40, Duration: 10000}); err != nil {
		t.Fatal(err)
	}
	// The rate the hot silicon would produce at the old depth.
	drifted := env.Profile().ErrorRate(depthBefore, env.Temperature())
	// Sanity: the drift is actually outside the tolerance band.
	if drifted < target*1.35 {
		t.Fatalf("excursion too small to matter: %v", drifted)
	}
	check("thermal drift", false)
	h := sup.Health()
	if h.Drifts == 0 || h.Recalibrations == 0 {
		t.Fatalf("canary missed the drift: %+v", h)
	}
	depthAfter := sup.Session().Depth()
	if depthAfter >= depthBefore {
		t.Errorf("hotter silicon must need a shallower depth: %v -> %v", depthBefore, depthAfter)
	}
	// The recalibrated operating point is back inside the band.
	rate, err := sup.Session().ObserveRate(8000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-target) > target*0.35 {
		t.Errorf("recalibrated rate = %v, want within 35%% of %v", rate, target)
	}
	if !sup.Session().AtNominal() {
		t.Fatal("canary left the plane undervolted")
	}

	// Phase 4 — the regulator dies for good: the breaker trips
	// immediately and every subsequent request still returns a
	// decision, flagged Unprotected, with the plane still nominal.
	if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err != nil {
		t.Fatal(err)
	}
	check("permanent death", true)
	if sup.State() != Degraded {
		t.Fatalf("state = %v, want Degraded", sup.State())
	}
	if h := sup.Health(); h.Trips == 0 {
		t.Errorf("breaker never tripped: %+v", h)
	}
	// Ride well past the cooldown: half-open probes keep failing
	// against the dead regulator and the supervisor keeps serving.
	for i := 0; i < 6; i++ {
		check("degraded", true)
	}
	h = sup.Health()
	if h.Detections != 10 || h.Unprotected < 7 {
		t.Errorf("health after death = %+v", h)
	}
	if h.Recoveries != 0 {
		t.Errorf("recovered from permanent death? %+v", h)
	}
}

// TestSupervisorDetectProgramIsBatchOfOne: DetectProgram is the batch
// path and nothing else. Twin supervisors built from the same seed on
// scripted chaos planes, one driven through DetectProgram and the
// other through DetectBatch with a batch of one, live through the same
// story — healthy, a transient MSR burst, a thermal excursion, then
// permanent regulator death with failing half-open probes — and must
// return the same verdict bits and Health after every step.
func TestSupervisorDetectProgramIsBatchOfOne(t *testing.T) {
	d, _ := fixtures(t)
	w := d.Programs[0].Windows
	build := func() (*Supervisor, *chaos.Env) {
		s, env := chaosFixture(t, chaos.Config{Seed: 53})
		sup, err := NewSupervisor(s, SupervisorConfig{
			Sleep:            func(time.Duration) {},
			CanaryEvery:      1,
			CanaryMuls:       6000,
			BreakerThreshold: 2,
			BreakerCooldown:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sup, env
	}
	single, envSingle := build()
	batch, envBatch := build()
	trigger := func(r chaos.Rule) {
		t.Helper()
		for _, env := range []*chaos.Env{envSingle, envBatch} {
			if err := env.Trigger(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(phase string) {
		t.Helper()
		v, err := single.DetectProgram(w)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		vb, logs, err := batch.DetectBatch([][]trace.WindowCounts{w}, false)
		if err != nil || len(vb) != 1 || logs != nil {
			t.Fatalf("%s: batch of one: %v, logs %v, err %v", phase, vb, logs, err)
		}
		if v.Malware != vb[0].Malware || math.Float64bits(v.Score) != math.Float64bits(vb[0].Score) ||
			v.Unprotected != vb[0].Unprotected || v.Attempts != vb[0].Attempts {
			t.Fatalf("%s: DetectProgram %+v, batch of one %+v", phase, v, vb[0])
		}
		if hs, hb := single.Health(), batch.Health(); hs != hb {
			t.Fatalf("%s: health %+v, batch twin %+v", phase, hs, hb)
		}
	}

	step("healthy")
	trigger(chaos.Rule{Kind: chaos.TransientMSR, Duration: 2})
	step("transient burst")
	trigger(chaos.Rule{Kind: chaos.ThermalExcursion, Magnitude: 40, Duration: 10000})
	step("thermal drift")
	trigger(chaos.Rule{Kind: chaos.PermanentMSR})
	for i := 0; i < 6; i++ {
		step(fmt.Sprintf("dead %d", i))
	}
	h := single.Health()
	if h.Retries == 0 || h.Recalibrations == 0 || h.Trips == 0 || h.Unprotected < 6 || h.Recoveries != 0 {
		t.Errorf("story did not unfold: %+v", h)
	}
}

func TestSupervisorBreakerRecovers(t *testing.T) {
	d, _ := fixtures(t)
	s, env := chaosFixture(t, chaos.Config{Seed: 29})
	sup, err := NewSupervisor(s, SupervisorConfig{
		Sleep:            func(time.Duration) {},
		CanaryEvery:      -1,
		MaxRetries:       1,
		BreakerThreshold: 1,
		BreakerCooldown:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := d.Programs[1].Windows

	// A long transient burst exhausts the retries and trips the
	// breaker on the first detection.
	if err := env.Trigger(chaos.Rule{Kind: chaos.TransientMSR, Duration: 8}); err != nil {
		t.Fatal(err)
	}
	v, err := sup.DetectProgram(w)
	if err != nil || !v.Unprotected {
		t.Fatalf("burst must degrade: v=%+v err=%v", v, err)
	}
	if sup.State() != Degraded {
		t.Fatalf("state = %v", sup.State())
	}

	// Degraded detections ride the cooldown; the burst meanwhile
	// dissipates (fail-safe restores consume it), so the half-open
	// probe succeeds and the breaker closes.
	var recovered bool
	for i := 0; i < 6; i++ {
		v, err := sup.DetectProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Unprotected {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("breaker never recovered: %+v", sup.Health())
	}
	h := sup.Health()
	if h.Recoveries != 1 || h.State != Healthy {
		t.Errorf("health = %+v", h)
	}
	// After recovery, protected detection works again.
	v, err = sup.DetectProgram(w)
	if err != nil || v.Unprotected {
		t.Fatalf("post-recovery detection: v=%+v err=%v", v, err)
	}
}

func TestSupervisorUnderDefaultChaos(t *testing.T) {
	// Soak: the stock chaos ruleset with every fault kind armed. The
	// supervisor must return a decision for every single request and
	// end every request at nominal voltage.
	d, _ := fixtures(t)
	s, env := chaosFixture(t, chaos.DefaultConfig(31))
	sup, err := NewSupervisor(s, SupervisorConfig{
		Sleep:       func(time.Duration) {},
		CanaryEvery: 4,
		CanaryMuls:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := d.Programs[2].Windows
	for i := 0; i < 40; i++ {
		v, err := sup.DetectProgram(w)
		if err != nil {
			t.Fatalf("request %d errored: %v", i, err)
		}
		if v.Score < 0 || v.Score > 1 {
			t.Fatalf("request %d: score %v", i, v.Score)
		}
		if !sup.Session().AtNominal() {
			t.Fatalf("request %d left the plane undervolted", i)
		}
	}
	h := sup.Health()
	if h.Detections != 40 {
		t.Errorf("detections = %d", h.Detections)
	}
	if ev := env.Events(); ev.Transients == 0 {
		t.Errorf("soak injected nothing: %+v", ev)
	}
}

func TestSupervisorStateString(t *testing.T) {
	for st := Healthy; st <= Degraded; st++ {
		if st.String() == "" {
			t.Errorf("State(%d) unnamed", int(st))
		}
	}
}
