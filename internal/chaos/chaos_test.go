package chaos

import (
	"errors"
	"math"
	"testing"

	"shmd/internal/volt"
)

func newEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(nil, Config{}); err == nil {
		t.Error("nil regulator must be rejected")
	}
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rules: []Rule{{Kind: Kind(99), P: 0.1}}},
		{Rules: []Rule{{Kind: TransientMSR, P: 1.5}}},
		{Rules: []Rule{{Kind: SupplyDroop, P: 0.1, Duration: -1}}},
		{CrashMarginMV: -3},
	}
	for i, cfg := range bad {
		if _, err := NewEnv(reg, cfg); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
}

func TestTransparentWithoutRules(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.SetUndervolt("x", 130); err != nil {
		t.Fatal(err)
	}
	if got := env.UndervoltMV(); got != 130 {
		t.Errorf("depth = %v", got)
	}
	want := env.Regulator().ErrorRate()
	if got := env.ErrorRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("error rate %v, regulator says %v", got, want)
	}
	if err := env.SetUndervolt("x", 0); err != nil {
		t.Fatal(err)
	}
}

func TestScriptedTransientBurst(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.Trigger(Rule{Kind: TransientMSR, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := env.SetUndervolt("x", 100)
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("write %d: err = %v, want ErrTransient", i, err)
		}
		if volt.Permanent(err) {
			t.Errorf("transient fault misclassified: %v", err)
		}
	}
	if err := env.SetUndervolt("x", 100); err != nil {
		t.Fatalf("burst must clear after 2 writes: %v", err)
	}
	if ev := env.Events(); ev.Transients != 2 {
		t.Errorf("transients = %d", ev.Transients)
	}
}

func TestPermanentDeath(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.Trigger(Rule{Kind: PermanentMSR}); err != nil {
		t.Fatal(err)
	}
	if !env.Dead() {
		t.Fatal("env not dead after permanent trigger")
	}
	err := env.SetUndervolt("x", 100)
	if !errors.Is(err, ErrPermanent) || !volt.Permanent(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if err := env.Lock("y"); !errors.Is(err, ErrPermanent) {
		t.Errorf("Lock on dead env: %v", err)
	}
	// Reads survive: the sensor path outlives the write path.
	if got := env.UndervoltMV(); got != 0 {
		t.Errorf("depth readable = %v", got)
	}
	if got := env.SupplyVoltage(); got != volt.NominalVoltage {
		t.Errorf("supply = %v", got)
	}
}

func TestLockContentionWindow(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.Trigger(Rule{Kind: LockContention, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	if err := env.Lock("x"); !errors.Is(err, ErrContended) {
		t.Errorf("Lock during contention: %v", err)
	}
	// Writes tick the window down while failing.
	if err := env.SetUndervolt("x", 50); !errors.Is(err, ErrContended) {
		t.Errorf("write 1: %v", err)
	}
	if err := env.SetUndervolt("x", 50); !errors.Is(err, ErrContended) {
		t.Errorf("write 2: %v", err)
	}
	if err := env.SetUndervolt("x", 50); err != nil {
		t.Fatalf("contention must clear: %v", err)
	}
}

func TestThermalExcursionDriftsRate(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.SetUndervolt("x", 130); err != nil {
		t.Fatal(err)
	}
	calm := env.ErrorRate()
	if err := env.Trigger(Rule{Kind: ThermalExcursion, Magnitude: 40, Duration: 3}); err != nil {
		t.Fatal(err)
	}
	if got := env.Temperature(); math.Abs(got-(volt.ReferenceTempC+40)) > 1e-9 {
		t.Errorf("temperature = %v", got)
	}
	hot := env.ErrorRate()
	if hot <= calm {
		t.Errorf("excursion must raise the fault rate: %v -> %v", calm, hot)
	}
	// Age the excursion out: three writes.
	for i := 0; i < 3; i++ {
		if err := env.SetUndervolt("x", 130); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.Temperature(); math.Abs(got-volt.ReferenceTempC) > 1e-9 {
		t.Errorf("temperature after expiry = %v", got)
	}
	if got := env.ErrorRate(); math.Abs(got-calm) > 1e-12 {
		t.Errorf("rate after expiry = %v, want %v", got, calm)
	}
}

func TestSupplyDroopRaisesEffectiveDepth(t *testing.T) {
	env := newEnv(t, Config{Seed: 1})
	if err := env.SetUndervolt("x", 130); err != nil {
		t.Fatal(err)
	}
	calm := env.ErrorRate()
	if err := env.Trigger(Rule{Kind: SupplyDroop, Magnitude: 30, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	if got := env.droopMV; got != 30 {
		t.Errorf("droop = %v", got)
	}
	if got := env.ErrorRate(); got <= calm {
		t.Errorf("droop must raise the fault rate: %v -> %v", calm, got)
	}
	wantSupply := volt.SupplyVoltageAt(160)
	if got := env.SupplyVoltage(); math.Abs(got-wantSupply) > 1e-12 {
		t.Errorf("supply = %v, want %v", got, wantSupply)
	}
	// The commanded depth is unchanged — droop is uncommanded sag.
	if got := env.UndervoltMV(); got != 130 {
		t.Errorf("commanded depth = %v", got)
	}
}

func TestCrashInsideMargin(t *testing.T) {
	env := newEnv(t, Config{
		Seed:          1,
		Rules:         []Rule{{Kind: Crash, P: 1, Duration: 2}},
		CrashMarginMV: 12,
	})
	freeze := env.Profile().FreezeMV
	// Outside the margin: safe.
	if err := env.SetUndervolt("x", freeze-20); err != nil {
		t.Fatalf("safe depth crashed: %v", err)
	}
	// Inside the margin: crashes with P=1, and the watchdog reboot
	// fails the write and forces the rail to nominal.
	err := env.SetUndervolt("x", freeze-5)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if env.crashLeft == 0 {
		t.Error("env not mid-reboot")
	}
	if got := env.UndervoltMV(); got != 0 {
		t.Errorf("crash must reset the rail to nominal, depth = %v", got)
	}
	// Writes fail for the reboot's duration, then recover.
	for i := 0; i < 2; i++ {
		if err := env.SetUndervolt("x", 50); !errors.Is(err, ErrCrashed) {
			t.Errorf("write %d during reboot: %v", i, err)
		}
	}
	if err := env.SetUndervolt("x", 50); err != nil {
		t.Fatalf("reboot must complete: %v", err)
	}
	if ev := env.Events(); ev.Crashes != 1 {
		t.Errorf("crashes = %d", ev.Crashes)
	}
}

func TestSeededRulesReproduce(t *testing.T) {
	run := func() (Events, []error) {
		env := newEnv(t, Config{
			Seed: 42,
			Rules: []Rule{
				{Kind: TransientMSR, P: 0.3},
				{Kind: SupplyDroop, P: 0.1, Duration: 3, Magnitude: 20},
			},
		})
		var errs []error
		for i := 0; i < 200; i++ {
			errs = append(errs, env.SetUndervolt("x", 120))
		}
		return env.Events(), errs
	}
	ev1, errs1 := run()
	ev2, errs2 := run()
	if ev1 != ev2 {
		t.Errorf("events diverged: %+v vs %+v", ev1, ev2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("write %d diverged: %v vs %v", i, errs1[i], errs2[i])
		}
	}
	if ev1.Transients == 0 {
		t.Error("no transients injected in 200 writes at P=0.3")
	}
	if ev1.Droops == 0 {
		t.Error("no droops injected in 200 writes at P=0.1")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	env := newEnv(t, DefaultConfig(7))
	// A long write sequence under the default rules must never wedge:
	// every fault either clears by itself or is transient.
	okStreak := 0
	for i := 0; i < 500; i++ {
		if err := env.SetUndervolt("x", 120); err == nil {
			okStreak++
		}
	}
	if okStreak < 300 {
		t.Errorf("default rules too hostile: only %d/500 writes succeeded", okStreak)
	}
	if env.Dead() {
		t.Error("default rules must not include permanent death")
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String()[:5] == "chaos" {
			t.Errorf("Kind(%d) has no name", int(k))
		}
	}
}
