package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"shmd/internal/rng"
	"shmd/internal/volt"
)

// Env wraps a volt.Regulator and presents the same voltage-plane
// surface (it satisfies core.Plane structurally), but every write may
// suffer an injected environmental fault, and the effective operating
// point — temperature, supply — drifts underneath the caller between
// calibrations. Reads stay truthful: sensors keep working even when
// the write path is dead, which is what lets a supervisor verify the
// plane is nominal after a failure.
//
// Stateful fault durations are counted in plane writes (SetUndervolt,
// CalibrateToRate, SetTemperature); a typical detection cycle performs
// two (enter and exit).
//
// An Env is safe for concurrent use.
type Env struct {
	mu  sync.Mutex
	reg *volt.Regulator
	cfg Config
	rnd *rand.Rand

	// baseTempC is the commanded die temperature; the regulator holds
	// baseTempC + driftC while an excursion is active.
	baseTempC float64
	driftC    float64
	driftLeft int

	droopMV   float64
	droopLeft int

	contendLeft int
	crashLeft   int
	dead        bool

	// pendingTransients is the scripted transient burst: that many
	// upcoming writes fail.
	pendingTransients int

	ev Events
}

// NewEnv wraps reg in a fault-injecting environment.
func NewEnv(reg *volt.Regulator, cfg Config) (*Env, error) {
	if reg == nil {
		return nil, fmt.Errorf("chaos: nil regulator")
	}
	for _, r := range cfg.Rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.CrashMarginMV == 0 {
		cfg.CrashMarginMV = DefaultCrashMarginMV
	}
	if cfg.CrashMarginMV < 0 {
		return nil, fmt.Errorf("chaos: negative crash margin %v", cfg.CrashMarginMV)
	}
	return &Env{
		reg:       reg,
		cfg:       cfg,
		rnd:       rng.NewRand(cfg.Seed, 0xC4A05),
		baseTempC: reg.Temperature(),
	}, nil
}

// Regulator returns the wrapped ideal device (tests and demos inspect
// it; production code talks only to the Env).
func (e *Env) Regulator() *volt.Regulator { return e.reg }

// Trigger fires a fault immediately, bypassing the probability rules —
// tests and demos script deterministic scenarios with it. For
// TransientMSR, Duration is the number of upcoming writes to fail
// (default 1); for the stateful kinds it is the persistence in writes.
func (e *Env) Trigger(r Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch r.Kind {
	case TransientMSR:
		n := r.Duration
		if n <= 0 {
			n = 1
		}
		e.pendingTransients += n
	case PermanentMSR:
		e.dead = true
		e.ev.Permanents++
	case LockContention:
		e.contendLeft = r.duration()
		e.ev.Contentions++
	case ThermalExcursion:
		e.driftC = r.Magnitude
		e.driftLeft = r.duration()
		e.applyTemp()
		e.ev.Excursions++
	case SupplyDroop:
		e.droopMV = r.Magnitude
		e.droopLeft = r.duration()
		e.ev.Droops++
	case Crash:
		e.crash(r.duration())
	}
	return nil
}

// Events returns a snapshot of the injected-fault counters.
func (e *Env) Events() Events {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ev
}

// Dead reports whether the regulator has failed permanently.
func (e *Env) Dead() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}

// --- the core.Plane surface -------------------------------------------

// Lock forwards to the regulator; a dead regulator or a contended
// mailbox rejects it. Lock attempts do not advance the environment.
func (e *Env) Lock(owner string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return permErr()
	}
	if e.contendLeft > 0 {
		return contendErr()
	}
	return e.reg.Lock(owner)
}

// Unlock forwards to the regulator.
func (e *Env) Unlock(owner string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return permErr()
	}
	return e.reg.Unlock(owner)
}

// Owner forwards to the regulator.
func (e *Env) Owner() string { return e.reg.Owner() }

// Profile forwards the device calibration.
func (e *Env) Profile() volt.DeviceProfile { return e.reg.Profile() }

// SetUndervolt is a plane write: the environment advances, injected
// faults may reject it, and a depth landing inside the crash margin
// (after droop) may crash the core.
func (e *Env) SetUndervolt(caller string, depthMV float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(); err != nil {
		return err
	}
	if err := e.reg.SetUndervolt(caller, depthMV); err != nil {
		return err
	}
	return e.maybeCrash(depthMV)
}

// CalibrateToRate is a plane write subject to the same injection as
// SetUndervolt; the depth it lands on is crash-checked too.
func (e *Env) CalibrateToRate(caller string, rate float64) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(); err != nil {
		return 0, err
	}
	depth, err := e.reg.CalibrateToRate(caller, rate)
	if err != nil {
		return 0, err
	}
	if err := e.maybeCrash(depth); err != nil {
		return 0, err
	}
	return depth, nil
}

// SetTemperature commands a new base die temperature (a plane write);
// an active excursion keeps drifting on top of it.
func (e *Env) SetTemperature(tempC float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(); err != nil {
		return err
	}
	if err := e.reg.SetTemperature(tempC); err != nil {
		return err
	}
	e.baseTempC = tempC
	e.applyTemp()
	return nil
}

// Temperature returns the true die temperature, drift included — the
// sensor a recalibration loop reads.
func (e *Env) Temperature() float64 { return e.reg.Temperature() }

// UndervoltMV returns the commanded depth below nominal.
func (e *Env) UndervoltMV() float64 { return e.reg.UndervoltMV() }

// SupplyVoltage returns the true rail voltage, droop included.
func (e *Env) SupplyVoltage() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return volt.SupplyVoltageAt(e.reg.UndervoltMV() + e.droopMV)
}

// ErrorRate returns the fault rate the silicon actually produces at
// the effective operating point — commanded depth plus droop, at the
// true (possibly drifted) temperature. This is what makes calibration
// drift observable: it can differ from the rate the caller calibrated
// for.
func (e *Env) ErrorRate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reg.Profile().ErrorRate(e.reg.UndervoltMV()+e.droopMV, e.reg.Temperature())
}

// --- fault machinery --------------------------------------------------

// advance moves the environment forward one plane write: armed rules
// roll, the write is rejected if a fault gates it, and stateful faults
// age by one write on the way out (so a fault with Duration n gates
// exactly n writes, counting the one that armed it). Callers hold
// e.mu.
func (e *Env) advance() error {
	if e.dead {
		return permErr()
	}
	e.ev.Writes++
	oneshot := e.sample()
	defer e.tick()
	if e.dead {
		return permErr()
	}
	if e.crashLeft > 0 {
		return crashErr()
	}
	if e.contendLeft > 0 {
		return contendErr()
	}
	if e.pendingTransients > 0 {
		e.pendingTransients--
		e.ev.Transients++
		return transientErr()
	}
	if oneshot {
		e.ev.Transients++
		return transientErr()
	}
	return nil
}

// tick ages the stateful faults by one write, restoring the
// environment when one expires.
func (e *Env) tick() {
	if e.crashLeft > 0 {
		e.crashLeft--
	}
	if e.contendLeft > 0 {
		e.contendLeft--
	}
	if e.droopLeft > 0 {
		e.droopLeft--
		if e.droopLeft == 0 {
			e.droopMV = 0
		}
	}
	if e.driftLeft > 0 {
		e.driftLeft--
		if e.driftLeft == 0 {
			e.driftC = 0
			e.applyTemp()
		}
	}
}

// sample rolls every armed rule for this write. Crash rules do not
// roll here — their P is the conditional crash probability applied
// when a write lands inside the crash margin (see maybeCrash).
func (e *Env) sample() (oneshotTransient bool) {
	for _, r := range e.cfg.Rules {
		if r.P <= 0 || r.Kind == Crash || e.rnd.Float64() >= r.P {
			continue
		}
		switch r.Kind {
		case TransientMSR:
			oneshotTransient = true
		case PermanentMSR:
			e.dead = true
			e.ev.Permanents++
		case LockContention:
			if e.contendLeft == 0 {
				e.contendLeft = r.duration()
				e.ev.Contentions++
			}
		case ThermalExcursion:
			if e.driftLeft == 0 {
				e.driftC = r.Magnitude
				e.driftLeft = r.duration()
				e.applyTemp()
				e.ev.Excursions++
			}
		case SupplyDroop:
			if e.droopLeft == 0 {
				e.droopMV = r.Magnitude
				e.droopLeft = r.duration()
				e.ev.Droops++
			}
		}
	}
	return oneshotTransient
}

// maybeCrash rolls the crash rule after a write landed depthMV: inside
// the crash margin (droop included), the core hangs with the rule's
// probability. Callers hold e.mu.
func (e *Env) maybeCrash(depthMV float64) error {
	margin := e.reg.Profile().FreezeMV - e.cfg.CrashMarginMV
	if depthMV+e.droopMV < margin {
		return nil
	}
	for _, r := range e.cfg.Rules {
		if r.Kind != Crash || r.P <= 0 {
			continue
		}
		if e.rnd.Float64() < r.P {
			e.crash(r.duration())
			return crashErr()
		}
	}
	return nil
}

// crash hangs the plane: the watchdog reboot forces the rail back to
// nominal (the fail-safe a real reset gives you) and rejects writes
// for n more writes. Callers hold e.mu.
func (e *Env) crash(n int) {
	e.crashLeft = n
	e.ev.Crashes++
	owner := e.reg.Owner()
	if owner == "" {
		owner = "chaos-watchdog"
	}
	// The reboot cannot fail in the model; depth 0 is always legal.
	_ = e.reg.SetUndervolt(owner, 0)
}

// applyTemp pushes base + drift to the regulator, clamped to the
// sensor range. Callers hold e.mu.
func (e *Env) applyTemp() {
	t := e.baseTempC + e.driftC
	if t < -40 {
		t = -40
	}
	if t > 110 {
		t = 110
	}
	_ = e.reg.SetTemperature(t)
}

func transientErr() error { return &planeError{sentinel: ErrTransient} }
func contendErr() error   { return &planeError{sentinel: ErrContended} }
func crashErr() error     { return &planeError{sentinel: ErrCrashed} }
func permErr() error      { return &planeError{sentinel: ErrPermanent, perm: true} }
