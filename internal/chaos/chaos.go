// Package chaos perturbs the environment the Stochastic-HMD operates
// in. The paper's deployment (Section IX) holds the detection core
// just above crash voltage, where real hardware is anything but ideal:
// MSR writes to the overclocking mailbox fail transiently, other
// agents contend for the voltage plane, die temperature drifts the
// fault rate away from its calibration, supply droop pushes the
// effective depth toward the crash margin, and the regulator itself
// can die. Package volt models none of that — its Regulator is an
// ideal device — so this package wraps a Regulator in an Env that
// injects exactly those faults, driven by seeded per-operation
// probability rules plus deterministic scripted triggers.
//
// The shape follows rule-driven fault-injection middleware (one rule
// per fault kind, each with a probability and, for stateful kinds, a
// duration and magnitude); the consumer is core.Supervisor, which must
// ride through everything injected here.
package chaos

import (
	"errors"
	"fmt"
)

// Kind enumerates the environmental fault taxonomy.
type Kind int

const (
	// TransientMSR fails a single voltage-plane write; the next
	// attempt succeeds. Models mailbox timeouts and bus glitches.
	TransientMSR Kind = iota
	// PermanentMSR kills the regulator: every subsequent write fails
	// forever. Models a failed VR or revoked undervolting interface.
	PermanentMSR
	// LockContention makes writes fail while another agent holds the
	// voltage-plane mailbox; clears after Duration writes.
	LockContention
	// ThermalExcursion shifts the die temperature by Magnitude °C for
	// Duration writes, drifting the effective fault rate away from the
	// calibrated operating point (hotter silicon faults at shallower
	// undervolt).
	ThermalExcursion
	// SupplyDroop adds Magnitude mV of uncommanded sag to the
	// effective depth for Duration writes — the fault rate rises and
	// the crash margin shrinks without any MSR write.
	SupplyDroop
	// Crash hangs the detection core when a write lands the effective
	// depth inside the crash margin; the watchdog reboots the plane to
	// nominal over Duration writes, during which writes fail.
	Crash
	numKinds
)

// String names the fault kind for logs and health reports.
func (k Kind) String() string {
	switch k {
	case TransientMSR:
		return "transient-msr"
	case PermanentMSR:
		return "permanent-msr"
	case LockContention:
		return "lock-contention"
	case ThermalExcursion:
		return "thermal-excursion"
	case SupplyDroop:
		return "supply-droop"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("chaos.Kind(%d)", int(k))
	}
}

// Rule arms one fault kind. P is the per-write probability of the
// fault firing; Duration is how many plane writes a stateful fault
// persists (contention, excursion, droop, crash reboot); Magnitude is
// the fault size (°C for ThermalExcursion, mV for SupplyDroop).
type Rule struct {
	Kind      Kind
	P         float64
	Duration  int
	Magnitude float64
}

func (r Rule) validate() error {
	if r.Kind < 0 || r.Kind >= numKinds {
		return fmt.Errorf("chaos: unknown fault kind %d", int(r.Kind))
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("chaos: %v probability %v outside [0,1]", r.Kind, r.P)
	}
	switch r.Kind {
	case LockContention, ThermalExcursion, SupplyDroop, Crash:
		if r.Duration < 0 {
			return fmt.Errorf("chaos: %v duration %d < 0", r.Kind, r.Duration)
		}
	}
	return nil
}

// duration returns the rule's persistence, defaulted for stateful
// kinds armed without one.
func (r Rule) duration() int {
	if r.Duration > 0 {
		return r.Duration
	}
	return defaultDuration
}

const defaultDuration = 8

// Config configures an Env. Rules may repeat a kind; each rule rolls
// independently per write.
type Config struct {
	// Seed drives the fault stream; runs with the same seed inject
	// the same faults at the same writes.
	Seed uint64
	// Rules is the armed probabilistic fault set. An empty set makes
	// the Env a transparent wrapper that only fires scripted triggers.
	Rules []Rule
	// CrashMarginMV is how close (mV) the effective depth — commanded
	// depth plus droop — may come to the device freeze depth before a
	// write risks a crash. Zero selects DefaultCrashMarginMV.
	CrashMarginMV float64
}

// DefaultCrashMarginMV is the crash-risk band below the freeze depth.
const DefaultCrashMarginMV = 12.0

// DefaultConfig arms every fault kind at modest rates — enough that a
// long detection run exercises each, while any single detection almost
// always needs at most a retry or two.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		Rules: []Rule{
			{Kind: TransientMSR, P: 0.02},
			{Kind: LockContention, P: 0.004, Duration: 3},
			{Kind: ThermalExcursion, P: 0.004, Duration: 40, Magnitude: 35},
			{Kind: SupplyDroop, P: 0.004, Duration: 20, Magnitude: 25},
			{Kind: Crash, P: 0.5, Duration: 6},
		},
		CrashMarginMV: DefaultCrashMarginMV,
	}
}

// Sentinel errors for injected faults. Callers classify retryability
// with volt.Permanent (the Permanent() method the error values carry)
// rather than matching sentinels directly: every other injected fault
// is worth retrying.
var (
	ErrTransient = errors.New("chaos: transient MSR write failure")
	ErrPermanent = errors.New("chaos: voltage regulator failed permanently")
	ErrContended = errors.New("chaos: voltage-plane mailbox held by another agent")
	ErrCrashed   = errors.New("chaos: detection core crashed, watchdog rebooting")
)

// planeError is the concrete injected-fault error: it unwraps to its
// sentinel and reports permanence, which volt.Permanent reads through
// interface{ Permanent() bool }.
type planeError struct {
	sentinel error
	perm     bool
	detail   string
}

func (e *planeError) Error() string {
	if e.detail == "" {
		return e.sentinel.Error()
	}
	return e.sentinel.Error() + ": " + e.detail
}

func (e *planeError) Unwrap() error   { return e.sentinel }
func (e *planeError) Permanent() bool { return e.perm }

// Events counts injected faults by kind, plus the writes observed —
// the Env-side half of the health picture (core.Supervisor holds the
// recovery-side half).
type Events struct {
	Writes      uint64
	Transients  uint64
	Permanents  uint64
	Contentions uint64
	Excursions  uint64
	Droops      uint64
	Crashes     uint64
}
