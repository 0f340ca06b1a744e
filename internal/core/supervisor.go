package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shmd/internal/hmd"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// Supervisor keeps a detection Session alive in a hostile environment.
// The paper's operating point sits just above crash voltage, where a
// real regulator fails transiently, the mailbox gets contended, and
// temperature or supply drift silently move the fault rate off its
// calibrated, accuracy-preserving band. The supervisor's contract is
// fail-safe availability: every detection request returns a decision.
//
// It layers four mechanisms over the bare Session:
//
//   - bounded retry with exponential backoff on faulted cycles;
//   - a circuit breaker that trips after repeated failures (or at once
//     on a permanent fault) into degraded mode — deterministic
//     nominal-voltage detection with decisions flagged Unprotected —
//     and half-open probes that restore protected mode when the
//     environment heals;
//   - periodic known-answer canary probes that measure the fault rate
//     the silicon actually produces and, when it leaves the tolerance
//     band around the calibrated target, recalibrate the undervolt
//     depth at the current temperature;
//   - health counters exposing every recovery action taken.
//
// State machine: Healthy → Retrying (transient faults being absorbed)
// → Degraded (breaker open, Unprotected decisions) → Healthy again
// (recovery probe succeeded; Health.Recoveries increments).
//
// A Supervisor is safe for concurrent use.
type Supervisor struct {
	mu   sync.Mutex
	s    *StochasticHMD
	sess *Session
	cfg  SupervisorConfig

	// targetRate is the calibrated operating-point fault rate the
	// canary defends.
	targetRate float64

	// breaker is the shared circuit-breaker state machine, driven by a
	// virtual clock that advances one nanosecond per degraded
	// detection: BreakerCooldown is therefore measured in degraded
	// detections served, exactly as the supervisor's original inline
	// counter did, while the router reuses the same Breaker against
	// wall time. MaxCooldown is pinned to Cooldown so the half-open
	// backoff stays flat here (a fixed probe cadence keeps time-to-
	// recovery bounded for a plane that heals when the excursion ends).
	breaker *Breaker
	ticks   int64

	state             State
	sinceCanary       int
	consecCanaryFails int
	h                 Health
}

// State is the supervisor's position in its recovery state machine.
type State int

const (
	// Healthy: the last detection cycle succeeded without retries.
	Healthy State = iota
	// Retrying: recent cycles needed retries or failed, but the
	// breaker has not tripped; detections are still protected.
	Retrying
	// Degraded: the breaker is open; detections run deterministically
	// at nominal voltage and are flagged Unprotected.
	Degraded
)

// String names the state for logs and health reports.
func (st State) String() string {
	switch st {
	case Healthy:
		return "healthy"
	case Retrying:
		return "retrying"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("core.State(%d)", int(st))
	}
}

// SupervisorConfig tunes the recovery machinery. The zero value
// selects the documented defaults.
type SupervisorConfig struct {
	// MaxRetries is how many times a faulted detection cycle is
	// retried before counting as a failure (default 3).
	MaxRetries int
	// Backoff is the sleep before the first retry; it doubles per
	// retry up to MaxBackoff (defaults 500µs and 8ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Sleep is the backoff clock (default time.Sleep); tests inject a
	// recorder to avoid real sleeps.
	Sleep func(time.Duration)
	// CanaryEvery is the number of successful protected detections
	// between known-answer canary probes (default 8; negative
	// disables probing).
	CanaryEvery int
	// CanaryMuls is the probe length in multiplications (default
	// 4096). Longer probes resolve smaller drifts.
	CanaryMuls int
	// RateTolerance is the relative band around the target fault rate
	// the canary accepts before recalibrating (default 0.35).
	RateTolerance float64
	// BreakerThreshold is how many consecutive failed detection
	// cycles trip the breaker (default 3). A permanent fault trips it
	// immediately.
	BreakerThreshold int
	// BreakerCooldown is how many degraded detections pass before a
	// half-open probe retries protected detection (default 8).
	BreakerCooldown int
}

func (cfg SupervisorConfig) withDefaults() SupervisorConfig {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 500 * time.Microsecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 8 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.CanaryEvery == 0 {
		cfg.CanaryEvery = 8
	}
	if cfg.CanaryMuls == 0 {
		cfg.CanaryMuls = 4096
	}
	if cfg.RateTolerance == 0 {
		cfg.RateTolerance = 0.35
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 8
	}
	return cfg
}

// Health is the supervisor's counter block: everything the recovery
// machinery has done, for observability.
type Health struct {
	State State
	// Detections is the total requests served; Protected of them ran
	// undervolted, Unprotected ran degraded at nominal voltage.
	Detections  uint64
	Protected   uint64
	Unprotected uint64
	// Retries counts individual cycle retries; Failures counts
	// detection requests whose protected attempts were all faulted.
	Retries  uint64
	Failures uint64
	// Trips and Recoveries count breaker transitions.
	Trips      uint64
	Recoveries uint64
	// Canaries counts probes run; Drifts how many found the observed
	// rate outside the tolerance band; Recalibrations how many depth
	// recalibrations succeeded.
	Canaries       uint64
	Drifts         uint64
	Recalibrations uint64
	// CanaryFailures counts probes whose every attempt faulted (no rate
	// reading obtained); CanaryFailStreak is the current run of
	// consecutive failed probes — a rising streak means the plane can no
	// longer be measured at all, the terminal-degradation signal pool
	// lifecycle management quarantines on.
	CanaryFailures   uint64
	CanaryFailStreak uint64
	// LastCanaryRate is the fault rate the most recent successful
	// canary probe observed (meaningful once Canaries > 0) — the online
	// fault-rate reading monitoring systems compare against the target.
	LastCanaryRate float64
}

// Verdict is a supervised detection result.
type Verdict struct {
	hmd.Decision
	// Unprotected marks a degraded decision: the inference ran
	// deterministically at nominal voltage, so it carries none of the
	// moving-target protection. Consumers treating such decisions as
	// authoritative do so at their own risk.
	Unprotected bool
	// Attempts is the number of protected cycles tried (0 when the
	// breaker was already open).
	Attempts int
}

// NewSupervisor wraps the detector in a self-healing session. The
// detector's current fault rate becomes the canary target; the plane
// is restored to nominal until the first detection.
func NewSupervisor(s *StochasticHMD, cfg SupervisorConfig) (*Supervisor, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil detector")
	}
	target := s.ErrorRate()
	sess, err := NewSession(s)
	if err != nil {
		return nil, err
	}
	sup := &Supervisor{
		s:          s,
		sess:       sess,
		cfg:        cfg.withDefaults(),
		targetRate: target,
	}
	sup.breaker = NewBreaker(BreakerConfig{
		Threshold:   sup.cfg.BreakerThreshold,
		Cooldown:    time.Duration(sup.cfg.BreakerCooldown),
		MaxCooldown: time.Duration(sup.cfg.BreakerCooldown),
		Now:         func() time.Time { return time.Unix(0, sup.ticks) },
	})
	return sup, nil
}

// Session exposes the supervised session (demos inspect its depth and
// nominal-voltage invariant).
func (sup *Supervisor) Session() *Session { return sup.sess }

// TargetRate returns the calibrated fault rate the canary defends.
func (sup *Supervisor) TargetRate() float64 { return sup.targetRate }

// Health returns a snapshot of the recovery counters.
func (sup *Supervisor) Health() Health {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	h := sup.h
	h.State = sup.state
	return h
}

// State returns the supervisor's current recovery state.
func (sup *Supervisor) State() State {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return sup.state
}

// DetectProgram serves one detection request as a batch of one
// through DetectBatch, whose recovery rules, counters and error
// contract it shares.
func (sup *Supervisor) DetectProgram(windows []trace.WindowCounts) (Verdict, error) {
	v, _, err := sup.DetectBatch([][]trace.WindowCounts{windows}, false)
	if err != nil {
		return Verdict{}, err
	}
	return v[0], nil
}

// canary probes the true fault rate and recalibrates when it has
// drifted outside the tolerance band. Probe faults count as retries
// but never fail the detection that triggered them. Callers hold
// sup.mu.
func (sup *Supervisor) canary() {
	sup.h.Canaries++
	var observed float64
	err := errors.New("unprobed")
	for attempt := 0; attempt <= sup.cfg.MaxRetries && err != nil; attempt++ {
		if attempt > 0 {
			sup.h.Retries++
			sup.backoff(attempt)
		}
		observed, err = sup.sess.ObserveRate(sup.cfg.CanaryMuls)
		if err != nil && volt.Permanent(err) {
			break
		}
	}
	if err != nil {
		sup.h.CanaryFailures++
		sup.consecCanaryFails++
		sup.h.CanaryFailStreak = uint64(sup.consecCanaryFails)
		sup.failSafe()
		return
	}
	sup.consecCanaryFails = 0
	sup.h.CanaryFailStreak = 0
	sup.h.LastCanaryRate = observed
	lo := sup.targetRate * (1 - sup.cfg.RateTolerance)
	hi := sup.targetRate * (1 + sup.cfg.RateTolerance)
	if observed >= lo && observed <= hi {
		return
	}
	sup.h.Drifts++
	if _, err := sup.sess.Recalibrate(sup.targetRate); err == nil {
		sup.h.Recalibrations++
	} else {
		sup.failSafe()
	}
}

// failSafe insists the plane sits at nominal voltage with a zero
// fault rate, retrying through transient faults. With a dead
// regulator this cannot succeed; reads still verify the plane never
// left nominal in that case. Callers hold sup.mu.
func (sup *Supervisor) failSafe() {
	for i := 0; i <= sup.cfg.MaxRetries; i++ {
		if err := sup.sess.ForceNominal(); err == nil {
			return
		}
	}
}

// backoff sleeps for the attempt's exponential backoff. Callers hold
// sup.mu.
func (sup *Supervisor) backoff(attempt int) {
	d := sup.cfg.Backoff << uint(attempt-1)
	if d > sup.cfg.MaxBackoff || d <= 0 {
		d = sup.cfg.MaxBackoff
	}
	sup.cfg.Sleep(d)
}
