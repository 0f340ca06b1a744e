package core

import (
	"errors"
	"fmt"
	"sync"

	"shmd/internal/fxp"
)

// Session implements the Section IX deployment protocol for systems
// that cannot dedicate a whole core to detection: "the voltage needs
// to be undervolted directly after entering the TEE and scaled back to
// the nominal voltage just before exiting the TEE". Undervolting is
// applied only while the detector's own inference runs, so
// timing-violation faults never reach the rest of the system.
//
// A Session wraps a StochasticHMD; every detection enters (undervolts),
// infers, and exits (restores nominal) — even on panic — and the
// voltage is verifiably nominal between detections.
//
// A Session is safe for concurrent use: detections serialize on an
// internal mutex, so the enter/infer/exit protocol state can never be
// corrupted by overlapping calls.
type Session struct {
	mu sync.Mutex
	s  *StochasticHMD
	// depthMV is the calibrated detection-time undervolt depth.
	depthMV float64
	// entered tracks protocol state for misuse detection.
	entered bool
}

// NewSession captures the detector's calibrated operating point and
// restores nominal voltage until the first detection.
func NewSession(s *StochasticHMD) (*Session, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil detector")
	}
	sess := &Session{s: s, depthMV: s.reg.UndervoltMV()}
	if err := sess.exit(); err != nil {
		return nil, err
	}
	return sess, nil
}

// Depth returns the detection-time undervolt depth the session applies
// on enter.
func (sess *Session) Depth() float64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.depthMV
}

// enter scales the voltage down for detection. Callers hold sess.mu.
func (sess *Session) enter() error {
	if sess.entered {
		return fmt.Errorf("core: session already entered")
	}
	if err := sess.s.reg.SetUndervolt(Owner, sess.depthMV); err != nil {
		return err
	}
	// The fault rate follows the device curve at the restored depth.
	if err := sess.s.inj.SetRate(sess.s.reg.ErrorRate()); err != nil {
		// Roll the plane back to nominal: it must never be left
		// undervolted while the protocol state says "not entered".
		if rbErr := sess.s.reg.SetUndervolt(Owner, 0); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	sess.entered = true
	return nil
}

// exit restores nominal voltage; the injector rate drops to zero with
// it, so any computation outside detection is exact. The protocol
// state always clears — a failed restore must not wedge the session —
// and both restores are attempted even if the first fails, so a
// partial failure degrades as little as possible. Callers hold
// sess.mu.
func (sess *Session) exit() error {
	sess.entered = false
	errV := sess.s.reg.SetUndervolt(Owner, 0)
	errR := sess.s.inj.SetRate(0)
	return errors.Join(errV, errR)
}

// ForceNominal unconditionally restores nominal voltage and a zero
// fault rate, clearing any in-flight protocol state. Supervisors call
// it as the fail-safe after a faulted detection cycle.
func (sess *Session) ForceNominal() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.exit()
}

// Recalibrate re-derives the detection-time undervolt depth so the
// device produces the target fault rate at the current temperature —
// the dynamic adjustment Section IX calls for when the environment
// drifts — and adopts it as the session operating point. Outside a
// detection the plane is returned to nominal.
func (sess *Session) Recalibrate(rate float64) (float64, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	depth, err := sess.s.reg.CalibrateToRate(Owner, rate)
	if err != nil {
		return 0, err
	}
	sess.depthMV = depth
	if !sess.entered {
		if err := sess.s.reg.SetUndervolt(Owner, 0); err != nil {
			return depth, err
		}
	}
	return depth, nil
}

// AtNominal reports whether the plane currently sits at nominal
// voltage (true whenever no detection is in flight).
func (sess *Session) AtNominal() bool {
	return sess.s.reg.UndervoltMV() == 0
}

// ObserveRate runs one enter → probe → exit cycle that streams n
// known-answer multiplications through the undervolted multiplier and
// returns the observed fault fraction. This is the canary a
// supervisor uses to detect that the effective operating point has
// drifted away from calibration: any product differing from the exact
// one is a fault (a timing-violation flip always changes the product).
func (sess *Session) ObserveRate(n int) (rate float64, err error) {
	if n <= 0 {
		return 0, fmt.Errorf("core: canary length %d < 1", n)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.enter(); err != nil {
		return 0, err
	}
	defer func() {
		if exitErr := sess.exit(); exitErr != nil && err == nil {
			err = exitErr
		}
	}()
	// Arbitrary non-trivial operands; the injector's flips are
	// operand-independent, so any fixed pair measures the true rate.
	const a, b = fxp.Value(24571), fxp.Value(-13007)
	want := fxp.Exact{}.Mul(a, b)
	faulted := 0
	for i := 0; i < n; i++ {
		if sess.s.inj.Mul(a, b) != want {
			faulted++
		}
	}
	return float64(faulted) / float64(n), nil
}
