package volt

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Trusted-control errors (Section III "Trusted control": the voltage
// regulator must be owned by the Stochastic-HMD IP or enclave,
// otherwise the adversary simply scales the voltage back to nominal
// and removes the defense).
var (
	ErrLocked      = errors.New("volt: regulator locked by another owner")
	ErrNotOwner    = errors.New("volt: caller does not own the regulator lock")
	ErrWrongPlane  = errors.New("volt: MSR write targets a different plane")
	ErrWouldFreeze = errors.New("volt: requested depth exceeds the freeze threshold")
	ErrOvervolt    = errors.New("volt: positive offsets (overvolting) are not permitted")
)

// Permanent reports whether err is a plane fault that no retry will
// clear: an error in its chain advertising Permanent() == true, the
// convention a fault-injecting plane (internal/chaos) follows. Every
// other plane error is worth retrying.
func Permanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// Regulator models one integrated voltage regulator (IVR): modern
// multi-core parts expose one per core, which is what lets the paper
// offload detection to a dedicated undervolted core while monitored
// applications keep running at nominal voltage on the others.
type Regulator struct {
	plane   int
	profile DeviceProfile
	tempC   float64

	depthMV float64
	owner   string

	// calibrations counts CalibrateToRate invocations. Calibration is
	// the expensive per-device flow of Section IX; a journal-backed
	// restart proves it skipped the flow by observing this counter.
	calibrations atomic.Uint64
}

// NewRegulator returns a nominal-voltage regulator for a plane.
func NewRegulator(plane int, profile DeviceProfile) (*Regulator, error) {
	if plane < 0 || plane > 7 {
		return nil, ErrBadPlane
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Regulator{plane: plane, profile: profile, tempC: ReferenceTempC}, nil
}

// Plane returns the voltage plane this regulator drives.
func (r *Regulator) Plane() int { return r.plane }

// Profile returns the device calibration in effect.
func (r *Regulator) Profile() DeviceProfile { return r.profile }

// Lock grants exclusive control to owner. It fails if another owner
// holds the lock. This is the co-processor/TEE dedication of the paper:
// "we can simply dedicate the control of one of the VRs to the
// Stochastic-HMD IP".
func (r *Regulator) Lock(owner string) error {
	if owner == "" {
		return fmt.Errorf("volt: empty owner name")
	}
	if r.owner != "" && r.owner != owner {
		return fmt.Errorf("%w (held by %q)", ErrLocked, r.owner)
	}
	r.owner = owner
	return nil
}

// Unlock releases the lock; only the current owner may release it.
func (r *Regulator) Unlock(owner string) error {
	if r.owner == "" {
		return nil
	}
	if r.owner != owner {
		return ErrNotOwner
	}
	r.owner = ""
	return nil
}

// Owner returns the current lock holder, or "" when unlocked.
func (r *Regulator) Owner() string { return r.owner }

// checkOwner enforces trusted control on state-changing operations.
func (r *Regulator) checkOwner(caller string) error {
	if r.owner != "" && r.owner != caller {
		return fmt.Errorf("%w: %q attempted a write", ErrNotOwner, caller)
	}
	return nil
}

// WriteMSR applies an MSR 0x150 offset write as caller. It enforces the
// lock, the plane, the no-overvolt policy, and the freeze threshold.
func (r *Regulator) WriteMSR(caller string, msr uint64) error {
	plane, offsetMV, err := DecodeOffsetWrite(msr)
	if err != nil {
		return err
	}
	if plane != r.plane {
		return fmt.Errorf("%w: got %d, regulator drives %d", ErrWrongPlane, plane, r.plane)
	}
	if offsetMV > 0 {
		return ErrOvervolt
	}
	return r.setDepth(caller, -offsetMV)
}

// SetUndervolt sets the undervolt depth (mV below nominal, >= 0)
// directly; the CLI and experiments use this instead of raw MSR writes.
func (r *Regulator) SetUndervolt(caller string, depthMV float64) error {
	if depthMV < 0 {
		return ErrOvervolt
	}
	return r.setDepth(caller, depthMV)
}

func (r *Regulator) setDepth(caller string, depthMV float64) error {
	if err := r.checkOwner(caller); err != nil {
		return err
	}
	if depthMV >= r.profile.FreezeMV {
		return fmt.Errorf("%w: %.1f mV >= %.1f mV", ErrWouldFreeze, depthMV, r.profile.FreezeMV)
	}
	r.depthMV = depthMV
	return nil
}

// SetTemperature updates the die temperature used by the calibration
// curve (Section IX: "the voltage regulator ... needs to dynamically
// adjust the undervolting level based on the current temperature").
func (r *Regulator) SetTemperature(tempC float64) error {
	if tempC < -40 || tempC > 110 {
		return fmt.Errorf("volt: temperature %v °C outside operating range", tempC)
	}
	r.tempC = tempC
	return nil
}

// Temperature returns the modeled die temperature.
func (r *Regulator) Temperature() float64 { return r.tempC }

// UndervoltMV returns the current depth below nominal in millivolts.
func (r *Regulator) UndervoltMV() float64 { return r.depthMV }

// SupplyVoltage returns the current absolute supply voltage.
func (r *Regulator) SupplyVoltage() float64 { return SupplyVoltageAt(r.depthMV) }

// ErrorRate returns the multiplier fault rate at the current voltage
// and temperature.
func (r *Regulator) ErrorRate() float64 {
	return r.profile.ErrorRate(r.depthMV, r.tempC)
}

// CalibrateToRate adjusts the undervolt depth so the fault rate matches
// the requested value at the current temperature — the per-device,
// per-temperature calibration loop of Section IX. It returns the depth
// chosen.
func (r *Regulator) CalibrateToRate(caller string, rate float64) (float64, error) {
	r.calibrations.Add(1)
	depth, err := r.profile.DepthForRate(rate, r.tempC)
	if err != nil {
		return 0, err
	}
	if depth >= r.profile.FreezeMV {
		depth = r.profile.FreezeMV - 1
	}
	if err := r.setDepth(caller, depth); err != nil {
		return 0, err
	}
	return depth, nil
}

// Calibrations returns how many times CalibrateToRate has run on this
// regulator (successfully or not).
func (r *Regulator) Calibrations() uint64 { return r.calibrations.Load() }
