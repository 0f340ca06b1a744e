// Package core implements Stochastic-HMD, the paper's contribution: a
// hardware malware detector whose inference runs on an undervolted
// core, so every multiplication may suffer a stochastic
// timing-violation bit flip. The decision boundary becomes a moving
// target — reverse-engineering sees noisy labels and minimally-evasive
// malware is re-caught — while the unchanged pre-trained model keeps
// its baseline accuracy and the lowered supply voltage saves power.
//
// No retraining, no model change, no extra hardware: the construction
// is exactly (pre-trained HMD) + (voltage knob), matching the paper's
// deployment story.
package core

import (
	"fmt"
	"math"

	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

// Owner is the lock identity the Stochastic-HMD holds on its voltage
// regulator (Section III "Trusted control").
const Owner = "stochastic-hmd"

// Plane is the voltage-plane surface the detector drives. It is the
// method set of *volt.Regulator that the detection path uses;
// environmental wrappers (internal/chaos) implement it to interpose
// faults and drift between the detector and the ideal device.
type Plane interface {
	Lock(owner string) error
	Unlock(owner string) error
	Owner() string
	SetUndervolt(caller string, depthMV float64) error
	CalibrateToRate(caller string, rate float64) (float64, error)
	SetTemperature(tempC float64) error
	Temperature() float64
	UndervoltMV() float64
	SupplyVoltage() float64
	ErrorRate() float64
	Profile() volt.DeviceProfile
}

var _ Plane = (*volt.Regulator)(nil)

// Options configures a Stochastic-HMD.
type Options struct {
	// ErrorRate directly requests a multiplier fault rate in [0, 1].
	// When set (non-zero), the regulator is calibrated to the depth
	// that yields it. Mutually exclusive with UndervoltMV.
	ErrorRate float64
	// UndervoltMV requests an explicit undervolt depth below nominal.
	UndervoltMV float64
	// DeviceSeed selects the device calibration profile (0 = the
	// reference i7-5557U-like device).
	DeviceSeed uint64
	// TempC is the die temperature (default 49 °C, the
	// characterization point).
	TempC float64
	// Seed drives the stochastic fault stream. Runs with the same
	// seed reproduce exactly; deployments would use a hardware
	// entropy source, tests use fixed seeds.
	Seed uint64
	// Dist overrides the fault-location distribution (nil = Fig 1
	// model).
	Dist *faults.Distribution
}

// StochasticHMD wraps a baseline HMD with an undervolted inference
// path.
type StochasticHMD struct {
	base *hmd.HMD
	reg  Plane
	inj  *faults.Injector

	// seed and dist are the root seed and fault-location distribution
	// the detector's fault streams derive from: its own stream (label
	// 0x5BD), the per-program streams of set evaluation (DetectSet) and
	// the per-lane streams of batched serving (DetectTracesBatch).
	seed uint64
	dist *faults.Distribution

	// batchPass counts batched passes so every batch draws fresh
	// per-lane fault streams — the moving-target property across
	// batches.
	batchPass uint64
	// kit is the lane kit DetectTracesBatch re-arms on every pass; like
	// batchPass it belongs to the one caller the detector's locking
	// admits at a time. DetectSet, which evaluation calls from many
	// workers at once, takes its kits from laneKits instead.
	kit laneKit
}

// New builds a Stochastic-HMD around base on ideal hardware: NewOnPlane
// over a fresh volt.Regulator for the core plane of the DeviceSeed
// profile.
func New(base *hmd.HMD, opts Options) (*StochasticHMD, error) {
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(opts.DeviceSeed))
	if err != nil {
		return nil, err
	}
	return NewOnPlane(base, reg, opts)
}

// NewOnPlane builds a Stochastic-HMD around base on the given voltage
// plane — an ideal regulator, or a chaos.Env wrapping one. The plane
// is the only hardware a caller supplies: the undervolted multiplier
// is a faults.Injector seeded from Seed and Dist, whose rate follows
// the plane. The plane is locked to the detector (trusted control) and
// calibrated per the options; DeviceSeed is ignored, since it selects
// the profile of the regulator New builds.
func NewOnPlane(base *hmd.HMD, reg Plane, opts Options) (*StochasticHMD, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base detector")
	}
	if reg == nil {
		return nil, fmt.Errorf("core: nil voltage plane")
	}
	if opts.ErrorRate != 0 && opts.UndervoltMV != 0 {
		return nil, fmt.Errorf("core: set ErrorRate or UndervoltMV, not both")
	}
	if opts.ErrorRate < 0 || opts.ErrorRate > 1 {
		return nil, fmt.Errorf("core: error rate %v outside [0,1]", opts.ErrorRate)
	}
	if opts.UndervoltMV < 0 {
		return nil, fmt.Errorf("core: negative undervolt depth %v", opts.UndervoltMV)
	}
	if opts.TempC == 0 {
		opts.TempC = volt.ReferenceTempC
	}
	dist := opts.Dist
	if dist == nil {
		dist = faults.Fig1Distribution()
	}
	inj, err := faults.NewInjectorSource(0, dist, rng.NewSource64(opts.Seed, 0x5BD))
	if err != nil {
		return nil, err
	}
	if err := reg.Lock(Owner); err != nil {
		return nil, err
	}
	if err := reg.SetTemperature(opts.TempC); err != nil {
		return nil, err
	}
	s := &StochasticHMD{base: base, reg: reg, inj: inj, seed: opts.Seed, dist: dist}
	switch {
	case opts.ErrorRate > 0:
		if err := s.SetErrorRate(opts.ErrorRate); err != nil {
			return nil, err
		}
	case opts.UndervoltMV > 0:
		if err := s.SetUndervolt(opts.UndervoltMV); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Base returns the protected baseline detector.
func (s *StochasticHMD) Base() *hmd.HMD { return s.base }

// Regulator exposes the (locked) voltage plane.
func (s *StochasticHMD) Regulator() Plane { return s.reg }

// ErrorRate returns the current per-multiplication fault rate.
func (s *StochasticHMD) ErrorRate() float64 { return s.inj.Rate() }

// SupplyVoltage returns the detection core's supply voltage.
func (s *StochasticHMD) SupplyVoltage() float64 { return s.reg.SupplyVoltage() }

// SetErrorRate calibrates the regulator so the device produces the
// requested fault rate at the current temperature (the Section IX
// calibration flow) and points the injector at it.
func (s *StochasticHMD) SetErrorRate(rate float64) error {
	if _, err := s.reg.CalibrateToRate(Owner, rate); err != nil {
		return err
	}
	// The device curve saturates below 1; honour the exact requested
	// rate in the injector (the paper's tool-space sweep does the
	// same: the er axis is the injected rate).
	return s.inj.SetRate(rate)
}

// PinErrorRate points the injector at rate without moving the plane:
// a pool that adopts a journaled depth (Options.UndervoltMV) pins the
// exact calibrated target this way, as SetErrorRate would have.
func (s *StochasticHMD) PinErrorRate(rate float64) error { return s.inj.SetRate(rate) }

// SetUndervolt sets an explicit depth and derives the fault rate from
// the device profile.
func (s *StochasticHMD) SetUndervolt(depthMV float64) error {
	if err := s.reg.SetUndervolt(Owner, depthMV); err != nil {
		return err
	}
	return s.inj.SetRate(s.reg.ErrorRate())
}

// SetTemperature updates the die temperature and recalibrates the
// undervolt depth to keep the fault rate stable — the dynamic
// adjustment Section IX calls for.
func (s *StochasticHMD) SetTemperature(tempC float64) error {
	rate := s.inj.Rate()
	if err := s.reg.SetTemperature(tempC); err != nil {
		return err
	}
	return s.SetErrorRate(rate)
}

// ScoreWindows implements hmd.Detector: per-window scores through the
// undervolted multiplier. Every call re-rolls the stochastic faults —
// the moving-target property.
func (s *StochasticHMD) ScoreWindows(windows []trace.WindowCounts) []float64 {
	return s.base.ScoreWindowsUnit(s.inj, windows)
}

// DetectProgram implements hmd.Detector.
func (s *StochasticHMD) DetectProgram(windows []trace.WindowCounts) hmd.Decision {
	return s.base.DecideFromScores(s.ScoreWindows(windows))
}

// shardStreamLabel separates per-program evaluation fault streams from
// the detector's own stream (label 0x5BD in NewOnPlane).
const shardStreamLabel = 0x5A4D

// SetBase implements hmd.SetDetector: the base detector, whose
// network scores the evaluation sets.
func (s *StochasticHMD) SetBase() *hmd.HMD { return s.base }

// DetectSet implements hmd.SetDetector: programs [lo, hi) of set in
// one lane-batched pass, program idx drawing its faults from its own
// stream derived from the detector's root seed, the current error rate
// and idx. Evaluation results are therefore a pure function of (seed,
// rate, programs) — independent of worker count and batching — and
// evaluating never consumes the detector's own fault stream. Safe for
// concurrent use: each call re-arms a lane kit of its own from
// laneKits.
func (s *StochasticHMD) DetectSet(set *hmd.Set, lo, hi int, out []hmd.Decision) {
	rate := s.inj.Rate()
	laneCell{base: s.base, rate: rate, dist: s.dist,
		stream: [3]uint64{s.seed, shardStreamLabel, math.Float64bits(rate)},
	}.DetectSet(set, lo, hi, out)
}

var _ hmd.Detector = (*StochasticHMD)(nil)
var _ hmd.SetDetector = (*StochasticHMD)(nil)
