package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/volt"
)

// poolStreamLabel separates the pool slots' fault streams from every
// other labelled stream in the repo (0x5BD detector, 0x5A4D sharding).
const poolStreamLabel = 0x5E54

// PoolConfig sizes and seeds a session pool.
type PoolConfig struct {
	// Size is the number of pooled sessions (default 4). Each slot owns
	// a buffer-fresh copy of the detector, its own voltage plane, its
	// own fault stream, and its own supervisor, so slots never contend
	// on anything but the checkout channel.
	Size int
	// ErrorRate / UndervoltMV select the operating point, exactly as
	// core.Options (mutually exclusive; both zero means nominal).
	ErrorRate   float64
	UndervoltMV float64
	// Seed roots the per-slot fault streams.
	Seed uint64
	// Chaos builds each slot on a fault-injecting chaos.Env instead of
	// the ideal regulator, so the supervisors have faults to ride out.
	Chaos bool
	// ChaosConfig overrides the per-slot chaos configuration (implies
	// Chaos; a zero Seed is replaced with the slot's derived seed).
	// Tests use an empty-rule config plus scripted Env triggers.
	ChaosConfig *chaos.Config
	// Supervisor tunes the per-slot recovery machinery.
	Supervisor core.SupervisorConfig
	// Lifecycle tunes quarantine/respawn of terminally degraded slots
	// (opt-in via Lifecycle.Enabled).
	Lifecycle LifecycleConfig
	// JournalPath, when set, persists each slot's calibrated operating
	// point to a crash-safe journal. On startup a journaled depth is
	// adopted and verified with a canary read instead of recalibrating
	// from scratch; corrupt or stale journals are discarded, logged,
	// and regenerated.
	JournalPath string
	// JournalMaxAge ages journal entries out (0 = DefaultJournalMaxAge;
	// negative = never stale).
	JournalMaxAge time.Duration
	// Logf receives lifecycle and journal log lines (nil = silent).
	Logf func(format string, args ...any)
	// ModelVersion is the registry version of the base detector (0 for
	// a compiled-in model outside a registry deployment). Slots carry
	// their model version for metrics, traces, and canary rollout.
	ModelVersion uint32
}

// withDefaults fills unset fields.
func (cfg PoolConfig) withDefaults() PoolConfig {
	if cfg.Size == 0 {
		cfg.Size = 4
	}
	cfg.Lifecycle = cfg.Lifecycle.withDefaults()
	return cfg
}

// LifecycleState is a slot's position in the lifecycle state machine:
// active → quarantined → respawning → active (as a fresh slot).
type LifecycleState int32

const (
	// SlotActive: the slot is in rotation (parked or checked out).
	SlotActive LifecycleState = iota
	// SlotQuarantined: the slot tripped terminal degradation and has
	// been pulled from rotation; teardown is imminent.
	SlotQuarantined
	// SlotRespawning: the quarantined slot is being torn down and
	// rebuilt from the base detector with a fresh fault stream.
	SlotRespawning
)

// String names the lifecycle state for health reports and logs.
func (s LifecycleState) String() string {
	switch s {
	case SlotActive:
		return "active"
	case SlotQuarantined:
		return "quarantined"
	case SlotRespawning:
		return "respawning"
	default:
		return fmt.Sprintf("serve.LifecycleState(%d)", int32(s))
	}
}

// Slot is one pooled supervised session.
type Slot struct {
	// ID is the slot index, echoed in responses and metrics labels.
	ID int
	// Gen counts rebuilds of this slot index: 0 for the boot-time slot,
	// incremented on every respawn. The slot's derived fault-stream
	// seed folds Gen in, so a respawned slot never replays its
	// predecessor's stochastic trajectory.
	Gen int
	// Sup is the slot's self-healing supervisor.
	Sup *core.Supervisor
	// Det is the slot's stochastic detector (metrics read its voltage).
	Det *core.StochasticHMD
	// Seed is the slot's derived fault-stream seed (recorded in decision
	// traces so an auditor can tie a verdict back to its stream lineage).
	Seed uint64
	// Model is the registry version of the detector this slot serves
	// (0 = the compiled-in model). Respawns preserve it; Roll changes
	// it by rebuilding the slot.
	Model uint32

	// busy guards the exclusivity invariant: 0 parked, 1 checked out.
	busy atomic.Int32
	// lifecycle is the slot's lifecycle state (see LifecycleState).
	lifecycle atomic.Int32
	// degradedReleases counts consecutive releases observed with the
	// breaker open. Only touched while the slot is exclusively owned.
	degradedReleases int
}

// Lifecycle returns the slot's lifecycle state.
func (s *Slot) Lifecycle() LifecycleState { return LifecycleState(s.lifecycle.Load()) }

// Pool is a fixed set of supervised stochastic sessions with
// channel-based checkout. Every slot wraps its own buffer-fresh
// detector copy (hmd.WithFreshBuffers via core construction), so two
// in-flight requests can never share scratch buffers, fault streams,
// or voltage planes.
//
// With Lifecycle.Enabled the pool also manages slot lifetimes: a slot
// that trips terminal degradation (dead plane, wedged voltage, breaker
// open past the budget, repeated canary failure) is quarantined out of
// rotation and respawned from the base detector under capped
// exponential backoff.
type Pool struct {
	base *hmd.HMD
	cfg  PoolConfig

	// mu guards all (respawns swap slots while metrics/health read).
	mu  sync.RWMutex
	all []*Slot

	// modelsMu guards models, the version → detector table slots are
	// built from. Respawns keep a slot's version; Roll rebuilds a slot
	// onto a different one.
	modelsMu sync.RWMutex
	models   map[uint32]*hmd.HMD

	slots     chan *Slot
	closed    atomic.Bool
	closeOnce sync.Once
	stop      chan struct{}
	respawnWG sync.WaitGroup

	// doubleCheckouts counts violations of the exclusivity invariant
	// (always zero unless the checkout discipline is broken).
	doubleCheckouts atomic.Uint64
	respawns        atomic.Uint64
	quarantines     atomic.Uint64
	quarantinedNow  atomic.Int64
	rolls           atomic.Uint64

	journal *journalStore // nil when journaling is disabled
}

// NewPool builds cfg.Size supervised sessions around base.
func NewPool(base *hmd.HMD, cfg PoolConfig) (*Pool, error) {
	if base == nil {
		return nil, fmt.Errorf("serve: nil base detector")
	}
	cfg = cfg.withDefaults()
	if cfg.Size < 1 {
		return nil, fmt.Errorf("serve: pool size %d < 1", cfg.Size)
	}
	p := &Pool{
		base:   base,
		cfg:    cfg,
		models: map[uint32]*hmd.HMD{cfg.ModelVersion: base},
		slots:  make(chan *Slot, cfg.Size),
		stop:   make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		p.journal = newJournalStore(cfg.JournalPath, cfg.JournalMaxAge, p.logf)
	}
	for i := 0; i < cfg.Size; i++ {
		slot, err := p.buildSlot(i, 0, cfg.ModelVersion)
		if err != nil {
			return nil, fmt.Errorf("serve: building pool slot %d: %w", i, err)
		}
		p.all = append(p.all, slot)
		p.slots <- slot
	}
	return p, nil
}

// RegisterModel makes a detector available for Roll under a version
// number. Registering the same detector twice is a no-op; a different
// detector under a taken version is an error (the registry's
// fingerprint check is the authority — the pool just refuses silent
// swaps).
func (p *Pool) RegisterModel(version uint32, det *hmd.HMD) error {
	if det == nil {
		return fmt.Errorf("serve: nil detector for model version %d", version)
	}
	p.modelsMu.Lock()
	defer p.modelsMu.Unlock()
	if old, ok := p.models[version]; ok && old != det {
		return fmt.Errorf("serve: model version %d already bound to a different detector", version)
	}
	p.models[version] = det
	return nil
}

// model resolves a registered model version.
func (p *Pool) model(version uint32) (*hmd.HMD, error) {
	p.modelsMu.RLock()
	defer p.modelsMu.RUnlock()
	det, ok := p.models[version]
	if !ok {
		return nil, fmt.Errorf("serve: model version %d not registered with pool", version)
	}
	return det, nil
}

// logf forwards to the configured logger, if any.
func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// buildSlot builds one pooled session — detector copy, hardware,
// supervisor — for slot index i at rebuild generation gen, serving the
// given model version. When a fresh journal entry covers this device
// and rate, the slot boots at the journaled depth and verifies it with
// a canary read instead of running the full calibration flow.
func (p *Pool) buildSlot(i, gen int, version uint32) (*Slot, error) {
	base, err := p.model(version)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	opts := core.Options{
		ErrorRate:   cfg.ErrorRate,
		UndervoltMV: cfg.UndervoltMV,
		Seed:        rng.DeriveSeed(cfg.Seed, poolStreamLabel, uint64(i), uint64(gen)),
	}
	profile := volt.NewDeviceProfile(opts.DeviceSeed)
	entry := p.journalLookup(profile, cfg.ErrorRate)
	if entry != nil {
		// Journal hit: adopt the journaled depth directly (no
		// CalibrateToRate) and pin the injector to the exact target
		// rate afterwards, mirroring what SetErrorRate would have done.
		opts.ErrorRate = 0
		opts.UndervoltMV = entry.DepthMV
	}
	det, err := p.newDetector(base, opts, profile)
	if err != nil && entry != nil {
		// The journaled depth is unusable on this device (e.g. beyond
		// the freeze threshold): discard it and calibrate from scratch.
		p.logf("serve: slot %d: journaled depth %.1f mV rejected (%v); recalibrating", i, entry.DepthMV, err)
		p.journalDrop(*entry)
		entry = nil
		opts.ErrorRate = cfg.ErrorRate
		opts.UndervoltMV = cfg.UndervoltMV
		det, err = p.newDetector(base, opts, profile)
	}
	if err != nil {
		return nil, err
	}
	if entry != nil {
		if err := det.PinErrorRate(cfg.ErrorRate); err != nil {
			return nil, err
		}
	}
	sup, err := core.NewSupervisor(det, cfg.Supervisor)
	if err != nil {
		return nil, err
	}
	slot := &Slot{ID: i, Gen: gen, Sup: sup, Det: det, Seed: opts.Seed, Model: version}
	if p.journal != nil && cfg.ErrorRate > 0 {
		if entry != nil {
			p.verifyJournaled(slot, profile, cfg.ErrorRate)
		} else {
			p.journalRecord(profile, cfg.ErrorRate, sup.Session().Depth(), det.Regulator().Temperature())
		}
	}
	return slot, nil
}

// newDetector builds the slot's stochastic detector on ideal or
// chaos-wrapped hardware, per the pool configuration, around the given
// base model.
func (p *Pool) newDetector(base *hmd.HMD, opts core.Options, profile volt.DeviceProfile) (*core.StochasticHMD, error) {
	cfg := p.cfg
	if !cfg.Chaos && cfg.ChaosConfig == nil {
		return core.New(base.WithFreshBuffers(), opts)
	}
	reg, err := volt.NewRegulator(volt.PlaneCore, profile)
	if err != nil {
		return nil, err
	}
	chaosCfg := chaos.DefaultConfig(opts.Seed)
	if cfg.ChaosConfig != nil {
		chaosCfg = *cfg.ChaosConfig
		if chaosCfg.Seed == 0 {
			chaosCfg.Seed = opts.Seed
		}
	}
	env, err := chaos.NewEnv(reg, chaosCfg)
	if err != nil {
		return nil, err
	}
	return core.NewOnPlane(base.WithFreshBuffers(), env, opts)
}

// Size returns the number of pooled sessions.
func (p *Pool) Size() int { return p.cfg.Size }

// Slots returns a snapshot of every slot for read-only inspection
// (health, metrics). Respawns swap slots underneath, so callers get a
// copy; they must not detect through a slot they have not acquired.
func (p *Pool) Slots() []*Slot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Slot(nil), p.all...)
}

// ErrPoolClosed is returned by Acquire after Close.
var ErrPoolClosed = errors.New("serve: pool closed")

// AcquireError reports a checkout that ended without a session because
// the caller's context was cancelled or expired. It unwraps to the
// context error, so errors.Is(err, context.DeadlineExceeded) and
// friends keep working; the handler maps it to a 503 (or a 499 when
// the client itself went away) rather than a generic 500.
type AcquireError struct{ Cause error }

// Error implements error.
func (e *AcquireError) Error() string { return "serve: no session acquired: " + e.Cause.Error() }

// Unwrap exposes the context cause.
func (e *AcquireError) Unwrap() error { return e.Cause }

// Acquire checks a session out of the pool, blocking until one parks,
// ctx is done, or the pool closes (ErrPoolClosed: with every slot
// quarantined no respawn will park one). An already-cancelled context
// fails fast — the slot channel is never consulted — with an
// *AcquireError wrapping the context cause. The returned slot is
// exclusively owned until Release.
func (p *Pool) Acquire(ctx context.Context) (*Slot, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, &AcquireError{Cause: err}
	}
	select {
	case slot := <-p.slots:
		if !slot.busy.CompareAndSwap(0, 1) {
			// The invariant is broken (a slot was parked while checked
			// out); count it and refuse the slot rather than hand out a
			// shared session.
			p.doubleCheckouts.Add(1)
			return nil, fmt.Errorf("serve: pool handed out a busy session (slot %d)", slot.ID)
		}
		return slot, nil
	case <-ctx.Done():
		return nil, &AcquireError{Cause: ctx.Err()}
	case <-p.stop:
		return nil, ErrPoolClosed
	}
}

// TryAcquire checks a session out without blocking: (nil, false) when
// the pool is closed or no slot is parked. Hedged dispatch uses it so
// a hedge never waits behind primary traffic.
func (p *Pool) TryAcquire() (*Slot, bool) {
	if p.closed.Load() {
		return nil, false
	}
	select {
	case slot := <-p.slots:
		if !slot.busy.CompareAndSwap(0, 1) {
			p.doubleCheckouts.Add(1)
			return nil, false
		}
		return slot, true
	default:
		return nil, false
	}
}

// Release parks a session back into the pool — unless lifecycle
// management finds it terminally degraded, in which case the slot is
// quarantined out of rotation and a respawn is scheduled instead.
func (p *Pool) Release(slot *Slot) {
	if slot == nil {
		return
	}
	if p.shouldQuarantine(slot) {
		p.quarantine(slot)
		return
	}
	if !slot.busy.CompareAndSwap(1, 0) {
		p.doubleCheckouts.Add(1)
		return
	}
	select {
	case p.slots <- slot:
	default:
		// Cannot happen with CAS-disciplined checkout (the channel has
		// capacity for every slot); tolerate rather than block.
		p.doubleCheckouts.Add(1)
	}
}

// Roll rebuilds slot id onto a registered model version at the next
// generation, through the same checkout discipline requests use: the
// slot is acquired exclusively (so no request is ever interrupted, and
// none is ever lost), retired, and replaced by a freshly built slot.
// Wrong slots coming off the channel are released untouched and the
// checkout retried. A build failure releases the incumbent slot back
// into rotation unharmed; a closed pool aborts with ErrPoolClosed.
func (p *Pool) Roll(ctx context.Context, id int, version uint32) error {
	if id < 0 || id >= p.cfg.Size {
		return fmt.Errorf("serve: roll of unknown slot %d", id)
	}
	if _, err := p.model(version); err != nil {
		return err
	}
	for {
		slot, err := p.Acquire(ctx)
		if err != nil {
			return err
		}
		if slot.ID != id {
			p.Release(slot)
			select {
			case <-ctx.Done():
				return &AcquireError{Cause: ctx.Err()}
			case <-time.After(200 * time.Microsecond):
			}
			continue
		}
		return p.rollSlot(slot, version)
	}
}

// rollSlot swaps an exclusively owned slot for a fresh build on the
// given model version.
func (p *Pool) rollSlot(old *Slot, version uint32) error {
	fresh, err := p.buildSlot(old.ID, old.Gen+1, version)
	if err != nil {
		// The replacement could not be built: the incumbent keeps
		// serving, untouched.
		p.Release(old)
		return fmt.Errorf("serve: rolling slot %d to model v%d: %w", old.ID, version, err)
	}
	// Retire the incumbent: quarantined state guarantees no path ever
	// re-parks it, and its plane goes back to nominal.
	old.lifecycle.Store(int32(SlotQuarantined))
	if err := old.Sup.Session().ForceNominal(); err != nil {
		p.logf("serve: slot %d: nominal rollback on retire: %v", old.ID, err)
	}
	p.mu.Lock()
	p.all[old.ID] = fresh
	p.mu.Unlock()
	p.rolls.Add(1)
	p.logf("serve: slot %d rolled to model v%d (gen %d)", fresh.ID, version, fresh.Gen)
	if p.closed.Load() {
		// Drain raced the roll: park nothing and leave the fresh slot
		// at nominal, mirroring Close's fail-safe.
		if err := fresh.Sup.Session().ForceNominal(); err != nil {
			p.logf("serve: slot %d: nominal rollback on closed pool: %v", fresh.ID, err)
		}
		return ErrPoolClosed
	}
	p.slots <- fresh
	return nil
}

// Rolls reports how many slots have been rebuilt by model rollout.
func (p *Pool) Rolls() uint64 { return p.rolls.Load() }

// ModelVersions returns the model version each slot currently serves,
// indexed by slot ID.
func (p *Pool) ModelVersions() []uint32 {
	slots := p.Slots()
	out := make([]uint32, len(slots))
	for _, s := range slots {
		out[s.ID] = s.Model
	}
	return out
}

// DoubleCheckouts reports violations of the session-exclusivity
// invariant (must stay zero).
func (p *Pool) DoubleCheckouts() uint64 { return p.doubleCheckouts.Load() }

// Respawns reports how many quarantined slots have been rebuilt.
func (p *Pool) Respawns() uint64 { return p.respawns.Load() }

// Quarantines reports how many slots have ever been quarantined.
func (p *Pool) Quarantines() uint64 { return p.quarantines.Load() }

// QuarantinedNow reports how many slots are currently out of rotation
// (quarantined or mid-respawn).
func (p *Pool) QuarantinedNow() int64 { return p.quarantinedNow.Load() }

// Close marks the pool closed, stops any pending respawns, and rolls
// every session's voltage plane back to nominal via ForceNominal — the
// fail-safe half of graceful shutdown. Safe to call more than once and
// concurrently with checkouts: a slot checked out at Close time is
// rolled to nominal here and again by its session exit when the
// in-flight detection finishes.
func (p *Pool) Close() error {
	p.closed.Store(true)
	p.closeOnce.Do(func() { close(p.stop) })
	p.respawnWG.Wait()
	var errs []error
	for _, slot := range p.Slots() {
		if err := slot.Sup.Session().ForceNominal(); err != nil {
			errs = append(errs, fmt.Errorf("slot %d: %w", slot.ID, err))
		}
	}
	return errors.Join(errs...)
}

// Degraded reports whether every pooled supervisor sits in the
// Degraded breaker state (the service has lost all moving-target
// protection).
func (p *Pool) Degraded() bool {
	for _, slot := range p.Slots() {
		if slot.Sup.State() != core.Degraded {
			return false
		}
	}
	return true
}
