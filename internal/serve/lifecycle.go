package serve

import (
	"time"

	"shmd/internal/core"
)

// LifecycleConfig tunes slot quarantine and respawn. The supervisor
// (core.Supervisor) already rides through transient faults; lifecycle
// management covers what the supervisor cannot fix in place — a dead
// regulator, a wedged voltage plane, a breaker that stays open, a
// canary that can no longer measure the fault rate. Such a slot is
// pulled from rotation (quarantined), force-rolled to nominal, torn
// down, and rebuilt from the base detector with a freshly derived
// fault stream (respawned), under capped exponential backoff.
type LifecycleConfig struct {
	// Enabled turns quarantine/respawn on. Off by default: embedders
	// that inspect slot objects (tests, demos) keep stable slots.
	Enabled bool
	// QuarantineAfter is how many consecutive releases may observe the
	// breaker open before the slot is quarantined (default 3). A dead
	// plane or a wedged voltage rail quarantines immediately.
	QuarantineAfter int
	// CanaryFailBudget is the consecutive-canary-failure streak that
	// quarantines a slot (default 3): the plane can no longer even be
	// measured.
	CanaryFailBudget int
	// RespawnBackoff is the delay before the first rebuild attempt; it
	// doubles per failed attempt up to RespawnMaxBackoff (defaults
	// 50ms and 5s).
	RespawnBackoff    time.Duration
	RespawnMaxBackoff time.Duration
}

// withDefaults fills unset fields.
func (cfg LifecycleConfig) withDefaults() LifecycleConfig {
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.CanaryFailBudget == 0 {
		cfg.CanaryFailBudget = 3
	}
	if cfg.RespawnBackoff == 0 {
		cfg.RespawnBackoff = 50 * time.Millisecond
	}
	if cfg.RespawnMaxBackoff == 0 {
		cfg.RespawnMaxBackoff = 5 * time.Second
	}
	return cfg
}

// deadPlane reports whether the slot's voltage plane has failed
// permanently (a chaos.Env whose regulator died). Ideal regulators
// never report dead.
func deadPlane(slot *Slot) bool {
	d, ok := slot.Det.Regulator().(interface{ Dead() bool })
	return ok && d.Dead()
}

// shouldQuarantine evaluates the terminal-degradation policy at
// release time, while the caller still exclusively owns the slot.
func (p *Pool) shouldQuarantine(slot *Slot) bool {
	lc := p.cfg.Lifecycle
	if !lc.Enabled || p.closed.Load() {
		return false
	}
	// A permanently dead plane can never heal in place.
	if deadPlane(slot) {
		p.logf("serve: slot %d gen %d: voltage plane dead, quarantining", slot.ID, slot.Gen)
		return true
	}
	// A wedged plane: the supervisor's fail-safe could not return the
	// rail to nominal. Give it one more direct attempt before giving up
	// on the slot.
	if !slot.Sup.Session().AtNominal() {
		if err := slot.Sup.Session().ForceNominal(); err != nil || !slot.Sup.Session().AtNominal() {
			p.logf("serve: slot %d gen %d: voltage plane wedged off nominal, quarantining", slot.ID, slot.Gen)
			return true
		}
	}
	h := slot.Sup.Health()
	if h.CanaryFailStreak >= uint64(lc.CanaryFailBudget) {
		p.logf("serve: slot %d gen %d: %d consecutive canary failures, quarantining", slot.ID, slot.Gen, h.CanaryFailStreak)
		return true
	}
	if slot.Sup.State() == core.Degraded {
		slot.degradedReleases++
		if slot.degradedReleases >= lc.QuarantineAfter {
			p.logf("serve: slot %d gen %d: breaker open for %d consecutive releases, quarantining", slot.ID, slot.Gen, slot.degradedReleases)
			return true
		}
	} else {
		slot.degradedReleases = 0
	}
	return false
}

// quarantine pulls an exclusively-owned slot out of rotation and
// schedules its respawn. The slot is never parked again (its busy flag
// stays raised), so the exclusivity invariant cannot be violated by a
// late checkout of a dying session.
func (p *Pool) quarantine(slot *Slot) {
	slot.lifecycle.Store(int32(SlotQuarantined))
	p.quarantines.Add(1)
	p.quarantinedNow.Add(1)
	// Force-roll the dying slot to nominal, best effort: a dead
	// regulator rejects the write but verifiably never left nominal.
	_ = slot.Sup.Session().ForceNominal()
	p.respawnWG.Add(1)
	go p.respawn(slot)
}

// respawn tears the quarantined slot down and rebuilds its index from
// the base detector with a freshly derived fault stream, retrying
// under capped exponential backoff until the rebuild succeeds or the
// pool closes. The rebuilt slot re-enters rotation atomically.
func (p *Pool) respawn(old *Slot) {
	defer p.respawnWG.Done()
	old.lifecycle.Store(int32(SlotRespawning))
	lc := p.cfg.Lifecycle
	backoff := lc.RespawnBackoff
	gen := old.Gen + 1
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(backoff):
		case <-p.stop:
			return
		}
		backoff *= 2
		if backoff > lc.RespawnMaxBackoff {
			backoff = lc.RespawnMaxBackoff
		}
		if p.closed.Load() {
			return
		}
		// Respawns keep the old slot's model version: a hardware death
		// must never silently change which model a slot serves.
		slot, err := p.buildSlot(old.ID, gen, old.Model)
		if err != nil {
			p.logf("serve: slot %d gen %d: respawn attempt %d failed: %v", old.ID, gen, attempt+1, err)
			continue
		}
		p.mu.Lock()
		p.all[old.ID] = slot
		p.mu.Unlock()
		p.respawns.Add(1)
		p.quarantinedNow.Add(-1)
		p.logf("serve: slot %d respawned at gen %d after %d attempt(s)", old.ID, gen, attempt+1)
		if p.closed.Load() {
			// Closed while rebuilding: leave the fresh slot at nominal
			// and unparked; Acquire refuses anyway.
			_ = slot.Sup.Session().ForceNominal()
			return
		}
		p.slots <- slot // capacity Size; the old slot was never re-parked
		return
	}
}
