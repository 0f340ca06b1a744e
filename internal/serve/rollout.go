package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"shmd/internal/conform"
	"shmd/internal/registry"
)

// Canary rollout: a new model version is rolled onto N canary slots
// through Pool.Roll (the same acquire-exclusively-and-rebuild motion
// the quarantine/respawn machinery uses, so no request is ever dropped
// or double-served), and the canary slots' verdict and low-confidence
// streams are compared against the incumbent slots' over a sliding
// window with Wald sequential tests from internal/conform. Agreement
// auto-promotes (remaining slots roll, the registry ACTIVE pointer
// flips); drift auto-rolls the canaries back to the incumbent.

// RolloutConfig tunes the canary rollout controller.
type RolloutConfig struct {
	// CanarySlots is how many slots carry the candidate during the
	// canary phase (default 1; must be < pool size so an incumbent
	// stream exists to compare against).
	CanarySlots int
	// Window is the sliding observation window per side, in decisions
	// (default 64).
	Window int
	// Delta is the indifference half-width on the compared rates:
	// drifts smaller than Delta are tolerated by design (default 0.2).
	Delta float64
	// Alpha and Beta bound the per-test false-alarm and miss
	// probabilities (default 0.02 each).
	Alpha float64
	Beta  float64
	// MinCanary is the minimum number of decisions each side must
	// contribute before the tests may conclude anything (default 16).
	MinCanary int
	// MinCanaryTime keeps the canary soaking at least this long even
	// after statistical agreement (default 0 = promote on agreement).
	MinCanaryTime time.Duration
	// Now is the clock (nil = time.Now). Tests inject a fake clock to
	// drive MinCanaryTime deterministically.
	Now func() time.Time
}

// withDefaults fills unset fields.
func (cfg RolloutConfig) withDefaults() RolloutConfig {
	if cfg.CanarySlots == 0 {
		cfg.CanarySlots = 1
	}
	if cfg.Window == 0 {
		cfg.Window = 64
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.2
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.02
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.02
	}
	if cfg.MinCanary == 0 {
		cfg.MinCanary = 16
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// RolloutPhase is the rollout state machine's position.
type RolloutPhase int32

const (
	// RolloutIdle: no rollout in flight.
	RolloutIdle RolloutPhase = iota
	// RolloutCanarying: canary slots carry the candidate; streams are
	// being compared.
	RolloutCanarying
	// RolloutPromoting: agreement reached; remaining slots are rolling
	// onto the candidate.
	RolloutPromoting
	// RolloutRollingBack: drift detected; canary slots are rolling
	// back to the incumbent.
	RolloutRollingBack
)

// String names the phase for health reports and logs.
func (p RolloutPhase) String() string {
	switch p {
	case RolloutIdle:
		return "idle"
	case RolloutCanarying:
		return "canarying"
	case RolloutPromoting:
		return "promoting"
	case RolloutRollingBack:
		return "rollingback"
	default:
		return fmt.Sprintf("serve.RolloutPhase(%d)", int32(p))
	}
}

// obsRing is one side's sliding window of decision observations.
type obsRing struct {
	malware []bool
	lowConf []bool
	n       int // total pushed (ring holds min(n, cap))
}

func newObsRing(window int) *obsRing {
	return &obsRing{malware: make([]bool, 0, window), lowConf: make([]bool, 0, window)}
}

func (r *obsRing) push(malware, lowConf bool) {
	if len(r.malware) < cap(r.malware) {
		r.malware = append(r.malware, malware)
		r.lowConf = append(r.lowConf, lowConf)
	} else {
		i := r.n % cap(r.malware)
		r.malware[i] = malware
		r.lowConf[i] = lowConf
	}
	r.n++
}

func (r *obsRing) len() int   { return len(r.malware) }
func (r *obsRing) full() bool { return len(r.malware) == cap(r.malware) }

func rateOf(bits []bool) float64 {
	if len(bits) == 0 {
		return 0
	}
	n := 0
	for _, b := range bits {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(bits))
}

// lowConfidenceMargin classifies a decision as low-confidence for the
// drift comparison: the score sat within a quarter of the usable
// margin of the threshold. A model whose scores cluster near the
// boundary flips verdicts under stochastic re-rolls even when its
// verdict rate happens to match.
const lowConfidenceMargin = 0.25

// rollout is the canary rollout controller.
type rollout struct {
	srv *Server
	cfg RolloutConfig
	reg *registry.Registry // nil when serving without a registry

	mu        sync.Mutex
	phase     RolloutPhase
	incumbent uint32
	candidate uint32
	canaryIDs []int
	started   time.Time
	canary    *obsRing // candidate-version decisions
	baseline  *obsRing // incumbent-version decisions

	promoted   uint64
	rolledBack uint64
	aborted    uint64
}

func newRollout(srv *Server, reg *registry.Registry, cfg RolloutConfig) *rollout {
	return &rollout{
		srv:       srv,
		cfg:       cfg.withDefaults(),
		reg:       reg,
		incumbent: srv.cfg.Pool.ModelVersion,
	}
}

// RolloutStatus is the controller's observable state, reported by
// /healthz and GET /v1/admin/models.
type RolloutStatus struct {
	Phase       string `json:"phase"`
	Incumbent   uint32 `json:"incumbent"`
	Candidate   uint32 `json:"candidate,omitempty"`
	CanarySlots []int  `json:"canarySlots,omitempty"`
	// CanaryObs / BaselineObs count windowed observations per side.
	CanaryObs   int `json:"canaryObs"`
	BaselineObs int `json:"baselineObs"`
	// CanaryMalwareRate / BaselineMalwareRate are the windowed verdict
	// rates the drift tests compare.
	CanaryMalwareRate   float64 `json:"canaryMalwareRate"`
	BaselineMalwareRate float64 `json:"baselineMalwareRate"`
	Promoted            uint64  `json:"promoted"`
	RolledBack          uint64  `json:"rolledBack"`
	Aborted             uint64  `json:"aborted"`
}

// Status snapshots the controller.
func (ro *rollout) Status() RolloutStatus {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	st := RolloutStatus{
		Phase:      ro.phase.String(),
		Incumbent:  ro.incumbent,
		Candidate:  ro.candidate,
		Promoted:   ro.promoted,
		RolledBack: ro.rolledBack,
		Aborted:    ro.aborted,
	}
	if ro.phase != RolloutIdle {
		st.CanarySlots = append([]int(nil), ro.canaryIDs...)
	}
	if ro.canary != nil {
		st.CanaryObs = ro.canary.len()
		st.CanaryMalwareRate = rateOf(ro.canary.malware)
	}
	if ro.baseline != nil {
		st.BaselineObs = ro.baseline.len()
		st.BaselineMalwareRate = rateOf(ro.baseline.malware)
	}
	return st
}

// Incumbent returns the version the controller considers active.
func (ro *rollout) Incumbent() uint32 {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.incumbent
}

// Begin starts canarying a candidate version, which must already be
// registered with the pool. The canary slots roll in a tracked
// goroutine; a roll failure (e.g. the pool draining away mid-rollout)
// aborts the rollout and rolls back whatever had rolled.
func (ro *rollout) Begin(candidate uint32) error {
	pool := ro.srv.pool
	if _, err := pool.model(candidate); err != nil {
		return err
	}
	n := ro.cfg.CanarySlots
	if n >= pool.Size() {
		return fmt.Errorf("serve: %d canary slots need a pool larger than %d", n, pool.Size())
	}
	ro.mu.Lock()
	if ro.phase != RolloutIdle {
		ro.mu.Unlock()
		return fmt.Errorf("serve: rollout already in flight (%s v%d)", ro.phase, ro.candidate)
	}
	if candidate == ro.incumbent {
		ro.mu.Unlock()
		return fmt.Errorf("serve: candidate v%d is already the incumbent", candidate)
	}
	ro.phase = RolloutCanarying
	ro.candidate = candidate
	ro.canaryIDs = make([]int, n)
	for i := range ro.canaryIDs {
		ro.canaryIDs[i] = i
	}
	ids := append([]int(nil), ro.canaryIDs...)
	ro.started = ro.cfg.Now()
	ro.canary = newObsRing(ro.cfg.Window)
	ro.baseline = newObsRing(ro.cfg.Window)
	ro.mu.Unlock()
	if !ro.srv.addRunner() {
		ro.abort()
		return errDraining
	}
	ro.srv.logf("serve: rollout: canarying v%d on slots %v against incumbent v%d", candidate, ids, ro.Incumbent())
	go func() {
		defer ro.srv.runnerDone()
		for _, id := range ids {
			if err := pool.Roll(context.Background(), id, candidate); err != nil {
				ro.srv.logf("serve: rollout: canary roll of slot %d failed: %v", id, err)
				ro.abort()
				return
			}
		}
	}()
	return nil
}

// ForceActivate skips the canary: every slot rolls straight onto the
// candidate and the registry pointer flips. Activating the incumbent
// is an idempotent no-op.
func (ro *rollout) ForceActivate(candidate uint32) error {
	if _, err := ro.srv.pool.model(candidate); err != nil {
		return err
	}
	ro.mu.Lock()
	if candidate == ro.incumbent && ro.phase == RolloutIdle {
		ro.mu.Unlock()
		return nil
	}
	if ro.phase != RolloutIdle {
		ro.mu.Unlock()
		return fmt.Errorf("serve: rollout already in flight (%s v%d)", ro.phase, ro.candidate)
	}
	ro.phase = RolloutPromoting
	ro.candidate = candidate
	ro.mu.Unlock()
	if !ro.srv.addRunner() {
		ro.abort()
		return errDraining
	}
	ro.srv.logf("serve: rollout: force-activating v%d on all slots", candidate)
	go func() {
		defer ro.srv.runnerDone()
		ro.promote(candidate)
	}()
	return nil
}

// Observe feeds one served decision (winner outcomes only; hedge
// losers are discarded). Called from both the scalar and micro-batched
// dispatch paths, which serve HTTP and SHMDWIRE alike.
func (ro *rollout) Observe(version uint32, malware bool, confidence float64) {
	ro.mu.Lock()
	if ro.phase != RolloutCanarying {
		ro.mu.Unlock()
		return
	}
	lowConf := confidence < lowConfidenceMargin
	switch version {
	case ro.candidate:
		ro.canary.push(malware, lowConf)
	case ro.incumbent:
		ro.baseline.push(malware, lowConf)
	default:
		ro.mu.Unlock()
		return
	}
	verdict := ro.decide()
	ro.mu.Unlock()

	switch verdict {
	case conform.RejectNull:
		ro.transition(RolloutRollingBack)
	case conform.AcceptNull:
		ro.transition(RolloutPromoting)
	}
}

// decide judges the two stream pairs under ro.mu. RejectNull = drift
// (roll back), AcceptNull = agreement (promote), Continue = keep
// canarying.
func (ro *rollout) decide() conform.Status {
	if ro.canary.len() < ro.cfg.MinCanary || ro.baseline.len() < ro.cfg.MinCanary {
		return conform.Continue
	}
	verdicts := judgeStream(ro.baseline.malware, ro.canary.malware, ro.cfg)
	confs := judgeStream(ro.baseline.lowConf, ro.canary.lowConf, ro.cfg)
	if verdicts == conform.RejectNull || confs == conform.RejectNull {
		return conform.RejectNull
	}
	agreed := verdicts == conform.AcceptNull && confs == conform.AcceptNull
	// Window-exhausted fallback, mirroring conform.Result's contract: a
	// walk still undecided after the full window sat inside the
	// indifference region for the whole budget — that is agreement, not
	// limbo (Wald's bounds guarantee a drift ≥ Delta would have been
	// rejected with probability ≥ 1-Beta within it).
	if !agreed && ro.canary.full() && ro.baseline.full() &&
		verdicts != conform.RejectNull && confs != conform.RejectNull {
		agreed = true
	}
	if !agreed {
		return conform.Continue
	}
	if ro.cfg.Now().Sub(ro.started) < ro.cfg.MinCanaryTime {
		return conform.Continue
	}
	return conform.AcceptNull
}

// judgeStream sequentially tests the candidate's Bernoulli stream
// against the incumbent window's observed rate. The incumbent rate is
// folded to q = min(p, 1-p): when q leaves room on both sides the
// two-sided RateCheck runs as-is, and when q sits at a boundary (a
// stream that never — or always — fires, exactly where RateCheck's
// down test has no room) the one-sided UpCheck watches for the only
// drift that exists there: the disagreement rate rising.
func judgeStream(incumbent, candidate []bool, cfg RolloutConfig) conform.Status {
	p := rateOf(incumbent)
	folded := p > 0.5
	q := p
	if folded {
		q = 1 - p
	}
	observe := func(chk interface{ Observe(bool) conform.Status }) conform.Status {
		st := conform.Continue
		for _, b := range candidate {
			st = chk.Observe(b != folded)
			if st != conform.Continue {
				return st
			}
		}
		return st
	}
	if q-cfg.Delta > 0 && q+cfg.Delta < 1 {
		chk, err := conform.NewRateCheck(q, cfg.Delta, cfg.Alpha, cfg.Beta)
		if err != nil {
			return conform.Continue
		}
		return observe(chk)
	}
	// Floor the null rate well above zero: stochastic inference flips
	// borderline verdicts by design, so a lone disagreement against a
	// zero-rate incumbent window must not carry a whole rejection on
	// its own (at p0=0.05, crossing Wald's upper bound takes ~3 net
	// disagreements, not 1).
	p0 := q
	if p0 < 0.05 {
		p0 = 0.05
	}
	p1 := q + cfg.Delta
	if p1 >= 1 {
		p1 = 0.999
	}
	if p1 <= p0 {
		return conform.Continue
	}
	chk, err := conform.NewUpCheck(p0, p1, cfg.Alpha, cfg.Beta)
	if err != nil {
		return conform.Continue
	}
	return observe(chk)
}

// transition moves Canarying → Promoting/RollingBack and runs the
// slot rolls in a tracked goroutine. Exactly one caller wins the
// transition; late observers see the phase already moved.
func (ro *rollout) transition(to RolloutPhase) {
	ro.mu.Lock()
	if ro.phase != RolloutCanarying {
		ro.mu.Unlock()
		return
	}
	ro.phase = to
	candidate, incumbent := ro.candidate, ro.incumbent
	ids := append([]int(nil), ro.canaryIDs...)
	ro.mu.Unlock()

	if !ro.srv.addRunner() {
		ro.srv.logf("serve: rollout: %s v%d refused, server draining", to, candidate)
		ro.abort()
		return
	}
	go func() {
		defer ro.srv.runnerDone()
		if to == RolloutPromoting {
			ro.promote(candidate)
		} else {
			ro.rollback(candidate, incumbent, ids)
		}
	}()
}

// promote rolls every slot still on another version onto the
// candidate, flips the registry ACTIVE pointer, and finishes the
// rollout. A roll failure mid-promote (pool draining) aborts; the
// registry pointer is only flipped after every slot carries the
// candidate.
func (ro *rollout) promote(candidate uint32) {
	pool := ro.srv.pool
	for id, v := range pool.ModelVersions() {
		if v == candidate {
			continue
		}
		if err := pool.Roll(context.Background(), id, candidate); err != nil {
			ro.srv.logf("serve: rollout: promote roll of slot %d failed: %v", id, err)
			ro.abort()
			return
		}
	}
	if ro.reg != nil {
		if err := ro.reg.Activate(candidate); err != nil {
			// The fleet is already serving v-candidate; a failed pointer
			// write must not undo that. It costs re-adoption on the next
			// warm restart, nothing live.
			ro.srv.logf("serve: rollout: persisting ACTIVE=v%d failed: %v", candidate, err)
		}
	}
	ro.mu.Lock()
	ro.incumbent = candidate
	ro.candidate = 0
	ro.phase = RolloutIdle
	ro.promoted++
	ro.mu.Unlock()
	ro.srv.metrics.ModelRollouts.With("promoted").Inc()
	ro.srv.logf("serve: rollout: v%d promoted on all %d slots", candidate, pool.Size())
}

// rollback returns the canary slots to the incumbent and finishes the
// rollout.
func (ro *rollout) rollback(candidate, incumbent uint32, ids []int) {
	pool := ro.srv.pool
	for _, id := range ids {
		if err := pool.Roll(context.Background(), id, incumbent); err != nil {
			ro.srv.logf("serve: rollout: rollback roll of slot %d failed: %v", id, err)
			ro.abort()
			return
		}
	}
	ro.mu.Lock()
	ro.candidate = 0
	ro.phase = RolloutIdle
	ro.rolledBack++
	ro.mu.Unlock()
	ro.srv.metrics.ModelRollouts.With("rolledback").Inc()
	ro.srv.logf("serve: rollout: v%d rolled back, incumbent v%d restored on slots %v", candidate, incumbent, ids)
}

// abort ends a rollout that can no longer make progress (typically
// the pool closed mid-roll during a drain). Slots keep whatever
// version they carry; the registry pointer was never flipped.
func (ro *rollout) abort() {
	ro.mu.Lock()
	ro.candidate = 0
	ro.phase = RolloutIdle
	ro.aborted++
	ro.mu.Unlock()
	ro.srv.metrics.ModelRollouts.With("aborted").Inc()
}
