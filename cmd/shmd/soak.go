package main

// The soak runner: one harness that boots the detection service on
// real sockets, drives scripted client personas at it, lands the
// scenario's events mid-traffic, and judges the run against the
// serving invariants. `shmd soak` runs one of four scenarios:
//
//   - chaos (default): one backend on scripted chaos environments, a
//     seeded transient fault storm, and one permanent regulator death
//     that lifecycle must quarantine and respawn.
//   - fleet (-fleet): -fleet-backends backends behind a route.Router,
//     the same storm across all of them, and one backend hard-killed
//     mid-run. Traffic must leave the dead backend and re-converge onto
//     the survivors.
//   - tenants (-tenants): one multi-tenant backend and three tenant
//     personas — steady realtime, bursty standard, abusive batch. The
//     steady tenant keeps its p99 and sees no sheds; the abusive one
//     mostly sheds 429 at admission.
//   - rollout (-rollout): one registry-backed backend. A conforming v2
//     pushed mid-traffic must canary on one slot and promote; a
//     drifted v3 with a self-consistent manifest must roll back,
//     leaving v2 on every slot. -duration is the budget both rollouts
//     must resolve within; the run ends shortly after the rollback.
//
// Every scenario shares the flags, the boot path, the client loop and
// the JSON report, and every one fails on a lost request, a 5xx rate
// over budget, or a slot checked out twice.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/registry"
	"shmd/internal/route"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// scenario is one soak: the topology it boots, the personas that drive
// traffic, and the events it lands. The checks follow from those: every
// scenario gates traffic, lost requests, 5xx and double checkouts, and
// each event adds the checks that prove it was survived.
type scenario struct {
	// name prefixes log lines and errors.
	name string
	// fleet boots -fleet-backends backends behind a route.Router and
	// kills the last one at -kill-at of the run; the router must eject
	// it and converge onto the survivors. Otherwise one backend is
	// served directly.
	fleet bool
	// personas drive the traffic, each tagged with its tenant when the
	// spec names one. Nil means -clients untagged, well-behaved loops.
	personas []persona
	// storm builds every slot on a scripted chaos.Env and lands a seeded
	// transient fault on a random slot every -storm-every.
	storm bool
	// permanentFault (with storm) kills backend 0's slot 0 regulator at
	// -permanent-at of the run; lifecycle must quarantine and respawn it.
	permanentFault bool
	// rollout boots on a registry and drives the v2-promote /
	// v3-rollback arc; the run ends once the arc resolves.
	rollout bool
}

var (
	chaosSoak   = scenario{name: "soak", storm: true, permanentFault: true}
	fleetSoak   = scenario{name: "fleet soak", fleet: true, storm: true}
	tenantSoak  = scenario{name: "tenant soak", personas: tenantPersonas}
	rolloutSoak = scenario{name: "rollout soak", rollout: true}
)

// persona is one scripted client behavior.
type persona struct {
	// spec tags the persona's requests with its tenant and class and
	// registers its quota on the backend (zero ID = untagged).
	spec tenant.Spec
	// loops is how many concurrent request loops run the persona.
	loops int
	// pace sleeps between requests (steady traffic); zero hammers.
	pace time.Duration
	// burst > 0 sends that many back-to-back requests, then idles.
	burst int
	idle  time.Duration
	// wellBehaved personas honor sheds and must lose nothing, with 5xx
	// inside -max-5xx. The others never back off, and at least
	// -min-abusive-shed of their requests must shed 429.
	wellBehaved bool
	// slo personas must see zero sheds and a p99 inside -slo-p99.
	slo bool
}

// tenantPersonas is the tenant scenario's cast. Quotas are sized
// relative to each persona's offered load, not the machine: steady
// offers ~half its sustained rate, bursty fits its burst capacity,
// abusive offers unbounded load against a small bucket.
var tenantPersonas = []persona{
	{
		spec:        tenant.Spec{ID: "steady", Class: tenant.Realtime, Rate: 400, Burst: 100},
		loops:       2,
		pace:        10 * time.Millisecond, // 2 × 100/s ≪ 400/s
		wellBehaved: true,
		slo:         true,
	},
	{
		spec:        tenant.Spec{ID: "bursty", Class: tenant.Standard, Rate: 100, Burst: 60},
		loops:       1,
		burst:       30,
		idle:        250 * time.Millisecond,
		wellBehaved: true,
	},
	{
		spec:  tenant.Spec{ID: "abusive", Class: tenant.Batch, Rate: 20, Burst: 10},
		loops: 2,
	},
}

// soakOptions are the soak flags.
type soakOptions struct {
	duration, hedgeAfter, maxBatchWait, deadline time.Duration
	stormEvery, sloP99                           time.Duration
	clients, pool, maxBatch, fleetBackends       int
	rate, permanentAt, killAt, max5xx, minShed   float64
	seed                                         uint64
	journal, report, model                       string
	wire                                         bool
}

// cmdSoak runs the selected soak until it resolves, its duration
// elapses, or the process is signalled.
func cmdSoak(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return soakRun(ctx, args)
}

// soakRun parses the soak flags and runs the scenario they select. A
// non-nil error means a flag was refused or an invariant broke.
func soakRun(ctx context.Context, args []string) error {
	sc, o, err := parseSoak(args)
	if err != nil {
		return err
	}
	return sc.run(ctx, o)
}

// parseSoak resolves the flags to a scenario and its options. It
// refuses two mode flags at once, and any flag set explicitly that the
// selected scenario would not act on.
func parseSoak(args []string) (scenario, soakOptions, error) {
	var o soakOptions
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	fs.DurationVar(&o.duration, "duration", 30*time.Second, "how long to soak (rollout: the budget both rollouts must resolve within)")
	fs.IntVar(&o.clients, "clients", 4, "concurrent request loops (not with -tenants: each persona has its own)")
	fs.IntVar(&o.pool, "pool", 3, "pooled detection sessions per backend")
	fs.Float64Var(&o.rate, "rate", 0.1, "target multiplier error rate")
	fs.Uint64Var(&o.seed, "seed", 1, "root seed (fault streams, storm schedule)")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 5*time.Millisecond, "hedged re-dispatch budget at the front door: the backend, or the router with -fleet (0 = off)")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "micro-batch lane limit (0 or 1 = a batch of one)")
	fs.DurationVar(&o.maxBatchWait, "max-batch-wait", 0, "cap on a partial micro-batch's wait behind a busy batcher (0 = serve default)")
	fs.DurationVar(&o.deadline, "deadline", 2*time.Second, "server-side default detection deadline")
	fs.StringVar(&o.journal, "journal", "", "calibration journal path (empty = journaling off; not with -fleet)")
	fs.StringVar(&o.report, "report", "soak_report.json", "JSON report output path")
	fs.DurationVar(&o.stormEvery, "storm-every", 100*time.Millisecond, "interval between storm fault triggers (chaos and fleet)")
	fs.Float64Var(&o.permanentAt, "permanent-at", 0.3, "fraction of the duration at which a permanent fault lands (chaos)")
	fs.Float64Var(&o.max5xx, "max-5xx", 0.05, "maximum tolerated 5xx fraction")
	fs.StringVar(&o.model, "model", "", "trained model path (empty = synthesized model)")
	fleet := fs.Bool("fleet", false, "soak the fleet topology: router + real backend listeners + one hard backend kill")
	fs.IntVar(&o.fleetBackends, "fleet-backends", 3, "backend services behind the router (fleet mode)")
	fs.Float64Var(&o.killAt, "kill-at", 0.4, "fraction of the duration at which one backend is hard-killed (fleet mode)")
	fs.BoolVar(&o.wire, "wire", false, "drive detections over the SHMDWIRE binary protocol via the Go SDK instead of HTTP")
	tenants := fs.Bool("tenants", false, "soak the multi-tenant QoS layer: steady/bursty/abusive tenant personas against one server, isolation SLOs asserted")
	rollout := fs.Bool("rollout", false, "soak the canary rollout arc: push a conforming model mid-traffic (must promote), then a drifted one (must roll back)")
	fs.DurationVar(&o.sloP99, "slo-p99", 500*time.Millisecond, "steady persona's p99 latency SLO (tenant mode)")
	fs.Float64Var(&o.minShed, "min-abusive-shed", 0.5, "minimum fraction of the abusive persona's requests that must shed 429 (tenant mode)")
	if err := fs.Parse(args); err != nil {
		return scenario{}, o, err
	}

	sc := chaosSoak
	var modes []string
	for _, m := range []struct {
		flag string
		on   bool
		sc   scenario
	}{{"-fleet", *fleet, fleetSoak}, {"-tenants", *tenants, tenantSoak}, {"-rollout", *rollout, rolloutSoak}} {
		if m.on {
			modes = append(modes, m.flag)
			sc = m.sc
		}
	}
	if len(modes) > 1 {
		return scenario{}, o, fmt.Errorf("soak: %s select different scenarios; set one", strings.Join(modes, " and "))
	}
	var refused error
	fs.Visit(func(f *flag.Flag) {
		if refused == nil && !sc.honours(f.Name) {
			refused = fmt.Errorf("%s does not use -%s", sc.name, f.Name)
		}
	})
	if refused != nil {
		return scenario{}, o, refused
	}
	if sc.fleet && o.fleetBackends < 2 {
		return scenario{}, o, fmt.Errorf("fleet soak needs at least 2 backends, got %d", o.fleetBackends)
	}
	return sc, o, nil
}

// honours reports whether the scenario acts on the soak flag name.
// Flags outside the switch apply to every scenario.
func (sc scenario) honours(name string) bool {
	switch name {
	case "clients":
		return sc.personas == nil
	case "slo-p99", "min-abusive-shed":
		return sc.personas != nil
	case "storm-every":
		return sc.storm
	case "permanent-at":
		return sc.permanentFault
	case "fleet-backends", "kill-at":
		return sc.fleet
	case "journal":
		// One journal file holds one pool's slots; several backends
		// would overwrite each other's entries.
		return !sc.fleet
	}
	return true
}

// run boots the scenario's topology, drives it for the soak window,
// and writes the report. A non-nil error means an invariant broke or
// the run could not start.
func (sc scenario) run(ctx context.Context, o soakOptions) error {
	base, err := soakModel(o.model)
	if err != nil {
		return err
	}
	progs, err := soakPrograms(o.seed)
	if err != nil {
		return err
	}
	load, err := newSoakLoad(progs)
	if err != nil {
		return err
	}
	personas := sc.personas
	if personas == nil {
		personas = []persona{{loops: o.clients, wellBehaved: true}}
	}

	det, now := base, uint64(time.Now().Unix())
	var reg *registry.Registry
	if sc.rollout {
		dir, err := os.MkdirTemp("", "shmd-rollout-soak-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if reg, det, err = rolloutRegistry(dir, base, now); err != nil {
			return err
		}
	}
	tp, err := sc.boot(o, det, reg, personas)
	if err != nil {
		return err
	}
	log.Printf("%s: front door %s over %d backend(s) (pool %d, wire %v, %s)",
		sc.name, tp.front.name, len(tp.backends), o.pool, o.wire, o.duration)

	soakCtx, stopSoak := context.WithTimeout(ctx, o.duration)
	defer stopSoak()
	var wg sync.WaitGroup
	goWG := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}

	stats := make([]*personaStats, len(personas))
	for i, per := range personas {
		stats[i] = &personaStats{status: map[string]int{}}
		for l := 0; l < per.loops; l++ {
			seed := int64(o.seed) + int64(i*1000+l) + 1
			goWG(func() { per.drive(soakCtx, tp.front, load, o.deadline, seed, stats[i]) })
		}
	}

	// Health poller: watch the front door for a degraded → ok arc.
	var degradedSeen, recoveredAfter atomic.Bool
	goWG(func() { pollHealth(soakCtx, tp.front.url, &degradedSeen, &recoveredAfter) })

	stormTriggers := 0
	if sc.storm {
		goWG(func() { stormTriggers = sc.runStorm(soakCtx, o, tp.backends) })
	}
	var victim *backend
	var baseline map[string]uint64 // per-backend dispatches at the end of the post-kill grace
	if sc.fleet {
		victim = tp.backends[len(tp.backends)-1]
		goWG(func() { baseline = killBackend(soakCtx, o, tp.router, victim) })
	}
	var arcErr error
	if sc.rollout {
		arcErr = rolloutArc(soakCtx, tp.front.url, base, o.seed, now, func() bool {
			var n uint64
			for _, ps := range stats {
				n += ps.count()
			}
			return n >= 20
		})
		if arcErr == nil {
			// A short linger proves the post-rollback fleet still serves.
			sleepCtx(soakCtx, 250*time.Millisecond)
		}
		stopSoak()
	}
	<-soakCtx.Done()
	wg.Wait()

	if sc.permanentFault {
		// Give every quarantined slot its respawn budget before judging.
		drainDeadline := time.Now().Add(10 * time.Second)
		for tp.quarantinedNow() > 0 && time.Now().Before(drainDeadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}

	rep := soakReport{
		Duration:       o.duration.String(),
		Wire:           o.wire,
		Backends:       len(tp.backends),
		Status:         map[string]int{},
		StormTriggers:  stormTriggers,
		DegradedSeen:   degradedSeen.Load(),
		RecoveredAfter: recoveredAfter.Load(),
		SLOP99Ms:       float64(o.sloP99) / float64(time.Millisecond),
		MinShed:        o.minShed,
	}
	for i, per := range personas {
		row := stats[i].row(per.spec)
		rep.Personas = append(rep.Personas, row)
		rep.Requests += row.Requests
		rep.ClientErrors += row.ClientErrors
		for class, n := range row.Status {
			rep.Status[class] += n
		}
	}
	if rep.Requests > 0 {
		rep.Rate5xx = float64(rep.Status["5xx"]) / float64(rep.Requests)
	}
	if arcErr != nil {
		rep.fail("%v", arcErr)
	}
	// The clients are done. Drop their idle keep-alive connections:
	// http.Server's drain waits up to 5 s on a connection that never
	// carried a request, longer than the router's shutdown budget.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if err := tp.close(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	// Judge after the drain: requests the clients gave up on and
	// detached hedge runners can still check out slots until every
	// backend has stopped, and the counters must cover that window too.
	tp.observe(&rep, reg, victim, baseline)
	sc.judge(&rep, personas, o, tp.quarantinedNow(), baseline != nil)
	return rep.write(sc.name, o.report)
}

// judge appends every failed check of the scenario to rep.Failures.
func (sc scenario) judge(rep *soakReport, personas []persona, o soakOptions, quarantined uint64, graceSampled bool) {
	if rep.DoubleCheckouts != 0 {
		rep.fail("session-exclusivity violated: %d double checkouts", rep.DoubleCheckouts)
	}
	for i, per := range personas {
		row := rep.Personas[i]
		who := row.Tenant
		if who == "" {
			who = "clients"
		}
		if row.Requests == 0 {
			rep.fail("%s: no requests completed", who)
			continue
		}
		if row.Status["2xx"] == 0 {
			rep.fail("%s: no successful detections", who)
		}
		if per.wellBehaved {
			if row.ClientErrors != 0 {
				rep.fail("%s: %d requests lost at the client (transport errors)", who, row.ClientErrors)
			}
			if r5 := float64(row.Status["5xx"]) / float64(row.Requests); r5 > o.max5xx {
				rep.fail("%s: 5xx rate %.4f exceeds budget %.4f", who, r5, o.max5xx)
			}
		} else if row.ShedFraction < o.minShed {
			rep.fail("%s: shed fraction %.3f below %.3f (quota not biting)", who, row.ShedFraction, o.minShed)
		}
		if per.slo {
			if row.Sheds != 0 {
				rep.fail("%s: %d rate sheds (isolation broken: inside-quota tenant was refused)", who, row.Sheds)
			}
			if p99 := time.Duration(row.P99Ms * float64(time.Millisecond)); p99 > o.sloP99 {
				rep.fail("%s: p99 %s exceeds SLO %s", who, p99, o.sloP99)
			}
		}
	}
	if sc.permanentFault {
		if rep.Quarantines == 0 {
			rep.fail("permanent fault never quarantined a slot")
		}
		if quarantined != 0 {
			rep.fail("%d slot(s) still quarantined after drain", quarantined)
		}
		if rep.Respawns < rep.Quarantines {
			rep.fail("only %d of %d quarantined slots respawned", rep.Respawns, rep.Quarantines)
		}
	}
	if sc.fleet {
		if !graceSampled {
			rep.fail("kill+grace never completed within the soak duration (raise -duration or lower -kill-at)")
		}
		if rep.Ejections == 0 {
			rep.fail("dead backend was never ejected from the probe rotation")
		}
		for _, row := range rep.Fleet {
			switch {
			case row.Killed:
				if graceSampled && row.RequestsAfterGrace != 0 {
					rep.fail("dead backend %s still received %d dispatches after the grace window", row.Backend, row.RequestsAfterGrace)
				}
				if row.ReadyAtEnd {
					rep.fail("dead backend %s still marked ready at end", row.Backend)
				}
			case graceSampled && row.RequestsAfterGrace == 0:
				rep.fail("surviving backend %s received no traffic after the kill (no re-convergence)", row.Backend)
			}
		}
	}
	if sc.rollout {
		if rep.Promoted != 1 {
			rep.fail("v2 promotions = %d, want 1", rep.Promoted)
		}
		if rep.RolledBack != 1 {
			rep.fail("v3 rollbacks = %d, want 1", rep.RolledBack)
		}
		if rep.ActiveVersion != 2 {
			rep.fail("registry active = v%d after the arc, want v2", rep.ActiveVersion)
		}
		for id, v := range rep.SlotVersions {
			if v != 2 {
				rep.fail("slot %d ended on v%d, want v2", id, v)
			}
		}
		// v2 promote rolls every slot once; the v3 canary rolls one slot
		// out and back.
		if want := uint64(o.pool + 2); rep.Rolls < want {
			rep.fail("only %d slot rolls recorded, want >= %d", rep.Rolls, want)
		}
	}
}

// soakReport is the machine-readable result every scenario writes to
// -report. Counters sum over the backends; hedges are the front
// door's, and retries, sheds and ejections are the router's.
type soakReport struct {
	Duration        string               `json:"duration"`
	Wire            bool                 `json:"wire"`
	Backends        int                  `json:"backends"`
	Requests        uint64               `json:"requests"`
	Status          map[string]int       `json:"status"`
	ClientErrors    uint64               `json:"clientErrors"`
	Rate5xx         float64              `json:"rate5xx"`
	DoubleCheckouts uint64               `json:"doubleCheckouts"`
	Quarantines     uint64               `json:"quarantines"`
	Respawns        uint64               `json:"respawns"`
	Rolls           uint64               `json:"rolls"`
	Hedges          uint64               `json:"hedges"`
	HedgeWins       uint64               `json:"hedgeWins"`
	DeadlineExpired uint64               `json:"deadlineExpired"`
	Retries         uint64               `json:"retries"`
	Sheds           uint64               `json:"sheds"`
	Ejections       uint64               `json:"ejections"`
	DegradedSeen    bool                 `json:"degradedSeen"`
	RecoveredAfter  bool                 `json:"recoveredAfterDegraded"`
	StormTriggers   int                  `json:"stormTriggers"`
	Killed          string               `json:"killed"`
	Fleet           []fleetBackendReport `json:"fleet"`
	SLOP99Ms        float64              `json:"sloP99Ms"`
	MinShed         float64              `json:"minAbusiveShedFraction"`
	Personas        []personaReport      `json:"personas"`
	TenantSeries    int                  `json:"tenantSeries"`
	Promoted        uint64               `json:"promoted"`
	RolledBack      uint64               `json:"rolledBack"`
	Aborted         uint64               `json:"aborted"`
	ActiveVersion   uint32               `json:"activeVersion"`
	SlotVersions    []uint32             `json:"slotVersions"`
	Failures        []string             `json:"failures"`
	Pass            bool                 `json:"pass"`
}

// fleetBackendReport is one backend's row in a fleet report.
type fleetBackendReport struct {
	Backend string `json:"backend"`
	// Killed marks the backend the harness hard-killed mid-run.
	Killed bool `json:"killed"`
	// Requests is the router's dispatch-attempt count for this backend
	// at the end of the run; RequestsAfterGrace is the portion that
	// arrived after the post-kill grace window — the convergence
	// evidence (0 for the victim, >0 for survivors).
	Requests           uint64 `json:"requests"`
	RequestsAfterGrace uint64 `json:"requestsAfterGrace"`
	Failures           uint64 `json:"failures"`
	Trips              uint64 `json:"trips"`
	Recoveries         uint64 `json:"recoveries"`
	Ejections          uint64 `json:"ejections"`
	ReadyAtEnd         bool   `json:"readyAtEnd"`
}

// personaReport is one persona's row in the report.
type personaReport struct {
	Tenant       string         `json:"tenant"`
	Class        string         `json:"class"`
	Requests     uint64         `json:"requests"`
	Status       map[string]int `json:"status"`
	Sheds        uint64         `json:"sheds"`
	ShedFraction float64        `json:"shedFraction"`
	ClientErrors uint64         `json:"clientErrors"`
	P99Ms        float64        `json:"p99Ms"`
}

func (rep *soakReport) fail(format string, args ...any) {
	rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
}

// write settles the verdict, writes the report to path, and returns an
// error naming every failure.
func (rep *soakReport) write(name, path string) error {
	rep.Pass = len(rep.Failures) == 0
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	for _, row := range rep.Personas {
		if row.Tenant != "" {
			log.Printf("%s: %-7s %5d requests, shed %.3f, p99 %.1fms, %d lost",
				name, row.Tenant, row.Requests, row.ShedFraction, row.P99Ms, row.ClientErrors)
		}
	}
	log.Printf("%s: %d requests (%.4f 5xx, %d lost), %d quarantines, %d respawns, %d rolls, %d hedges (%d wins), %d retries, %d ejections, report %s",
		name, rep.Requests, rep.Rate5xx, rep.ClientErrors, rep.Quarantines, rep.Respawns, rep.Rolls,
		rep.Hedges, rep.HedgeWins, rep.Retries, rep.Ejections, path)
	if !rep.Pass {
		return fmt.Errorf("%s failed: %v", name, rep.Failures)
	}
	fmt.Printf("%s: PASS\n", name)
	return nil
}

// endpoint is one listening service — a backend or the router — with
// its HTTP listener and, in wire mode, a SHMDWIRE listener beside it.
type endpoint struct {
	name     string // HTTP host:port, the router's backend label
	url      string
	wireAddr string
	stopHTTP context.CancelFunc
	stopWire context.CancelFunc
	done     chan error
	wireDone chan error
	killed   bool
	stopOnce sync.Once
	err      error // the HTTP exit error, once stopped
}

// listen opens the listeners and starts serving on them. On a listen
// failure nothing is started and the caller still owns what it built.
func listen(serveHTTP, serveWire func(context.Context, net.Listener) error, withWire bool) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{name: ln.Addr().String(), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if withWire {
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			return nil, err
		}
		ep.wireAddr = wln.Addr().String()
		ep.wireDone = make(chan error, 1)
		wctx, stop := context.WithCancel(context.Background())
		ep.stopWire = stop
		go func() { ep.wireDone <- serveWire(wctx, wln) }()
	}
	hctx, stop := context.WithCancel(context.Background())
	ep.stopHTTP = stop
	go func() { ep.done <- serveHTTP(hctx, ln) }()
	return ep, nil
}

// shutdown stops the endpoint once and waits for it: the wire listener
// drains first, then HTTP — a backend's HTTP shutdown closes its pool,
// which the wire tier must not outlive. It returns the HTTP exit error;
// a killed endpoint's is dropped.
func (ep *endpoint) shutdown() error {
	ep.stopOnce.Do(func() {
		if ep.wireDone != nil {
			ep.stopWire()
			<-ep.wireDone
		}
		ep.stopHTTP()
		ep.err = <-ep.done
	})
	if ep.killed {
		return nil
	}
	return ep.err
}

// kill takes the endpoint down mid-traffic without waiting, in
// shutdown's order. Without a wire listener the HTTP listener closes at
// once (new connections refused at the TCP layer, like a dead host).
// With one, the wire listener closes at once and the HTTP listener only
// once the wire drain has finished its in-flight detects (bounded by
// the backend's ShutdownTimeout); until then HTTP still accepts, and
// /readyz answers 503. Closing the listeners from outside instead would
// let Serve take its listener-error exit, which closes the pool while
// connections on it are still served.
func (ep *endpoint) kill() {
	ep.killed = true
	go ep.shutdown()
}

// backend is one running detection service under the harness.
type backend struct {
	*endpoint
	srv *serve.Server
}

// topology is what a scenario boots: the backends and, in a fleet, the
// router in front of them. front is where the clients, the health
// poller and the admin calls go.
type topology struct {
	backends []*backend
	router   *route.Router
	front    *endpoint
}

// boot starts the scenario's backends, and the router over them in a
// fleet. On error it shuts down whatever it had started.
func (sc scenario) boot(o soakOptions, det *hmd.HMD, reg *registry.Registry, personas []persona) (*topology, error) {
	loops := 0
	var specs []tenant.Spec
	for _, per := range personas {
		loops += per.loops
		if per.spec.ID != "" {
			specs = append(specs, per.spec)
		}
	}
	n := 1
	if sc.fleet {
		n = o.fleetBackends
	}
	tp := &topology{}
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)*101
		cfg := serve.Config{
			Pool: serve.PoolConfig{
				Size:      o.pool,
				ErrorRate: o.rate,
				Seed:      seed,
				Lifecycle: serve.LifecycleConfig{
					Enabled:           true,
					RespawnBackoff:    20 * time.Millisecond,
					RespawnMaxBackoff: time.Second,
				},
				JournalPath: o.journal,
				Logf:        log.Printf,
			},
			QueueDepth:      4 * loops,
			DefaultDeadline: o.deadline,
			MaxBatch:        o.maxBatch,
			MaxBatchWait:    o.maxBatchWait,
			JitterSeed:      int64(o.seed) + int64(i) + 1,
		}
		if !sc.fleet {
			cfg.HedgeAfter = o.hedgeAfter // in a fleet the router hedges
		}
		if sc.storm {
			// Empty rule set: every fault is a scripted storm trigger, so
			// the run is reproducible from the seed.
			cfg.Pool.ChaosConfig = &chaos.Config{Seed: seed}
		}
		if len(specs) > 0 {
			cfg.Tenancy = &tenant.Config{Tenants: specs}
		}
		if reg != nil {
			cfg.Registry = reg
			cfg.Pool.ModelVersion = 1
			cfg.Rollout = serve.RolloutConfig{CanarySlots: 1, Window: 48, MinCanary: 16}
		}
		srv, err := serve.New(det, cfg)
		if err != nil {
			tp.close()
			return nil, err
		}
		ep, err := listen(srv.Serve, srv.ServeWire, o.wire)
		if err != nil {
			srv.Close()
			tp.close()
			return nil, err
		}
		tp.backends = append(tp.backends, &backend{endpoint: ep, srv: srv})
	}
	tp.front = tp.backends[0].endpoint
	if !sc.fleet {
		return tp, nil
	}

	var urls, wireAddrs []string
	for _, b := range tp.backends {
		urls = append(urls, b.url)
		if o.wire {
			wireAddrs = append(wireAddrs, b.wireAddr)
		}
	}
	rt, err := route.New(route.Config{
		Backends:      urls,
		WireBackends:  wireAddrs,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Breaker: core.BreakerConfig{
			Threshold:   3,
			Cooldown:    100 * time.Millisecond,
			MaxCooldown: time.Second,
		},
		HedgeAfter:      o.hedgeAfter,
		MaxRetries:      2,
		Timeout:         o.deadline + 5*time.Second,
		ShutdownTimeout: 5 * time.Second,
		JitterSeed:      int64(o.seed),
	})
	var ep *endpoint
	if err == nil {
		ep, err = listen(rt.Serve, rt.ServeWire, o.wire)
	}
	if err != nil {
		tp.close()
		return nil, err
	}
	tp.router, tp.front = rt, ep
	return tp, nil
}

// close shuts the router down first, then every backend, and joins
// their shutdown errors.
func (tp *topology) close() error {
	var errs []error
	if tp.router != nil {
		errs = append(errs, tp.front.shutdown())
	}
	for _, b := range tp.backends {
		errs = append(errs, b.shutdown())
	}
	return errors.Join(errs...)
}

// quarantinedNow counts the slots quarantined across the backends.
func (tp *topology) quarantinedNow() uint64 {
	var n uint64
	for _, b := range tp.backends {
		n += uint64(b.srv.Pool().QuarantinedNow())
	}
	return n
}

// observe fills rep's service-side counters from the backends, the
// router, and the registry.
func (tp *topology) observe(rep *soakReport, reg *registry.Registry, victim *backend, baseline map[string]uint64) {
	for _, b := range tp.backends {
		p, m, st := b.srv.Pool(), b.srv.Metrics(), b.srv.Rollout().Status()
		rep.DoubleCheckouts += p.DoubleCheckouts()
		rep.Quarantines += p.Quarantines()
		rep.Respawns += p.Respawns()
		rep.Rolls += p.Rolls()
		rep.SlotVersions = append(rep.SlotVersions, p.ModelVersions()...)
		rep.DeadlineExpired += m.DeadlineExpired.Value()
		rep.TenantSeries += m.TenantAccepted.Len()
		rep.Promoted += st.Promoted
		rep.RolledBack += st.RolledBack
		rep.Aborted += st.Aborted
		if tp.router == nil {
			rep.Hedges += m.Hedges.Value()
			rep.HedgeWins += m.HedgeWins.Value()
		}
	}
	if reg != nil {
		rep.ActiveVersion, _ = reg.Active()
	}
	if victim != nil {
		rep.Killed = victim.name
	}
	if tp.router == nil {
		return
	}
	m := tp.router.Metrics()
	rep.Hedges = m.Hedges.Value()
	rep.HedgeWins = m.HedgeWins.Value()
	rep.Retries = m.Retries.Value()
	rep.Sheds = m.Sheds.Value()
	rep.Ejections = m.Ejections.Value()
	for _, b := range tp.router.Health().Backends {
		row := fleetBackendReport{
			Backend:    b.Backend,
			Killed:     victim != nil && b.Backend == victim.name,
			Requests:   b.Requests,
			Failures:   b.Failures,
			Trips:      b.Trips,
			Recoveries: b.Recoveries,
			Ejections:  b.Ejections,
			ReadyAtEnd: b.Ready,
		}
		if baseline != nil {
			row.RequestsAfterGrace = b.Requests - baseline[b.Backend]
		}
		rep.Fleet = append(rep.Fleet, row)
	}
}

// runStorm lands seeded transient faults on random slots of random
// backends every -storm-every until ctx ends and, for a permanentFault
// scenario, one permanent regulator death on backend 0's slot 0 at
// -permanent-at of the run — the fault the supervisor cannot ride out
// and lifecycle must heal. It returns the number of faults landed.
func (sc scenario) runStorm(ctx context.Context, o soakOptions, backends []*backend) int {
	rnd := rand.New(rand.NewSource(int64(o.seed)))
	transients := []chaos.Rule{
		{Kind: chaos.TransientMSR},
		{Kind: chaos.LockContention, Duration: 2},
		{Kind: chaos.ThermalExcursion, Duration: 20, Magnitude: 30},
		{Kind: chaos.SupplyDroop, Duration: 10, Magnitude: 20},
	}
	trigger := func(b *backend, slot int, rule chaos.Rule) bool {
		env, ok := b.srv.Pool().Slots()[slot].Det.Regulator().(*chaos.Env)
		return ok && env.Trigger(rule) == nil
	}
	var permanent <-chan time.Time
	if sc.permanentFault {
		permanent = time.After(time.Duration(float64(o.duration) * o.permanentAt))
	}
	ticker := time.NewTicker(o.stormEvery)
	defer ticker.Stop()
	triggers := 0
	for {
		select {
		case <-ctx.Done():
			return triggers
		case <-permanent:
			if trigger(backends[0], 0, chaos.Rule{Kind: chaos.PermanentMSR}) {
				triggers++
				log.Printf("%s: permanent MSR fault injected on slot 0", sc.name)
			}
		case <-ticker.C:
			b := backends[rnd.Intn(len(backends))]
			if trigger(b, rnd.Intn(len(b.srv.Pool().Slots())), transients[rnd.Intn(len(transients))]) {
				triggers++
			}
		}
	}
}

// killBackend hard-kills victim at -kill-at of the run. After a grace
// window (probes must notice, breakers must open) it returns every
// backend's dispatch count as the baseline any further victim traffic
// is judged against; nil if the soak window closed first.
func killBackend(ctx context.Context, o soakOptions, rt *route.Router, victim *backend) map[string]uint64 {
	select {
	case <-ctx.Done():
		return nil
	case <-time.After(time.Duration(float64(o.duration) * o.killAt)):
	}
	log.Printf("fleet soak: hard-killing backend %s", victim.name)
	victim.kill()
	// Grace: several probe intervals plus a breaker cooldown.
	select {
	case <-ctx.Done():
		return nil
	case <-time.After(500 * time.Millisecond):
	}
	baseline := map[string]uint64{}
	for _, b := range rt.Health().Backends {
		baseline[b.Backend] = b.Requests
	}
	return baseline
}

// pollHealth watches url's /healthz until ctx ends, recording a 503
// and a later 200.
func pollHealth(ctx context.Context, url string, degradedSeen, recoveredAfter *atomic.Bool) {
	client := &http.Client{Timeout: 2 * time.Second}
	for ctx.Err() == nil {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				degradedSeen.Store(true)
			} else if resp.StatusCode == http.StatusOK && degradedSeen.Load() {
				recoveredAfter.Store(true)
			}
		}
		sleepCtx(ctx, 25*time.Millisecond)
	}
}

// soakLoad is the one detect request every loop sends, in both
// encodings.
type soakLoad struct {
	json []byte
	wire wire.DetectRequest
}

func newSoakLoad(progs [][]trace.WindowCounts) (soakLoad, error) {
	var l soakLoad
	var req serve.DetectRequest
	for i, windows := range progs {
		id := fmt.Sprintf("soak-%d", i)
		req.Programs = append(req.Programs, serve.ProgramJSON{ID: id, Windows: serve.EncodeWindows(windows)})
		l.wire.Programs = append(l.wire.Programs, wire.DetectProgram{ID: id, Windows: windows})
	}
	var err error
	l.json, err = json.Marshal(req)
	return l, err
}

// soakPrograms traces the two programs every soak request carries: a
// trojan and a benign program, 4 windows of 256 instructions each.
func soakPrograms(seed uint64) ([][]trace.WindowCounts, error) {
	var progs [][]trace.WindowCounts
	for _, cls := range []trace.Class{trace.Trojan, trace.Benign} {
		prog, err := trace.NewProgram(cls, 0, seed)
		if err != nil {
			return nil, err
		}
		windows, err := prog.Trace(4, 256)
		if err != nil {
			return nil, err
		}
		progs = append(progs, windows)
	}
	return progs, nil
}

// personaStats collects one persona's client-side outcomes.
type personaStats struct {
	mu        sync.Mutex
	requests  uint64
	status    map[string]int
	sheds     uint64 // 429s
	lost      uint64
	latencies []time.Duration // successful (2xx) requests only
}

func (ps *personaStats) record(code int, d time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.requests++
	ps.status[fmt.Sprintf("%dxx", code/100)]++
	if code == http.StatusTooManyRequests {
		ps.sheds++
	}
	if code/100 == 2 {
		ps.latencies = append(ps.latencies, d)
	}
}

func (ps *personaStats) lose() {
	ps.mu.Lock()
	ps.lost++
	ps.mu.Unlock()
}

func (ps *personaStats) count() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.requests
}

// row is the persona's report row, with the p99 of its 2xx latencies.
func (ps *personaStats) row(spec tenant.Spec) personaReport {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	row := personaReport{
		Tenant:       spec.ID,
		Requests:     ps.requests,
		Status:       ps.status,
		Sheds:        ps.sheds,
		ClientErrors: ps.lost,
	}
	if spec.ID != "" {
		row.Class = spec.Class.String()
	}
	if row.Requests > 0 {
		row.ShedFraction = float64(row.Sheds) / float64(row.Requests)
	}
	if n := len(ps.latencies); n > 0 {
		sort.Slice(ps.latencies, func(i, j int) bool { return ps.latencies[i] < ps.latencies[j] })
		row.P99Ms = float64(ps.latencies[(n-1)*99/100]) / float64(time.Millisecond)
	}
	return row
}

// drive is one request loop of the persona against ep until ctx ends:
// over HTTP, or over SHMDWIRE through the Go SDK when ep has a wire
// listener. A completed request — a verdict or a typed rejection —
// counts in its status class; anything else while the window is open
// (a transport error, a request lost in flight, a dial that never
// recovers) is a lost request.
func (per persona) drive(ctx context.Context, ep *endpoint, load soakLoad, deadline time.Duration, seed int64, ps *personaStats) {
	var send func() (int, error)
	if ep.wireAddr != "" {
		opts := sdk.Options{JitterSeed: seed}
		if per.spec.ID != "" {
			opts.Tenant, opts.Class = per.spec.ID, per.spec.Class.String()
		}
		cl, err := sdk.Dial(ep.wireAddr, opts)
		if err != nil {
			ps.lose()
			return
		}
		defer cl.Close()
		send = func() (int, error) {
			_, err := cl.Detect(ctx, load.wire)
			var ef *wire.ErrorFrame
			switch {
			case err == nil:
				return http.StatusOK, nil
			case errors.As(err, &ef):
				return int(ef.Code), nil
			}
			return 0, err
		}
	} else {
		client := &http.Client{Timeout: deadline + 10*time.Second}
		send = func() (int, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.url+"/v1/detect", bytes.NewReader(load.json))
			if err != nil {
				return 0, err
			}
			req.Header.Set("Content-Type", "application/json")
			if per.spec.ID != "" {
				req.Header.Set("X-Tenant", per.spec.ID)
				req.Header.Set("X-Tenant-Class", per.spec.Class.String())
			}
			resp, err := client.Do(req)
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode, nil
		}
	}
	for sent := 1; ctx.Err() == nil; sent++ {
		start := time.Now()
		code, err := send()
		if err != nil {
			if ctx.Err() == nil {
				ps.lose()
			}
			continue
		}
		ps.record(code, time.Since(start))
		switch {
		case per.pace > 0:
			sleepCtx(ctx, per.pace)
		case per.burst > 0 && sent%per.burst == 0:
			sleepCtx(ctx, per.idle)
		case per.wellBehaved && (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable):
			time.Sleep(time.Millisecond) // honor the shed, keep hammering
		}
	}
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// soakModel loads the model at path, or synthesizes a small
// deterministic detector when no path is given (the soak exercises the
// service machinery, not detection quality).
func soakModel(path string) (*hmd.HMD, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return hmd.LoadBundle(f)
	}
	net, err := fann.New(fann.Config{
		Layers: []int{features.DimInstrFreq, 8, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   7,
	})
	if err != nil {
		return nil, err
	}
	return hmd.FromNetwork(net, hmd.Config{})
}

// rolloutRegistry opens a model registry in dir with base registered
// and active as v1, and returns it with the v1 detector to serve.
func rolloutRegistry(dir string, base *hmd.HMD, now uint64) (*registry.Registry, *hmd.HMD, error) {
	reg, err := registry.Open(dir, log.Printf)
	if err != nil {
		return nil, nil, err
	}
	m1, err := registry.NewManifest(1, registry.FannType, base, now, registry.DefaultGoldenSpecs())
	if err != nil {
		return nil, nil, err
	}
	if err := reg.Register(m1); err != nil {
		return nil, nil, err
	}
	if err := reg.Activate(1); err != nil {
		return nil, nil, err
	}
	mdl1, err := reg.Model(1)
	if err != nil {
		return nil, nil, err
	}
	return reg, mdl1.Detector(), nil
}

// rolloutArc drives the canary arc against the live admin surface at
// url: once warm reports enough traffic for the baseline window, push
// v2 (base's network, a fresh manifest) and wait for its promotion,
// then push v3 (drifted, self-consistent manifest) and wait for its
// rollback with v2 untouched. The arc must resolve before ctx ends.
func rolloutArc(ctx context.Context, url string, base *hmd.HMD, seed, now uint64, warm func() bool) error {
	if err := rolloutWait(ctx, "warmup traffic", func() (bool, error) { return warm(), nil }); err != nil {
		return err
	}
	m2, err := registry.NewManifest(2, registry.FannType, base, now+1, registry.DefaultGoldenSpecs())
	if err != nil {
		return err
	}
	if err := rolloutPush(ctx, url, m2); err != nil {
		return err
	}
	log.Printf("rollout soak: pushed v2 (conforming), waiting for promotion")
	if err := rolloutWait(ctx, "v2 promotion", func() (bool, error) {
		st, err := rolloutAdminStatus(ctx, url)
		if err != nil {
			return false, err
		}
		if st.Rollout.RolledBack > 0 || st.Rollout.Aborted > 0 {
			return false, fmt.Errorf("v2 rollout ended %+v, want promotion", st.Rollout)
		}
		return st.Active == 2 && st.Rollout.Phase == "idle" && st.Rollout.Promoted == 1, nil
	}); err != nil {
		return err
	}
	log.Printf("rollout soak: v2 promoted fleet-wide")

	drifted, err := rolloutDriftedDetector(base, seed)
	if err != nil {
		return err
	}
	m3, err := registry.NewManifest(3, registry.FannType, drifted, now+2, registry.DefaultGoldenSpecs())
	if err != nil {
		return err
	}
	if err := rolloutPush(ctx, url, m3); err != nil {
		return err
	}
	log.Printf("rollout soak: pushed v3 (drifted), waiting for rollback")
	if err := rolloutWait(ctx, "v3 rollback", func() (bool, error) {
		st, err := rolloutAdminStatus(ctx, url)
		if err != nil {
			return false, err
		}
		if st.Rollout.Promoted > 1 {
			return false, fmt.Errorf("drifted v3 was promoted: %+v", st.Rollout)
		}
		return st.Active == 2 && st.Rollout.Phase == "idle" && st.Rollout.RolledBack == 1, nil
	}); err != nil {
		return err
	}
	log.Printf("rollout soak: v3 rolled back, incumbent v2 intact")
	return nil
}

// adminClient carries the rollout arc's admin calls. Its timeout keeps
// a wedged admin endpoint from holding one call past the soak budget.
var adminClient = &http.Client{Timeout: 5 * time.Second}

// rolloutPush POSTs an encoded manifest to the admin surface and
// expects the canary to be accepted.
func rolloutPush(ctx context.Context, url string, m *registry.Manifest) error {
	raw, err := registry.EncodeManifest(m)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/admin/models", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := adminClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("push v%d = %d (%s)", m.Version, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// rolloutAdminStatus fetches GET /v1/admin/models.
func rolloutAdminStatus(ctx context.Context, url string) (serve.AdminModelsReport, error) {
	var report serve.AdminModelsReport
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/admin/models", nil)
	if err != nil {
		return report, err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return report, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return report, fmt.Errorf("admin status = %d", resp.StatusCode)
	}
	return report, json.NewDecoder(resp.Body).Decode(&report)
}

// rolloutWait polls cond until it holds or ctx (the soak budget) ends.
// A cond error is terminal (scripted invariants like "v3 must not
// promote" report through it).
func rolloutWait(ctx context.Context, what string, cond func() (bool, error)) error {
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: not reached within the soak budget: %w", what, ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// rolloutDriftedDetector builds a detector on the incumbent's network
// whose decision threshold flips the soak programs' nominal verdicts —
// a drift the manifest's self-pinned goldens cannot catch, only the
// live canary comparison can.
func rolloutDriftedDetector(base *hmd.HMD, seed uint64) (*hmd.HMD, error) {
	progs, err := soakPrograms(seed)
	if err != nil {
		return nil, err
	}
	lo, hi := 1.0, 0.0
	for _, windows := range progs {
		dec := base.DetectProgram(windows)
		lo, hi = min(lo, dec.Score), max(hi, dec.Score)
	}
	cfg := base.Config()
	if lo >= cfg.Threshold {
		// Both programs score malware: raise the threshold above both.
		cfg.Threshold = (hi + 1) / 2
	} else {
		// At least one scores benign: drop the threshold below both, so
		// every soak verdict lands malware and the drift is unmissable.
		cfg.Threshold = lo / 2
	}
	return hmd.FromNetwork(base.Network(), cfg)
}
