package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/route"
	"shmd/internal/serve"
)

// fleetParams are the knobs the fleet soak inherits from the soak
// flag set.
type fleetParams struct {
	duration   time.Duration
	clients    int
	backends   int
	pool       int
	rate       float64
	seed       uint64
	hedgeAfter time.Duration
	deadline   time.Duration
	stormEvery time.Duration
	killAt     float64
	max5xx     float64
	report     string
	model      string
	// wire drives every client through the SHMDWIRE SDK against the
	// router's binary listener, with binary upstream relays to every
	// backend; probes stay on HTTP.
	wire bool
}

// fleetBackendReport is one backend's row in the fleet soak report.
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

// fleetReport is the machine-readable fleet soak result.
type fleetReport struct {
	Duration      string               `json:"duration"`
	Wire          bool                 `json:"wire"`
	Backends      int                  `json:"backends"`
	Requests      uint64               `json:"requests"`
	Status        map[string]int       `json:"status"`
	ClientErrors  uint64               `json:"clientErrors"`
	Rate5xx       float64              `json:"rate5xx"`
	Hedges        uint64               `json:"hedges"`
	HedgeWins     uint64               `json:"hedgeWins"`
	Retries       uint64               `json:"retries"`
	Sheds         uint64               `json:"sheds"`
	Ejections     uint64               `json:"ejections"`
	StormTriggers int                  `json:"stormTriggers"`
	Killed        string               `json:"killed"`
	Fleet         []fleetBackendReport `json:"fleet"`
	Failures      []string             `json:"failures"`
	Pass          bool                 `json:"pass"`
}

// fleetBackend is one running detection backend under the harness.
type fleetBackend struct {
	name string // host:port — matches the router's label
	url  string
	srv  *serve.Server
	ln   net.Listener
	stop context.CancelFunc
	done chan error
	// wireLn/wireAddr/wireDone exist only in wire mode: the backend's
	// SHMDWIRE listener alongside its HTTP one.
	wireLn   net.Listener
	wireAddr string
	wireDone chan error
}

// kill hard-kills the backend: the listeners close first (new
// connections refused at the TCP layer, exactly like a dead host),
// then the serve context is cancelled. The exit error is consumed by
// the harness's cleanup, which waits on done for every backend.
func (fb *fleetBackend) kill() {
	fb.ln.Close()
	if fb.wireLn != nil {
		fb.wireLn.Close()
	}
	fb.stop()
}

// fleetSoakRun drives the full fleet topology — router in front of
// real backend listeners, each backend a complete detection service on
// its own chaos environment — under a transient storm, hard-kills one
// backend partway through, and asserts the routing invariants: no
// client-visible lost requests, bounded 5xx, and traffic re-converged
// onto the survivors.
func fleetSoakRun(ctx context.Context, p fleetParams) error {
	if p.backends < 2 {
		return fmt.Errorf("fleet soak needs at least 2 backends, got %d", p.backends)
	}
	base, err := soakModel(p.model)
	if err != nil {
		return err
	}

	// Boot the backends.
	var fleet []*fleetBackend
	defer func() {
		for _, fb := range fleet {
			fb.stop()
			<-fb.done
			if fb.wireDone != nil {
				<-fb.wireDone
			}
		}
	}()
	for i := 0; i < p.backends; i++ {
		srv, err := serve.New(base, serve.Config{
			Pool: serve.PoolConfig{
				Size:        p.pool,
				ErrorRate:   p.rate,
				Seed:        p.seed + uint64(i)*101,
				ChaosConfig: &chaos.Config{Seed: p.seed + uint64(i)*101},
				Lifecycle: serve.LifecycleConfig{
					Enabled:           true,
					RespawnBackoff:    20 * time.Millisecond,
					RespawnMaxBackoff: time.Second,
				},
				Logf: log.Printf,
			},
			QueueDepth:      4 * p.clients,
			DefaultDeadline: p.deadline,
			ShutdownTimeout: 2 * time.Second,
			JitterSeed:      int64(p.seed) + int64(i) + 1,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		bctx, stop := context.WithCancel(context.Background())
		fb := &fleetBackend{
			name: ln.Addr().String(),
			url:  "http://" + ln.Addr().String(),
			srv:  srv,
			ln:   ln,
			stop: stop,
			done: make(chan error, 1),
		}
		go func() { fb.done <- fb.srv.Serve(bctx, fb.ln) }()
		if p.wire {
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			fb.wireLn = wln
			fb.wireAddr = wln.Addr().String()
			fb.wireDone = make(chan error, 1)
			go func() { fb.wireDone <- fb.srv.ServeWire(bctx, wln) }()
		}
		fleet = append(fleet, fb)
	}

	// Boot the router over them.
	urls := make([]string, len(fleet))
	for i, fb := range fleet {
		urls[i] = fb.url
	}
	var wireAddrs []string
	if p.wire {
		wireAddrs = make([]string, len(fleet))
		for i, fb := range fleet {
			wireAddrs[i] = fb.wireAddr
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
		HedgeAfter:      p.hedgeAfter,
		MaxRetries:      2,
		Timeout:         p.deadline + 5*time.Second,
		ShutdownTimeout: 5 * time.Second,
		JitterSeed:      int64(p.seed),
	})
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	routeCtx, stopRoute := context.WithCancel(context.Background())
	routeDone := make(chan error, 1)
	go func() { routeDone <- rt.Serve(routeCtx, rln) }()
	defer func() { stopRoute(); <-routeDone }()
	url := "http://" + rln.Addr().String()
	// In wire mode the router also listens on SHMDWIRE; its drain runs
	// before the HTTP shutdown (defers are LIFO) so the wire tier never
	// outlives the probe/breaker machinery it shares.
	var routerWireAddr string
	if p.wire {
		rwln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		routerWireAddr = rwln.Addr().String()
		wireRouteCtx, stopWireRoute := context.WithCancel(context.Background())
		routeWireDone := make(chan error, 1)
		go func() { routeWireDone <- rt.ServeWire(wireRouteCtx, rwln) }()
		defer func() { stopWireRoute(); <-routeWireDone }()
	}
	log.Printf("fleet soak: router %s over %d backends (pool %d each, clients %d, wire %v, %s)",
		rln.Addr(), p.backends, p.pool, p.clients, p.wire, p.duration)

	body, err := soakBody(p.seed)
	if err != nil {
		return err
	}
	wireReq, err := soakWireRequest(p.seed)
	if err != nil {
		return err
	}

	soakCtx, stopSoak := context.WithTimeout(ctx, p.duration)
	defer stopSoak()

	// Client loops: every request goes through the router; a transport
	// error here is a lost request, the thing the fleet must not allow.
	var (
		total, clientErrs atomic.Uint64
		statusMu          sync.Mutex
		status            = map[string]int{}
	)
	record := func(code int) {
		statusMu.Lock()
		status[fmt.Sprintf("%dxx", code/100)]++
		statusMu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		if p.wire {
			go func(c int) {
				defer wg.Done()
				soakWireClient(soakCtx, routerWireAddr, int64(p.seed)+int64(c)+1, wireReq, &total, &clientErrs, record)
			}(c)
			continue
		}
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: p.deadline + 10*time.Second}
			for soakCtx.Err() == nil {
				req, err := http.NewRequestWithContext(soakCtx, http.MethodPost, url+"/v1/detect", bytes.NewReader(body))
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					if soakCtx.Err() == nil {
						clientErrs.Add(1)
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				total.Add(1)
				record(resp.StatusCode)
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
					time.Sleep(time.Millisecond) // honor the shed, keep hammering
				}
			}
		}()
	}

	// Storm: scripted transient faults on random slots of random
	// backends. No permanent faults here — the featured failure is the
	// backend death below, and transients keep every supervisor busy
	// while it happens.
	stormTriggers := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(int64(p.seed)))
		transients := []chaos.Rule{
			{Kind: chaos.TransientMSR},
			{Kind: chaos.LockContention, Duration: 2},
			{Kind: chaos.ThermalExcursion, Duration: 20, Magnitude: 30},
			{Kind: chaos.SupplyDroop, Duration: 10, Magnitude: 20},
		}
		ticker := time.NewTicker(p.stormEvery)
		defer ticker.Stop()
		for {
			select {
			case <-soakCtx.Done():
				return
			case <-ticker.C:
				fb := fleet[rnd.Intn(len(fleet))]
				slots := fb.srv.Pool().Slots()
				slot := slots[rnd.Intn(len(slots))]
				if env, ok := slot.Det.Regulator().(*chaos.Env); ok {
					if err := env.Trigger(transients[rnd.Intn(len(transients))]); err == nil {
						stormTriggers++
					}
				}
			}
		}
	}()

	// The hard kill: one backend dies mid-run. After a grace window
	// (probes must notice, breakers must open), baseline every
	// backend's dispatch counter; any further victim traffic is a
	// convergence failure.
	victim := fleet[len(fleet)-1]
	baseline := map[string]uint64{}
	var baselineMu sync.Mutex
	killTimer := time.After(time.Duration(float64(p.duration) * p.killAt))
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-soakCtx.Done():
			return
		case <-killTimer:
		}
		log.Printf("fleet soak: hard-killing backend %s", victim.name)
		victim.kill()
		// Grace: several probe intervals plus a breaker cooldown.
		select {
		case <-time.After(500 * time.Millisecond):
		case <-soakCtx.Done():
			return
		}
		baselineMu.Lock()
		for _, b := range rt.Health().Backends {
			baseline[b.Backend] = b.Requests
		}
		baselineMu.Unlock()
	}()

	<-soakCtx.Done()
	wg.Wait()

	// Assemble the verdict from the router's fleet view.
	health := rt.Health()
	m := rt.Metrics()
	rep := fleetReport{
		Duration:      p.duration.String(),
		Wire:          p.wire,
		Backends:      p.backends,
		Requests:      total.Load(),
		Status:        status,
		ClientErrors:  clientErrs.Load(),
		Hedges:        m.Hedges.Value(),
		HedgeWins:     m.HedgeWins.Value(),
		Retries:       m.Retries.Value(),
		Sheds:         m.Sheds.Value(),
		Ejections:     m.Ejections.Value(),
		StormTriggers: stormTriggers,
		Killed:        victim.name,
	}
	if rep.Requests > 0 {
		rep.Rate5xx = float64(status["5xx"]) / float64(rep.Requests)
	}
	baselineMu.Lock()
	graceSampled := len(baseline) > 0
	for _, b := range health.Backends {
		row := fleetBackendReport{
			Backend:    b.Backend,
			Killed:     b.Backend == victim.name,
			Requests:   b.Requests,
			Failures:   b.Failures,
			Trips:      b.Trips,
			Recoveries: b.Recoveries,
			Ejections:  b.Ejections,
			ReadyAtEnd: b.Ready,
		}
		if graceSampled {
			row.RequestsAfterGrace = b.Requests - baseline[b.Backend]
		}
		rep.Fleet = append(rep.Fleet, row)
	}
	baselineMu.Unlock()

	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	if rep.Requests == 0 {
		fail("no requests completed")
	}
	if status["2xx"] == 0 {
		fail("no successful detections")
	}
	if rep.ClientErrors != 0 {
		fail("%d requests lost at the client (transport errors through the router)", rep.ClientErrors)
	}
	if rep.Rate5xx > p.max5xx {
		fail("5xx rate %.4f exceeds budget %.4f", rep.Rate5xx, p.max5xx)
	}
	if !graceSampled {
		fail("kill+grace never completed within the soak duration (raise -duration or lower -kill-at)")
	}
	if rep.Ejections == 0 {
		fail("dead backend was never ejected from the probe rotation")
	}
	for _, row := range rep.Fleet {
		switch {
		case row.Killed:
			if graceSampled && row.RequestsAfterGrace != 0 {
				fail("dead backend %s still received %d dispatches after the grace window", row.Backend, row.RequestsAfterGrace)
			}
			if row.ReadyAtEnd {
				fail("dead backend %s still marked ready at end", row.Backend)
			}
		default:
			if graceSampled && row.RequestsAfterGrace == 0 {
				fail("surviving backend %s received no traffic after the kill (no re-convergence)", row.Backend)
			}
		}
	}
	rep.Pass = len(rep.Failures) == 0

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.report, append(out, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("fleet soak: %d requests (%.4f 5xx, %d client errors), %d retries, %d hedges (%d wins), %d ejections, killed %s, report %s",
		rep.Requests, rep.Rate5xx, rep.ClientErrors, rep.Retries, rep.Hedges, rep.HedgeWins, rep.Ejections, rep.Killed, p.report)
	if !rep.Pass {
		return fmt.Errorf("fleet soak failed: %v", rep.Failures)
	}
	fmt.Println("fleet soak: PASS")
	return nil
}
