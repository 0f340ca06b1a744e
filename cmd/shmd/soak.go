package main

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
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/fann"
	"shmd/internal/features"
	"shmd/internal/hmd"
	"shmd/internal/serve"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// cmdSoak runs the chaos soak harness until the configured duration
// elapses or the process is signalled.
func cmdSoak(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return soakRun(ctx, args)
}

// soakReport is the machine-readable soak result written to -report.
type soakReport struct {
	Duration        string         `json:"duration"`
	Wire            bool           `json:"wire"`
	Requests        uint64         `json:"requests"`
	Status          map[string]int `json:"status"`
	ClientErrors    uint64         `json:"clientErrors"`
	Rate5xx         float64        `json:"rate5xx"`
	DoubleCheckouts uint64         `json:"doubleCheckouts"`
	Quarantines     uint64         `json:"quarantines"`
	Respawns        uint64         `json:"respawns"`
	Hedges          uint64         `json:"hedges"`
	HedgeWins       uint64         `json:"hedgeWins"`
	DeadlineExpired uint64         `json:"deadlineExpired"`
	DegradedSeen    bool           `json:"degradedSeen"`
	RecoveredAfter  bool           `json:"recoveredAfterDegraded"`
	StormTriggers   int            `json:"stormTriggers"`
	Failures        []string       `json:"failures"`
	Pass            bool           `json:"pass"`
}

// soakRun drives the full detection service — real listener, real HTTP
// clients — under a scripted chaos storm, then asserts the lifecycle
// invariants: zero double checkouts, every quarantined slot respawned,
// and a bounded 5xx rate. A non-nil error means an invariant broke.
func soakRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	duration := fs.Duration("duration", 30*time.Second, "how long to soak")
	clients := fs.Int("clients", 4, "concurrent request loops")
	pool := fs.Int("pool", 3, "pooled detection sessions")
	rate := fs.Float64("rate", 0.1, "target multiplier error rate")
	seed := fs.Uint64("seed", 1, "root seed (fault streams, storm schedule)")
	hedgeAfter := fs.Duration("hedge-after", 5*time.Millisecond, "hedged re-dispatch budget (0 = off)")
	maxBatch := fs.Int("max-batch", 0, "micro-batch lane limit (0 or 1 = scalar dispatch)")
	maxBatchWait := fs.Duration("max-batch-wait", 0, "cap on a partial micro-batch's wait behind a busy batcher (0 = serve default)")
	deadline := fs.Duration("deadline", 2*time.Second, "server-side default detection deadline")
	journal := fs.String("journal", "", "calibration journal path (empty = journaling off)")
	report := fs.String("report", "soak_report.json", "JSON report output path")
	stormEvery := fs.Duration("storm-every", 100*time.Millisecond, "interval between storm fault triggers")
	permanentAt := fs.Float64("permanent-at", 0.3, "fraction of the duration at which a permanent fault lands")
	max5xx := fs.Float64("max-5xx", 0.05, "maximum tolerated 5xx fraction")
	model := fs.String("model", "", "trained model path (empty = synthesized model)")
	fleet := fs.Bool("fleet", false, "soak the fleet topology: router + real backend listeners + one hard backend kill")
	fleetBackends := fs.Int("fleet-backends", 3, "backend services behind the router (fleet mode)")
	killAt := fs.Float64("kill-at", 0.4, "fraction of the duration at which one backend is hard-killed (fleet mode)")
	wireSoak := fs.Bool("wire", false, "drive detections over the SHMDWIRE binary protocol via the Go SDK instead of HTTP")
	tenants := fs.Bool("tenants", false, "soak the multi-tenant QoS layer: steady/bursty/abusive tenant personas against one server, isolation SLOs asserted")
	rolloutSoak := fs.Bool("rollout", false, "soak the canary rollout arc: push a conforming model mid-traffic (must promote), then a drifted one (must roll back)")
	sloP99 := fs.Duration("slo-p99", 500*time.Millisecond, "steady persona's p99 latency SLO (tenant mode)")
	minShed := fs.Float64("min-abusive-shed", 0.5, "minimum fraction of the abusive persona's requests that must shed 429 (tenant mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rolloutSoak {
		return rolloutSoakRun(ctx, rolloutParams{
			duration: *duration,
			clients:  *clients,
			pool:     *pool,
			rate:     *rate,
			seed:     *seed,
			deadline: *deadline,
			report:   *report,
			model:    *model,
			max5xx:   *max5xx,
		})
	}
	if *tenants {
		return tenantSoakRun(ctx, tenantParams{
			duration: *duration,
			pool:     *pool,
			rate:     *rate,
			seed:     *seed,
			deadline: *deadline,
			report:   *report,
			model:    *model,
			sloP99:   *sloP99,
			minShed:  *minShed,
			max5xx:   *max5xx,
		})
	}
	if *fleet {
		return fleetSoakRun(ctx, fleetParams{
			duration:   *duration,
			clients:    *clients,
			backends:   *fleetBackends,
			pool:       *pool,
			rate:       *rate,
			seed:       *seed,
			hedgeAfter: *hedgeAfter,
			deadline:   *deadline,
			stormEvery: *stormEvery,
			killAt:     *killAt,
			max5xx:     *max5xx,
			report:     *report,
			model:      *model,
			wire:       *wireSoak,
		})
	}

	base, err := soakModel(*model)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Pool: serve.PoolConfig{
			Size:      *pool,
			ErrorRate: *rate,
			Seed:      *seed,
			// Empty rule set: every fault is a scripted storm trigger, so
			// the run is reproducible from the seed.
			ChaosConfig: &chaos.Config{Seed: *seed},
			Lifecycle: serve.LifecycleConfig{
				Enabled:           true,
				RespawnBackoff:    20 * time.Millisecond,
				RespawnMaxBackoff: time.Second,
			},
			JournalPath: *journal,
			Logf:        log.Printf,
		},
		QueueDepth:      4 * *clients,
		DefaultDeadline: *deadline,
		HedgeAfter:      *hedgeAfter,
		MaxBatch:        *maxBatch,
		MaxBatchWait:    *maxBatchWait,
	}
	srv, err := serve.New(base, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serveCtx, ln) }()
	url := "http://" + ln.Addr().String()
	log.Printf("soak: serving on %s (pool %d, clients %d, %s)", ln.Addr(), *pool, *clients, *duration)

	// In wire mode a SHMDWIRE listener runs alongside HTTP (the health
	// poller stays on HTTP); the wire listener drains before the HTTP
	// shutdown closes the pool.
	var wireAddr string
	wireCtx, stopWire := context.WithCancel(context.Background())
	defer stopWire()
	var wireDone chan error
	if *wireSoak {
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopServe()
			<-serveDone
			return err
		}
		wireAddr = wln.Addr().String()
		wireDone = make(chan error, 1)
		go func() { wireDone <- srv.ServeWire(wireCtx, wln) }()
		log.Printf("soak: SHMDWIRE on %s", wireAddr)
	}
	shutdown := func() error {
		if wireDone != nil {
			stopWire()
			<-wireDone
		}
		stopServe()
		return <-serveDone
	}

	body, err := soakBody(*seed)
	if err != nil {
		shutdown()
		return err
	}
	wireReq, err := soakWireRequest(*seed)
	if err != nil {
		shutdown()
		return err
	}

	soakCtx, stopSoak := context.WithTimeout(ctx, *duration)
	defer stopSoak()

	// Request loops: count outcomes by status class.
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
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		if *wireSoak {
			go func(c int) {
				defer wg.Done()
				soakWireClient(soakCtx, wireAddr, int64(*seed)+int64(c)+1, wireReq, &total, &clientErrs, record)
			}(c)
			continue
		}
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: *deadline + 5*time.Second}
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
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(time.Millisecond) // honor the shed, keep hammering
				}
			}
		}()
	}

	// Health poller: watch for the degraded → ok recovery arc.
	var degradedSeen, recoveredAfter atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 2 * time.Second}
		for soakCtx.Err() == nil {
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
			select {
			case <-time.After(25 * time.Millisecond):
			case <-soakCtx.Done():
			}
		}
	}()

	// Storm: scripted transient faults on random slots at a fixed
	// cadence, plus one permanent regulator death partway through — the
	// fault the supervisor cannot ride out and lifecycle must heal.
	stormTriggers := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(int64(*seed)))
		transients := []chaos.Rule{
			{Kind: chaos.TransientMSR},
			{Kind: chaos.LockContention, Duration: 2},
			{Kind: chaos.ThermalExcursion, Duration: 20, Magnitude: 30},
			{Kind: chaos.SupplyDroop, Duration: 10, Magnitude: 20},
		}
		permanentTimer := time.After(time.Duration(float64(*duration) * *permanentAt))
		ticker := time.NewTicker(*stormEvery)
		defer ticker.Stop()
		for {
			select {
			case <-soakCtx.Done():
				return
			case <-permanentTimer:
				slots := srv.Pool().Slots()
				if env, ok := slots[0].Det.Regulator().(*chaos.Env); ok {
					if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err == nil {
						stormTriggers++
						log.Printf("soak: permanent MSR fault injected on slot 0")
					}
				}
			case <-ticker.C:
				slots := srv.Pool().Slots()
				slot := slots[rnd.Intn(len(slots))]
				if env, ok := slot.Det.Regulator().(*chaos.Env); ok {
					rule := transients[rnd.Intn(len(transients))]
					if err := env.Trigger(rule); err == nil {
						stormTriggers++
					}
				}
			}
		}
	}()

	<-soakCtx.Done()
	wg.Wait()

	// Give every quarantined slot its respawn budget before judging.
	drainDeadline := time.Now().Add(10 * time.Second)
	for srv.Pool().QuarantinedNow() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if err := shutdown(); err != nil {
		return fmt.Errorf("soak: server shutdown: %w", err)
	}

	// Assemble the verdict.
	p := srv.Pool()
	m := srv.Metrics()
	rep := soakReport{
		Duration:        duration.String(),
		Wire:            *wireSoak,
		Requests:        total.Load(),
		Status:          status,
		ClientErrors:    clientErrs.Load(),
		DoubleCheckouts: p.DoubleCheckouts(),
		Quarantines:     p.Quarantines(),
		Respawns:        p.Respawns(),
		Hedges:          m.Hedges.Value(),
		HedgeWins:       m.HedgeWins.Value(),
		DeadlineExpired: m.DeadlineExpired.Value(),
		DegradedSeen:    degradedSeen.Load(),
		RecoveredAfter:  recoveredAfter.Load(),
		StormTriggers:   stormTriggers,
	}
	if rep.Requests > 0 {
		rep.Rate5xx = float64(status["5xx"]) / float64(rep.Requests)
	}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	if rep.Requests == 0 {
		fail("no requests completed")
	}
	if status["2xx"] == 0 {
		fail("no successful detections")
	}
	if rep.DoubleCheckouts != 0 {
		fail("session-exclusivity violated: %d double checkouts", rep.DoubleCheckouts)
	}
	if rep.Rate5xx > *max5xx {
		fail("5xx rate %.4f exceeds budget %.4f", rep.Rate5xx, *max5xx)
	}
	if rep.Quarantines == 0 {
		fail("permanent fault never quarantined a slot")
	}
	if left := p.QuarantinedNow(); left != 0 {
		fail("%d slot(s) still quarantined after drain", left)
	}
	if rep.Respawns < rep.Quarantines {
		fail("only %d of %d quarantined slots respawned", rep.Respawns, rep.Quarantines)
	}
	rep.Pass = len(rep.Failures) == 0

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*report, append(out, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("soak: %d requests (%.4f 5xx), %d quarantines, %d respawns, %d hedges (%d wins), report %s",
		rep.Requests, rep.Rate5xx, rep.Quarantines, rep.Respawns, rep.Hedges, rep.HedgeWins, *report)
	if !rep.Pass {
		return fmt.Errorf("soak failed: %v", rep.Failures)
	}
	fmt.Println("soak: PASS")
	return nil
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

// soakWireRequest builds the binary twin of soakBody: the same two
// synthesized programs as a SHMDWIRE detect request.
func soakWireRequest(seed uint64) (wire.DetectRequest, error) {
	var req wire.DetectRequest
	for i, cls := range []trace.Class{trace.Trojan, trace.Benign} {
		prog, err := trace.NewProgram(cls, 0, seed)
		if err != nil {
			return wire.DetectRequest{}, err
		}
		windows, err := prog.Trace(4, 256)
		if err != nil {
			return wire.DetectRequest{}, err
		}
		req.Programs = append(req.Programs, wire.DetectProgram{
			ID:      fmt.Sprintf("soak-%d", i),
			Windows: windows,
		})
	}
	return req, nil
}

// soakWireClient is one SDK-driven request loop: dial once, let the
// SDK's own backoff handle reconnects, and classify every outcome the
// way the HTTP loop classifies status codes. A typed server rejection
// counts as a completed request in its status class; anything else —
// a lost in-flight request, a dial that never recovers — is a client
// error, the metric the soak must keep at zero through a fleet kill.
func soakWireClient(ctx context.Context, addr string, seed int64, req wire.DetectRequest, total, clientErrs *atomic.Uint64, record func(int)) {
	cl, err := sdk.Dial(addr, sdk.Options{JitterSeed: seed})
	if err != nil {
		clientErrs.Add(1)
		return
	}
	defer cl.Close()
	for ctx.Err() == nil {
		_, err := cl.Detect(ctx, req)
		switch {
		case err == nil:
			total.Add(1)
			record(200)
		case ctx.Err() != nil:
			// The soak window closed while this request was in flight.
		default:
			var ef *wire.ErrorFrame
			if errors.As(err, &ef) {
				total.Add(1)
				record(int(ef.Code))
				if ef.Code == wire.CodeOverloaded || ef.Code == wire.CodeUnavailable {
					time.Sleep(time.Millisecond) // honor the shed, keep hammering
				}
				continue
			}
			clientErrs.Add(1)
		}
	}
}

// soakBody marshals a fixed two-program detection batch from
// synthesized traces.
func soakBody(seed uint64) ([]byte, error) {
	req := serve.DetectRequest{}
	for i, cls := range []trace.Class{trace.Trojan, trace.Benign} {
		prog, err := trace.NewProgram(cls, 0, seed)
		if err != nil {
			return nil, err
		}
		windows, err := prog.Trace(4, 256)
		if err != nil {
			return nil, err
		}
		req.Programs = append(req.Programs, serve.ProgramJSON{
			ID:      fmt.Sprintf("soak-%d", i),
			Windows: serve.EncodeWindows(windows),
		})
	}
	return json.Marshal(req)
}
