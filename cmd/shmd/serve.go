package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shmd/internal/hmd"
	"shmd/internal/registry"
	"shmd/internal/replay"
	"shmd/internal/serve"
	"shmd/internal/tenant"
)

// tenantSpecs collects repeatable -tenant flags.
type tenantSpecs []tenant.Spec

func (s *tenantSpecs) String() string {
	parts := make([]string, 0, len(*s))
	for _, spec := range *s {
		parts = append(parts, spec.ID)
	}
	return strings.Join(parts, ",")
}

func (s *tenantSpecs) Set(v string) error {
	spec, err := tenant.ParseSpec(v)
	if err != nil {
		return err
	}
	*s = append(*s, spec)
	return nil
}

// serveReady, when non-nil, receives the bound listen address once the
// service is accepting connections (tests hook it to find the port).
var serveReady func(addr string)

// serveWireReady, when non-nil, receives the bound SHMDWIRE listen
// address (tests hook it to find the wire port).
var serveWireReady func(addr string)

// cmdServe runs the long-running detection service until SIGINT or
// SIGTERM, then shuts down gracefully: in-flight requests drain and
// every pooled session's voltage plane rolls back to nominal.
func cmdServe(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveRun(ctx, args)
}

// serveRun is cmdServe with a caller-owned lifetime (tests cancel the
// context instead of sending signals).
func serveRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.fann", "trained model path")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	wireAddr := fs.String("wire-addr", "", "SHMDWIRE binary protocol listen address (empty = wire listener off)")
	pool := fs.Int("pool", 4, "pooled detection sessions")
	queue := fs.Int("queue", 0, "waiting requests beyond in-service before 429 (0 = 2x pool)")
	rate := fs.Float64("rate", 0.1, "target multiplier error rate (0 = nominal)")
	undervolt := fs.Float64("undervolt", 0, "explicit undervolt depth in mV (overrides -rate)")
	seed := fs.Uint64("seed", 1, "root seed for the per-session fault streams")
	withChaos := fs.Bool("chaos", false, "run sessions on fault-injecting environments")
	withPprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	lifecycle := fs.Bool("lifecycle", true, "quarantine and respawn terminally degraded sessions")
	journalPath := fs.String("journal", "", "calibration journal path (empty = journaling off)")
	hedgeAfter := fs.Duration("hedge-after", 0, "re-dispatch a slow batch to a second slot after this budget (0 = off)")
	maxBatch := fs.Int("max-batch", 0, "coalesce concurrent programs into micro-batches of up to this many lanes (0 or 1 = a batch of one)")
	maxBatchWait := fs.Duration("max-batch-wait", 0, "cap on a partial micro-batch's wait behind a busy batcher; an idle one dispatches at once (0 = 2ms default when -max-batch enables batching)")
	deadline := fs.Duration("deadline", 0, "default per-request detection deadline (0 = unbounded)")
	registryDir := fs.String("registry", "", "model registry directory (empty = registry off; bootstraps from -model when empty)")
	canarySlots := fs.Int("canary-slots", 1, "pool slots a pushed model canaries on before fleet-wide promotion")
	canaryWindow := fs.Int("canary-window", 64, "sliding decision window the canary conformance check judges over")
	tracePath := fs.String("trace", "", "decision trace file for `shmd replay` audits (empty = tracing off)")
	traceBuffer := fs.Int("trace-buffer", replay.DefaultSinkBuffer, "decision trace ring size; overflow drops records, never blocks serving")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "HTTP header read timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown drain budget")
	var tenants tenantSpecs
	fs.Var(&tenants, "tenant", "tenant QoS spec `id:class[:rate[:burst[:conc[:stride]]]]` (repeatable; any -tenant* flag enables multi-tenant admission)")
	tenantDefault := fs.String("tenant-default", "", "spec template for unregistered tenant ids, same form as -tenant with the id ignored (empty = unknown tenants rejected 403)")
	tenantAnon := fs.String("tenant-anon", "", "spec template for requests carrying no tenant identity (empty = such requests rejected 403)")
	traceTenants := fs.String("trace-tenants", "", "comma-separated tenant ids whose decisions are traced (empty = every tenant; needs -trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	det, err := hmd.LoadBundle(f)
	f.Close()
	if err != nil {
		return err
	}

	var reg *registry.Registry
	var modelVersion uint32
	if *registryDir != "" {
		reg, err = registry.Open(*registryDir, log.Printf)
		if err != nil {
			return err
		}
		if v, ok := reg.Active(); ok {
			// Warm restart: adopt the registry's active version instead of
			// the -model bundle, so a fleet that promoted a pushed model
			// keeps serving it across restarts.
			mdl, err := reg.Model(v)
			if err != nil {
				return fmt.Errorf("registry: active version %d: %w", v, err)
			}
			det = mdl.Detector()
			modelVersion = v
			fmt.Printf("shmd serve: registry %s: serving active model v%d (%s)\n",
				*registryDir, v, mdl.Fingerprint())
		} else {
			// Cold bootstrap: register the -model bundle as the first
			// version and activate it, so later pushes roll against a
			// registry-tracked incumbent.
			next := uint32(1)
			for _, info := range reg.Versions() {
				if info.Version >= next {
					next = info.Version + 1
				}
			}
			m, err := registry.NewManifest(next, registry.FannType, det, uint64(time.Now().Unix()), registry.DefaultGoldenSpecs())
			if err != nil {
				return fmt.Errorf("registry: bootstrap manifest: %w", err)
			}
			if err := reg.Register(m); err != nil {
				return fmt.Errorf("registry: bootstrap register: %w", err)
			}
			if err := reg.Activate(next); err != nil {
				return fmt.Errorf("registry: bootstrap activate: %w", err)
			}
			mdl, err := reg.Model(next)
			if err != nil {
				return fmt.Errorf("registry: bootstrap load: %w", err)
			}
			det = mdl.Detector()
			modelVersion = next
			fmt.Printf("shmd serve: registry %s: bootstrapped %s as v%d (%s)\n",
				*registryDir, *model, next, mdl.Fingerprint())
		}
	}

	cfg := serve.Config{
		Pool: serve.PoolConfig{
			Size:         *pool,
			ErrorRate:    *rate,
			Seed:         *seed,
			Chaos:        *withChaos,
			Lifecycle:    serve.LifecycleConfig{Enabled: *lifecycle},
			JournalPath:  *journalPath,
			ModelVersion: modelVersion,
			Logf:         log.Printf,
		},
		QueueDepth:        *queue,
		EnablePprof:       *withPprof,
		DefaultDeadline:   *deadline,
		HedgeAfter:        *hedgeAfter,
		MaxBatch:          *maxBatch,
		MaxBatchWait:      *maxBatchWait,
		ReadHeaderTimeout: *readHeaderTimeout,
		ShutdownTimeout:   *shutdownTimeout,
		Registry:          reg,
		Rollout:           serve.RolloutConfig{CanarySlots: *canarySlots, Window: *canaryWindow},
	}
	if *undervolt > 0 {
		cfg.Pool.ErrorRate = 0
		cfg.Pool.UndervoltMV = *undervolt
	}
	if len(tenants) > 0 || *tenantDefault != "" || *tenantAnon != "" {
		tc := &tenant.Config{Tenants: tenants}
		template := func(flagName, v string) (*tenant.Spec, error) {
			if v == "" {
				return nil, nil
			}
			spec, err := tenant.ParseSpec(v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", flagName, err)
			}
			return &spec, nil
		}
		var terr error
		if tc.Default, terr = template("-tenant-default", *tenantDefault); terr != nil {
			return terr
		}
		if tc.Anonymous, terr = template("-tenant-anon", *tenantAnon); terr != nil {
			return terr
		}
		cfg.Tenancy = tc
	}
	if *traceTenants != "" {
		cfg.TraceTenants = strings.Split(*traceTenants, ",")
	}
	if *tracePath != "" {
		sink, err := replay.OpenSink(*tracePath, *traceBuffer)
		if err != nil {
			return err
		}
		defer func() {
			if err := sink.Close(); err != nil {
				log.Printf("shmd serve: trace sink: %v", err)
			}
			fmt.Printf("shmd serve: trace %s: %d records written, %d dropped\n",
				*tracePath, sink.Written(), sink.Dropped())
		}()
		cfg.Trace = sink
	}
	srv, err := serve.New(det, cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	qd := cfg.QueueDepth
	if qd == 0 {
		qd = 2 * cfg.Pool.Size
	}
	fmt.Printf("shmd serve: listening on %s (pool %d, queue %d, rate %g, chaos %v)\n",
		ln.Addr(), cfg.Pool.Size, qd, cfg.Pool.ErrorRate, cfg.Pool.Chaos)

	// The HTTP listener's shutdown path owns the pool, so when a wire
	// listener runs alongside it the HTTP drain must start only after
	// the wire drain finishes — otherwise the pool could close under an
	// in-flight wire detection.
	httpCtx := ctx
	var wireDone chan error
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		fmt.Printf("shmd serve: SHMDWIRE listening on %s\n", wln.Addr())
		if serveWireReady != nil {
			serveWireReady(wln.Addr().String())
		}
		var httpCancel context.CancelFunc
		httpCtx, httpCancel = context.WithCancel(context.Background())
		wireDone = make(chan error, 1)
		go func() {
			wireDone <- srv.ServeWire(ctx, wln)
			httpCancel()
		}()
	}
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}
	err = srv.Serve(httpCtx, ln)
	if wireDone != nil {
		if werr := <-wireDone; err == nil {
			err = werr
		}
	}
	fmt.Println("shmd serve: shut down, voltage planes at nominal")
	return err
}
