// Package route is the fleet front tier: an HTTP router that spreads
// /v1/detect across a pool of detection backends (shmd serve
// instances) and keeps answering while individual backends brown out,
// drain, or die outright.
//
// One Stochastic-HMD service process supervises one device's voltage
// plane; a deployment that monitors many cores runs many such
// processes, and something has to aim traffic at the ones that are
// currently alive, ready, and least loaded. The router is that
// something. It composes four mechanisms, each independently simple:
//
//   - active health probing: every backend's /readyz is polled on an
//     interval; a backend that stops answering 200 leaves the rotation
//     before it can eat live traffic (an ejection), and re-enters the
//     moment it answers again;
//   - load-aware dispatch: among ready backends, power-of-two-choices
//     on the outstanding in-flight count — two random candidates, take
//     the less loaded — which avoids both the herding of
//     pick-least-loaded-globally and the variance of pure random;
//   - per-backend circuit breakers: the same closed → open → half-open
//     state machine the in-process Supervisor uses per slot
//     (core.Breaker), fed passively by real request outcomes. A
//     backend that answers probes but fails requests gets its breaker
//     opened and receives only capped-backoff half-open probes until
//     it behaves;
//   - hedging and bounded retry: a dispatch that outlives HedgeAfter
//     is re-sent to a second backend and the first verdict wins;
//     connect errors and 5xx are retried on a different backend with
//     equal-jitter backoff, bounded by MaxRetries.
//
// When every backend is unroutable the router browns out: 503 with a
// jittered Retry-After, cheap and immediate, never a hang. Shutdown
// drains: in-flight requests finish, new ones are refused, /readyz
// flips 503 first so an upstream tier stops sending.
package route

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/backoff"
	"shmd/internal/core"
	"shmd/internal/tenant"
)

// Config configures the router.
type Config struct {
	// Backends are the base URLs of the detection backends, e.g.
	// "http://127.0.0.1:8801". At least one is required.
	Backends []string
	// WireBackends are the backends' SHMDWIRE listener addresses
	// ("host:port"), index-aligned with Backends. Empty disables binary
	// upstream proxying; when set, the length must equal len(Backends).
	// A backend's readiness and breaker state are shared across both
	// transports — /readyz probing and request outcomes feed one view.
	WireBackends []string
	// WireDialTimeout bounds one upstream SHMDWIRE dial + handshake
	// (default 5s).
	WireDialTimeout time.Duration
	// ProbeInterval is how often each backend's /readyz is polled
	// (default 500ms; negative disables the background prober — tests
	// drive ProbeOnce deterministically instead).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Breaker tunes the per-backend circuit breakers. Threshold
	// consecutive request failures open a backend's breaker; half-open
	// probes follow Cooldown with doubling capped at MaxCooldown
	// (defaults 3, 1s, 30s — core.Breaker's own defaults).
	Breaker core.BreakerConfig
	// HedgeAfter re-dispatches a still-running request onto a second
	// backend after this budget; the first verdict wins (0 = off).
	HedgeAfter time.Duration
	// MaxRetries is how many additional backends a failed dispatch
	// (connect error or 5xx) is retried on, each with equal-jitter
	// backoff (default 2; negative disables retry).
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per retry up to MaxRetryBackoff (defaults 50ms and 1s).
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// MaxBodyBytes bounds the request body the router will buffer for
	// re-dispatch (default 16 MiB, matching the backend decode limit's
	// order of magnitude).
	MaxBodyBytes int64
	// Timeout bounds one forwarded request attempt end to end
	// (default 30s). The client's own deadline header still rides
	// through to the backend untouched.
	Timeout time.Duration
	// ReadHeaderTimeout bounds header reads on the router's listener
	// (default 10s).
	ReadHeaderTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain (default 30s).
	ShutdownTimeout time.Duration
	// DrainDelay is the lame-duck window on shutdown: after the serve
	// context is cancelled, /readyz answers 503 (and detect traffic is
	// shed) while the listener stays open for this long, so an upstream
	// tier probing the router ejects it before its connections start
	// resetting (default: one ProbeInterval; negative disables).
	DrainDelay time.Duration
	// BrownoutRules keys partial-brownout shedding by priority class:
	// the load fed to the rules is the fraction of backends currently
	// unroutable (ejected or breaker-open), so as the fleet shrinks the
	// router sheds best-effort classes first and keeps the remaining
	// capacity for realtime traffic. Nil selects DefaultBrownoutRules;
	// rules use the same latched-hysteresis machinery as the backends'
	// tenant shaper. The router has no token buckets, so ActionThrottle
	// rules are treated as allow here.
	BrownoutRules []tenant.Rule
	// JitterSeed seeds retry backoff and Retry-After jitter (0 = from
	// the clock; tests pin it).
	JitterSeed int64
	// Transport overrides the forwarding round tripper (tests inject
	// failures; default http.DefaultTransport).
	Transport http.RoundTripper
	// Sleep is the retry backoff clock (default time.Sleep).
	Sleep func(time.Duration)
}

// withDefaults fills unset fields.
func (cfg Config) withDefaults() Config {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.MaxRetryBackoff == 0 {
		cfg.MaxRetryBackoff = time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = 10 * time.Second
	}
	if cfg.ShutdownTimeout == 0 {
		cfg.ShutdownTimeout = 30 * time.Second
	}
	if cfg.DrainDelay == 0 {
		cfg.DrainDelay = cfg.ProbeInterval
	}
	if cfg.WireDialTimeout == 0 {
		cfg.WireDialTimeout = 5 * time.Second
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return cfg
}

// backend is one routed detection backend and its local state: the
// rotation flag the prober maintains, the in-flight counter dispatch
// balances on, the breaker request outcomes feed, and counters.
type backend struct {
	name string // host:port, the metrics label
	base string // normalized base URL, no trailing slash

	ready    atomic.Bool
	inflight atomic.Int64
	breaker  *core.Breaker
	// wire is the pooled SHMDWIRE upstream (nil when the backend has no
	// wire address).
	wire *wirePool

	requests  atomic.Uint64 // dispatch attempts sent (incl. hedges, retries)
	failures  atomic.Uint64 // attempts that counted as breaker failures
	ejections atomic.Uint64 // ready → not-ready transitions
}

// Router is the fleet front tier. Build with New, serve with Serve or
// mount Handler behind an existing server.
type Router struct {
	cfg      Config
	backends []*backend
	mux      *http.ServeMux
	client   *http.Client
	probe    *http.Client
	jitter   *backoff.Jitter
	metrics  *Metrics

	// shaper keys partial-brownout shedding by priority class; its
	// latched rule state is serialized by shapeMu (tenant.Shaper is not
	// concurrency-safe on its own).
	shapeMu sync.Mutex
	shaper  *tenant.Shaper

	draining atomic.Bool
	// reqWG tracks in-flight proxied requests for the drain; hedged
	// losers are tracked too (their attempt must finish before the
	// backends are declared quiet).
	reqWG sync.WaitGroup
	// wireCorr issues correlation ids for upstream SHMDWIRE requests.
	wireCorr atomic.Uint64
	// wireConns tracks live client-facing SHMDWIRE connections for the
	// drain's GOAWAY broadcast.
	wireConns wireConnSet
}

// New builds a Router. Backends start in the rotation (optimistic:
// the first failed probe or request ejects them) so a router that
// boots before its backends still converges without special cases.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("route: no backends")
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Router{
		cfg:     cfg,
		client:  &http.Client{Transport: cfg.Transport, Timeout: cfg.Timeout},
		probe:   &http.Client{Transport: cfg.Transport, Timeout: cfg.ProbeTimeout},
		jitter:  backoff.New(seed),
		metrics: NewMetrics(),
	}
	rules := cfg.BrownoutRules
	if rules == nil {
		rules = DefaultBrownoutRules
	}
	rt.shaper = tenant.NewShaper(rules, 0)
	if len(cfg.WireBackends) != 0 && len(cfg.WireBackends) != len(cfg.Backends) {
		return nil, fmt.Errorf("route: %d wire backends for %d backends; lists must be index-aligned",
			len(cfg.WireBackends), len(cfg.Backends))
	}
	seen := map[string]bool{}
	for i, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSuffix(strings.TrimSpace(raw), "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("route: backend %q is not an absolute URL", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("route: duplicate backend %q", u.Host)
		}
		seen[u.Host] = true
		b := &backend{
			name:    u.Host,
			base:    u.String(),
			breaker: core.NewBreaker(cfg.Breaker),
		}
		if len(cfg.WireBackends) > 0 {
			if addr := strings.TrimSpace(cfg.WireBackends[i]); addr != "" {
				b.wire = newWirePool(addr, cfg.WireDialTimeout, int(cfg.MaxBodyBytes))
			}
		}
		b.ready.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.observeBackends()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/detect", rt.handleDetect)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the router's counter block.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// ProbeOnce health-probes every backend once, synchronously, and
// returns how many are in the rotation afterwards. The background
// prober calls this on its interval; tests call it directly for a
// deterministic rotation.
func (rt *Router) ProbeOnce(ctx context.Context) int {
	up := 0
	for _, b := range rt.backends {
		if rt.probeBackend(ctx, b) {
			up++
		}
	}
	return up
}

// probeBackend polls one backend's /readyz and updates its rotation
// flag. Any transport error or non-200 takes it out.
func (rt *Router) probeBackend(ctx context.Context, b *backend) bool {
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
	if err == nil {
		resp, perr := rt.probe.Do(req)
		if perr == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if was := b.ready.Swap(ok); was && !ok {
		b.ejections.Add(1)
		rt.metrics.Ejections.Inc()
	}
	return ok
}

// runProber polls every backend until ctx is cancelled.
func (rt *Router) runProber(ctx context.Context) {
	if rt.cfg.ProbeInterval < 0 {
		return
	}
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	rt.ProbeOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeOnce(ctx)
		}
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully: /readyz flips 503 first and the listener keeps
// answering through the DrainDelay lame-duck window (so the tier
// above sees the drain signal instead of connection resets), then
// in-flight proxied requests run to completion (bounded by
// ShutdownTimeout) and the prober stops.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	go rt.runProber(probeCtx)

	httpSrv := &http.Server{Handler: rt.mux, ReadHeaderTimeout: rt.cfg.ReadHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		rt.draining.Store(true)
		if d := rt.cfg.DrainDelay; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case err := <-done:
				// The listener died during the lame-duck window; nothing
				// left to drain.
				t.Stop()
				if errors.Is(err, http.ErrServerClosed) {
					return nil
				}
				return err
			}
		}
		shCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShutdownTimeout)
		defer cancel()
		err := httpSrv.Shutdown(shCtx)
		rt.waitRequests(shCtx)
		<-done
		return err
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// waitRequests blocks until every proxied attempt (including hedged
// losers) has finished, or ctx expires.
func (rt *Router) waitRequests(ctx context.Context) {
	quiet := make(chan struct{})
	go func() { rt.reqWG.Wait(); close(quiet) }()
	select {
	case <-quiet:
	case <-ctx.Done():
	}
}

// routable reports whether b may receive a non-probe request right
// now: in the rotation and breaker closed.
func (b *backend) routable() bool {
	return b.ready.Load() && b.breaker.State() == core.BreakerClosed
}

// shedHint sets a jittered Retry-After (1–3s) on a shed response.
func (rt *Router) shedHint(w http.ResponseWriter) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", rt.jitter.RetryAfter()))
}

// DefaultBrownoutRules is the router's stock partial-brownout ladder,
// keyed by the unroutable fraction of the fleet: with half the
// backends gone, batch traffic is shed to keep the survivors' headroom
// for interactive classes; at 90% gone only realtime still routes.
// (Total brownout sheds everything via errBrownout regardless.)
var DefaultBrownoutRules = []tenant.Rule{
	{Classes: tenant.MaskOf(tenant.Batch), MinLoad: 0.5, Action: tenant.ActionShed},
	{Classes: tenant.MaskOf(tenant.Batch, tenant.Standard), MinLoad: 0.9, Action: tenant.ActionShed},
}

// brownoutLoad is the fraction of the fleet that is unroutable right
// now — the load signal the brownout shaper keys on.
func (rt *Router) brownoutLoad() float64 {
	down := 0
	for _, b := range rt.backends {
		if !b.routable() {
			down++
		}
	}
	return float64(down) / float64(len(rt.backends))
}

// classFor parses a class advisory from a header or HELLO metadata
// value. The advisory only orders shedding under partial brownout —
// quota enforcement stays on the backends, which never trust it — so
// an absent or unparseable value just gets the default class.
func classFor(v string) tenant.Class {
	if v == "" {
		return tenant.Standard
	}
	c, err := tenant.ParseClass(v)
	if err != nil {
		return tenant.Standard
	}
	return c
}

// shedClass reports whether an engaged brownout rule sheds class c at
// the current unroutable fraction, recording the shed when it does.
// A total brownout (everything unroutable) is NOT a class shed: it
// falls through to dispatch so every class gets the same 503, keeping
// the full-outage contract independent of the caller's class advisory.
func (rt *Router) shedClass(c tenant.Class) bool {
	load := rt.brownoutLoad()
	rt.shapeMu.Lock()
	action := rt.shaper.Shape(c, load)
	rt.shapeMu.Unlock()
	if load >= 1 || action != tenant.ActionShed {
		return false
	}
	rt.metrics.ClassSheds.With(c.String()).Inc()
	return true
}
