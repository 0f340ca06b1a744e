package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/backoff"
	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/registry"
	"shmd/internal/replay"
	"shmd/internal/tenant"
	"shmd/internal/trace"
)

// Config configures the detection service.
type Config struct {
	// Pool sizes and seeds the session pool.
	Pool PoolConfig
	// Limits bounds request decoding. MinWindows is overridden from the
	// model's detection period.
	Limits Limits
	// QueueDepth is how many requests may wait for a session beyond the
	// ones being served (default 2×pool). A request arriving with the
	// queue full is shed immediately with a 429 — overload produces
	// fast rejections, not queue growth.
	QueueDepth int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// DefaultDeadline bounds each /v1/detect request when the caller
	// does not send an X-Detect-Deadline-Ms header (0 = unbounded).
	DefaultDeadline time.Duration
	// HedgeAfter re-dispatches a still-running batch onto a second idle
	// slot after this latency budget; the first verdict wins and the
	// loser's slot is returned cleanly (0 = hedging off). Hedging trades
	// spare pool capacity for tail latency — a slot mid-recovery can
	// stall a batch for many retry cycles while an idle neighbour would
	// answer immediately.
	HedgeAfter time.Duration
	// MaxBatch enables dynamic micro-batching: programs from concurrent
	// /v1/detect requests coalesce into lane batches of up to MaxBatch,
	// each served by ONE slot checkout and ONE batched undervolted pass
	// through the batch-lane kernels, with per-program verdicts fanned
	// back out to their requests. 0 or 1 leaves the scalar per-request
	// dispatch path in place.
	MaxBatch int
	// MaxBatchWait bounds how long a partial batch waits behind a busy
	// batcher (default 2ms when MaxBatch enables batching). The batcher
	// is self-clocked: with nothing in flight a request's lanes
	// dispatch at once, and while a batch is in flight new lanes
	// coalesce until it completes or they fill MaxBatch. The wait only
	// caps that coalescing when the in-flight batch stalls.
	MaxBatchWait time.Duration
	// ReadHeaderTimeout bounds how long Serve waits for request headers
	// (default 10s).
	ReadHeaderTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain when Serve's context is
	// cancelled (default 30s).
	ShutdownTimeout time.Duration
	// Trace, when non-nil, receives a replay.Record for every decision
	// served (opt-in auditing). The sink is lossy by design: a full ring
	// drops the record and bumps a counter rather than stalling
	// detection. The server enables per-slot draw recording when set;
	// the caller owns the sink's lifetime (Close after Serve returns).
	Trace *replay.Sink
	// JitterSeed seeds the Retry-After jitter so shed clients do not
	// retry in lockstep (0 = seed from the clock at startup; tests pin
	// a seed for reproducible hints).
	JitterSeed int64
	// Tenancy, when non-nil, enables the multi-tenant QoS layer: each
	// request resolves a tenant (X-Tenant header, wire tag, or
	// connection HELLO metadata) whose token bucket, concurrency cap,
	// and shaping rules gate admission, and whose priority class
	// orders dequeue at the slot pool under saturation. Nil serves
	// every request untagged through the flat admission queue.
	Tenancy *tenant.Config
	// TraceTenants restricts the trace sink to decisions served for
	// the listed tenant IDs (empty = trace every decision). Only
	// meaningful with Trace set.
	TraceTenants []string
	// Registry, when non-nil, is the versioned model store behind the
	// /v1/admin/models surface: new SHMDMDL1 manifests POSTed there are
	// registered, canaried slot-by-slot, and auto-promoted or rolled
	// back by the rollout controller, which persists promotions through
	// Registry.Activate. Nil serves the compiled-in model only.
	Registry *registry.Registry
	// Rollout tunes the canary rollout controller (zero value =
	// defaults; see RolloutConfig).
	Rollout RolloutConfig
}

// withDefaults fills unset fields (pool defaults resolve first so the
// queue depth can key off the final size).
func (cfg Config) withDefaults() Config {
	cfg.Pool = cfg.Pool.withDefaults()
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Pool.Size
	}
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = 10 * time.Second
	}
	if cfg.ShutdownTimeout == 0 {
		cfg.ShutdownTimeout = 30 * time.Second
	}
	if cfg.MaxBatch > 1 && cfg.MaxBatchWait == 0 {
		cfg.MaxBatchWait = 2 * time.Millisecond
	}
	return cfg
}

// Server is the detection service: an http.Handler serving /v1/detect,
// /healthz, and /metrics off a session pool.
type Server struct {
	cfg       Config
	pool      *Pool
	metrics   *Metrics
	mux       *http.ServeMux
	threshold float64
	// queue is the admission semaphore: in-service plus waiting
	// requests. Full queue → 429.
	queue chan struct{}
	// inflight tracks requests holding a queue token, for the drain in
	// Shutdown (http.Server.Shutdown already waits on connections; this
	// guards the direct-handler path tests use).
	inflight chan struct{}
	// runners counts dispatch runner goroutines. A hedged loser can
	// outlive its handler (its verdict is discarded but its batch must
	// finish and its slot must be released), so shutdown waits for the
	// count to reach zero as well as on inflight. runMu guards runners,
	// runIdle (closed each time the count falls to zero) and
	// runnersClosed (set by the drain that closes the pool, after which
	// no runner starts).
	runMu         sync.Mutex
	runners       int
	runIdle       chan struct{}
	runnersClosed bool
	// jitter randomizes Retry-After hints on shed responses.
	jitter *backoff.Jitter
	// draining flips the moment a graceful shutdown begins, before any
	// in-flight request finishes: /readyz turns 503 immediately so load
	// balancers stop routing here while the drain completes, even
	// though /healthz (liveness) keeps answering for the pool.
	draining atomic.Bool
	// batcher coalesces concurrent programs into lane batches when
	// Config.MaxBatch enables micro-batching (nil = scalar dispatch).
	batcher *batcher
	// wire tracks live SHMDWIRE connections so a graceful drain can
	// broadcast GOAWAY and wait for their in-flight detects.
	wire wireState
	// tenants answers per-tenant admission (nil = tenancy off).
	tenants *tenant.Registry
	// gate orders dequeue by priority class in front of the pool on
	// the scalar dispatch path (nil = tenancy off; the micro-batcher
	// keeps FIFO lanes — batching already amortizes the slot).
	gate *tenant.Gate
	// traceTenants filters the trace sink by tenant ID (nil = all).
	traceTenants map[string]bool
	// rollout is the canary rollout controller. Always constructed
	// (Begin refuses without spare slots); it persists promotions only
	// when Config.Registry is set.
	rollout *rollout
}

// New builds a Server around a trained baseline detector.
func New(base *hmd.HMD, cfg Config) (*Server, error) {
	if base == nil {
		return nil, fmt.Errorf("serve: nil base detector")
	}
	cfg = cfg.withDefaults()
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: negative queue depth %d", cfg.QueueDepth)
	}
	cfg.Pool.TraceDraws = cfg.Trace != nil
	pool, err := NewPool(base, cfg.Pool)
	if err != nil {
		return nil, err
	}
	cfg.Limits = cfg.Limits.withDefaults()
	cfg.Limits.MinWindows = base.Config().Period
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: negative max batch %d", cfg.MaxBatch)
	}
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		metrics:   NewMetrics(),
		threshold: base.Config().Threshold,
		queue:     make(chan struct{}, pool.Size()+cfg.QueueDepth),
		inflight:  make(chan struct{}, pool.Size()+cfg.QueueDepth),
		jitter:    backoff.New(seed),
	}
	if cfg.MaxBatch > 1 {
		s.batcher = newBatcher(s)
	}
	if cfg.Tenancy != nil {
		if s.tenants, err = tenant.NewRegistry(*cfg.Tenancy); err != nil {
			pool.Close()
			return nil, err
		}
		// Gate capacity mirrors the pool so free slots grant instantly;
		// the flat queue already bounds waiters, so the gate itself is
		// unbounded.
		s.gate = tenant.NewGate(pool.Size(), 0)
	}
	if len(cfg.TraceTenants) > 0 {
		s.traceTenants = make(map[string]bool, len(cfg.TraceTenants))
		for _, id := range cfg.TraceTenants {
			s.traceTenants[id] = true
		}
	}
	s.rollout = newRollout(s, cfg.Registry, cfg.Rollout)
	s.metrics.observe(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/detect", s.handleDetect)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Registry != nil {
		s.mux.HandleFunc("/v1/admin/models", s.handleAdminModels)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the session pool (tests and metrics inspect it).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the counter block.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Rollout exposes the canary rollout controller (tests and the soak
// harness drive and inspect it directly).
func (s *Server) Rollout() *rollout { return s.rollout }

// logf forwards to the pool's configured logger.
func (s *Server) logf(format string, args ...any) { s.pool.logf(format, args...) }

// observeOutcome records per-model decision metrics for a winning
// outcome and feeds the rollout controller's drift comparison. Both
// dispatch paths (scalar and micro-batched) and both transports (HTTP
// and SHMDWIRE route through the same dispatchers) land here, winner
// outcomes only — hedge losers are discarded before observation.
func (s *Server) observeDecision(model uint32, malware bool, confidence float64) {
	s.metrics.ModelDecision(model, malware)
	s.rollout.Observe(model, malware, confidence)
}

// status writes an error reply and records the request.
func (s *Server) status(w http.ResponseWriter, code int, msg string) {
	s.metrics.Request(code)
	http.Error(w, msg, code)
}

// shedHint sets a jittered Retry-After header (1–3s) on a shed
// response so rejected clients spread their retries instead of
// stampeding back together.
func (s *Server) shedHint(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jitter.RetryAfter()))
}

// tenantHeader carries the tenant identity on HTTP requests and is
// echoed (with the resolved accounting identity) on replies.
const tenantHeader = "X-Tenant"

// admissionLoad is the load signal the shaping rules consume: flat
// admission-queue occupancy in [0, 1].
func (s *Server) admissionLoad() float64 {
	return float64(len(s.queue)) / float64(cap(s.queue))
}

// admitTenant runs the tenant-QoS decision for one request carrying
// identity id. Nil when tenancy is off.
func (s *Server) admitTenant(id string) *tenant.Admission {
	if s.tenants == nil {
		return nil
	}
	return s.tenants.Admit(id, s.admissionLoad())
}

// rejectTenant writes the HTTP reply for a refused admission: 403 for
// an unknown tenant, 429 with a jittered Retry-After for quota and
// pressure sheds.
func (s *Server) rejectTenant(w http.ResponseWriter, adm *tenant.Admission) {
	s.metrics.shedTenant(adm.Tenant, adm.Class.String(), adm.Outcome.String())
	if adm.Outcome == tenant.Unknown {
		s.status(w, http.StatusForbidden, fmt.Sprintf("unknown tenant %q", adm.Tenant))
		return
	}
	s.shedHint(w)
	s.status(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %s over %s limit", adm.Tenant, adm.Outcome))
}

// handleDetect serves POST /v1/detect.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.status(w, http.StatusMethodNotAllowed, "POST only")
		return
	}

	// Tenant QoS first: quota, concurrency, and load shaping decide
	// whether this tenant may submit at all, before the flat queue
	// decides whether the server has room.
	var tenantID string
	var class tenant.Class
	if adm := s.admitTenant(r.Header.Get(tenantHeader)); adm != nil {
		defer adm.Release()
		if !adm.OK() {
			s.rejectTenant(w, adm)
			return
		}
		tenantID, class = adm.Tenant, adm.Class
		s.metrics.TenantAccepted.With(adm.Tenant, adm.Class.String()).Inc()
		w.Header().Set(tenantHeader, adm.Tenant)
	}

	// Admission control before any decode work: shed at the
	// backpressure limit so overload costs the caller one channel probe.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		s.metrics.QueueRejects.Inc()
		if s.tenants != nil {
			s.metrics.shedTenant(tenantID, class.String(), "queue")
		}
		s.shedHint(w)
		s.status(w, http.StatusTooManyRequests, "detection queue full")
		return
	}
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	body := http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	programs, err := DecodeDetectRequest(body, s.cfg.Limits)
	if err != nil {
		s.status(w, StatusOf(err), err.Error())
		return
	}

	deadline, err := requestDeadline(r, s.cfg.DefaultDeadline)
	if err != nil {
		s.status(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	var out batchOutcome
	if s.batcher != nil {
		out, err = s.batcher.dispatch(ctx, tenantID, programs)
	} else {
		out, err = s.dispatch(ctx, class, tenantID, programs)
	}
	if err != nil {
		s.failDetect(w, r, err)
		return
	}
	if out.hedge {
		s.metrics.HedgeWins.Inc()
	}
	for _, res := range out.results {
		s.metrics.Decision(res.Malware, res.Unprotected)
	}
	resp := DetectResponse{Results: out.results, Session: out.session, Hedged: out.hedge, Tenant: tenantID}
	s.metrics.Request(http.StatusOK)
	s.metrics.DetectLatency.Observe(int64(time.Since(start)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// deadlineHeader carries a per-request detection deadline in integer
// milliseconds; it overrides Config.DefaultDeadline for one request.
const deadlineHeader = "X-Detect-Deadline-Ms"

// requestDeadline resolves the effective deadline for one request:
// the header when present (a positive integer millisecond count),
// otherwise the server default.
func requestDeadline(r *http.Request, def time.Duration) (time.Duration, error) {
	raw := r.Header.Get(deadlineHeader)
	if raw == "" {
		return def, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("%s: %q is not a positive integer millisecond count", deadlineHeader, raw)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// failDetect maps a dispatch failure to its HTTP reply. Deadline
// expiry is the server shedding load, not an internal fault: it maps
// to a 503 with Retry-After, never a 500. A client that went away is
// recorded under the de-facto 499 with nothing written.
func (s *Server) failDetect(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		// The client disconnected or cancelled; nobody is listening.
		s.metrics.Request(statusClientClosedRequest)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.DeadlineExpired.Inc()
		s.shedHint(w)
		s.status(w, http.StatusServiceUnavailable, "detection deadline exceeded")
	case errors.Is(err, tenant.ErrQueueFull):
		s.metrics.QueueRejects.Inc()
		s.shedHint(w)
		s.status(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrPoolClosed):
		s.status(w, http.StatusServiceUnavailable, err.Error())
	default:
		var ae *AcquireError
		if errors.As(err, &ae) {
			s.shedHint(w)
			s.status(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		s.status(w, http.StatusInternalServerError, err.Error())
	}
}

// batchOutcome is one runner's verdict set for a batch.
type batchOutcome struct {
	results []DetectResult
	session int
	// model is the model version of the slot that produced the outcome
	// (scalar path; batched lanes observe per-lane instead).
	model uint32
	// hedge marks the outcome as produced by the hedge runner.
	hedge bool
	err   error
}

// dispatch runs the batch on an acquired slot, optionally hedging onto
// a second idle slot after the configured latency budget. The first
// successful outcome wins; every runner releases its own slot, so a
// losing runner can finish after the handler has replied without
// violating the exclusivity invariant. Decision metrics are recorded
// by the caller for the winner only.
//
// With tenancy on, the class-aware gate fronts the pool: free
// capacity grants immediately, and under saturation realtime lanes
// dequeue ahead of standard ahead of batch.
func (s *Server) dispatch(ctx context.Context, class tenant.Class, tenantID string, programs []DecodedProgram) (batchOutcome, error) {
	if s.gate != nil {
		wait := time.Now()
		if err := s.gate.Acquire(ctx, class); err != nil {
			return batchOutcome{}, err
		}
		defer s.gate.Release()
		if int(class) < len(s.metrics.ClassWait) {
			s.metrics.ClassWait[class].Observe(int64(time.Since(wait)))
		}
	}
	slot, err := s.pool.Acquire(ctx)
	if err != nil {
		return batchOutcome{}, err
	}
	// Buffered for every possible runner: a loser's send never blocks,
	// even when the handler has already returned.
	outcomes := make(chan batchOutcome, 2)
	s.runDetached(ctx, slot, programs, tenantID, false, outcomes)

	var hedgeC <-chan time.Time
	if s.cfg.HedgeAfter > 0 {
		t := time.NewTimer(s.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			if out.err == nil {
				for _, res := range out.results {
					s.observeDecision(out.model, res.Malware, res.Confidence)
				}
				return out, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Never wait for a hedge slot: hedging spends only capacity
			// that is idle right now.
			if hslot, ok := s.pool.TryAcquire(); ok {
				s.metrics.Hedges.Inc()
				pending++
				s.runDetached(ctx, hslot, programs, tenantID, true, outcomes)
			}
		case <-ctx.Done():
			// Deadline or client cancellation. Runners poll ctx between
			// programs, finish their current one, and release their own
			// slots; nothing here leaks.
			return batchOutcome{}, ctx.Err()
		}
	}
	return batchOutcome{}, firstErr
}

// errDraining refuses work that needs a new runner once the drain that
// closes the pool has begun (closeRunners). It wraps ErrPoolClosed: the
// pool closes as soon as the running ones finish, and both transports
// answer it so.
var errDraining = fmt.Errorf("serve: draining: %w", ErrPoolClosed)

// addRunner counts one runner goroutine, the only way a runner is
// counted; the caller starts it and it calls runnerDone. Once the drain
// that closes the pool has begun (closeRunners), addRunner counts
// nothing and returns false, and the caller must not start the runner.
func (s *Server) addRunner() bool {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.runnersClosed {
		return false
	}
	if s.runners == 0 {
		s.runIdle = make(chan struct{})
	}
	s.runners++
	return true
}

// runnerDone uncounts a runner that addRunner counted.
func (s *Server) runnerDone() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.runners--; s.runners == 0 {
		close(s.runIdle)
	}
}

// runDetached starts one tracked runner goroutine that executes the
// batch on slot and always releases the slot itself. Once the pool's
// drain refuses runners none starts: the slot goes back and the
// outcome is errDraining.
func (s *Server) runDetached(ctx context.Context, slot *Slot, programs []DecodedProgram, tenantID string, hedge bool, outcomes chan<- batchOutcome) {
	if !s.addRunner() {
		s.pool.Release(slot)
		outcomes <- batchOutcome{hedge: hedge, err: errDraining}
		return
	}
	go func() {
		defer s.runnerDone()
		out := s.runBatch(ctx, slot, programs, tenantID)
		out.hedge = hedge
		s.pool.Release(slot)
		outcomes <- out
	}()
}

// runBatch scores every program in the batch on one slot, checking the
// request context between programs (DetectProgram itself is the unit
// of non-cancellable work).
func (s *Server) runBatch(ctx context.Context, slot *Slot, programs []DecodedProgram, tenantID string) batchOutcome {
	out := batchOutcome{session: slot.ID, model: slot.Model, results: make([]DetectResult, len(programs))}
	for i, p := range programs {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		v, err := slot.Sup.DetectProgram(p.Windows)
		if err != nil {
			out.err = fmt.Errorf("program %d: %v", i, err)
			return out
		}
		conf := Confidence(v.Score, s.threshold, v.Malware)
		out.results[i] = DetectResult{
			ID:          p.ID,
			Malware:     v.Malware,
			Score:       v.Score,
			Confidence:  conf,
			Unprotected: v.Unprotected,
			Attempts:    v.Attempts,
			Windows:     len(p.Windows),
		}
		if s.cfg.Trace != nil {
			s.traceDecision(slot, p, v, conf, tenantID)
		}
	}
	return out
}

// traceDecision offers one decision's provenance to the trace sink.
// A protected verdict carries the draw log of its final scoring pass
// (earlier retries were overwritten by the attempt that produced the
// verdict); a degraded verdict ran on the exact unit and records an
// empty log, which replays as exact arithmetic.
func (s *Server) traceDecision(slot *Slot, p DecodedProgram, v core.Verdict, conf float64, tenantID string) {
	draws := faults.DrawLog{InitialGap: -1}
	if !v.Unprotected {
		draws = slot.Det.LastDraws()
	}
	s.traceRecord(slot, p.Windows, v, conf, draws, tenantID)
}

// traceRecord offers one decision's provenance to the trace sink with
// an explicit draw log — the shared tail of the scalar path (which
// reads the slot detector's last recorded pass) and the batched path
// (which carries each lane's own log from the batched pass). With a
// TraceTenants filter configured, only the listed tenants' decisions
// reach the sink.
func (s *Server) traceRecord(slot *Slot, windows []trace.WindowCounts, v core.Verdict, conf float64, draws faults.DrawLog, tenantID string) {
	if s.traceTenants != nil && !s.traceTenants[tenantID] {
		return
	}
	s.cfg.Trace.Record(replay.Record{
		Tenant:       tenantID,
		ModelVersion: slot.Model,
		Seed:         slot.Seed,
		Slot:         slot.ID,
		Gen:          slot.Gen,
		Rate:         slot.Sup.TargetRate(),
		DepthMV:      slot.Sup.Session().Depth(),
		Threshold:    s.threshold,
		Malware:      v.Malware,
		Unprotected:  v.Unprotected,
		Score:        v.Score,
		Confidence:   conf,
		Draws:        draws,
		Windows:      windows,
	})
}

// statusClientClosedRequest is the de-facto code (nginx's 499) used
// only as a metrics label for requests abandoned while queued.
const statusClientClosedRequest = 499

// Confidence normalizes the decision margin into [0, 1]: the distance
// between the mean window score and the threshold, relative to the
// room on the decided side. Scores at the threshold — the ones a
// stochastic re-roll could flip — report 0; saturated scores report 1.
// Exported so `shmd replay` can reproduce served confidences through
// replay.Verify without the replay package importing the server.
func Confidence(score, threshold float64, malware bool) float64 {
	var c float64
	if malware {
		c = (score - threshold) / (1 - threshold)
	} else {
		c = (threshold - score) / threshold
	}
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// HealthReport is the GET /healthz body.
type HealthReport struct {
	// Status is "ok" while any session retains protected detection,
	// "degraded" when every breaker is open.
	Status string `json:"status"`
	// Respawns counts slots rebuilt after quarantine since boot.
	Respawns uint64 `json:"respawns"`
	// Quarantined counts slots currently out of rotation.
	Quarantined int64 `json:"quarantined"`
	// ModelVersion is the incumbent model version (0 = compiled-in
	// model, no registry).
	ModelVersion uint32 `json:"modelVersion"`
	// Rollout reports the canary rollout controller's state.
	Rollout RolloutStatus `json:"rollout"`
	// Sessions reports each pooled supervisor.
	Sessions []SessionHealth `json:"sessions"`
}

// SessionHealth is one pooled session's health snapshot.
type SessionHealth struct {
	Session int `json:"session"`
	// Generation counts rebuilds of this slot index (0 = boot slot).
	Generation int    `json:"generation"`
	State      string `json:"state"`
	// Lifecycle is the slot's lifecycle state: active, quarantined, or
	// respawning.
	Lifecycle string `json:"lifecycle"`
	// ModelVersion is the registry version of the model this slot
	// serves (0 = compiled-in model).
	ModelVersion   uint32  `json:"modelVersion"`
	TargetRate     float64 `json:"targetRate"`
	Detections     uint64  `json:"detections"`
	Protected      uint64  `json:"protected"`
	Unprotected    uint64  `json:"unprotected"`
	Retries        uint64  `json:"retries"`
	Failures       uint64  `json:"failures"`
	Trips          uint64  `json:"trips"`
	Recoveries     uint64  `json:"recoveries"`
	Canaries       uint64  `json:"canaries"`
	Drifts         uint64  `json:"drifts"`
	Recalibrations uint64  `json:"recalibrations"`
	CanaryFailures uint64  `json:"canaryFailures"`
	// LastCanaryRate is the most recent observed fault rate (null
	// semantics: omitted until the first canary runs).
	LastCanaryRate *float64 `json:"lastCanaryRate,omitempty"`
}

// healthReport assembles the pool health snapshot shared by the HTTP
// /healthz handler and the wire HEALTH frame, plus the status code it
// maps to (200 ok, 503 degraded).
func (s *Server) healthReport() (HealthReport, int) {
	report := HealthReport{
		Status:       "ok",
		Respawns:     s.pool.Respawns(),
		Quarantined:  s.pool.QuarantinedNow(),
		ModelVersion: s.rollout.Incumbent(),
		Rollout:      s.rollout.Status(),
	}
	for _, slot := range s.pool.Slots() {
		h := slot.Sup.Health()
		sh := SessionHealth{
			Session:        slot.ID,
			Generation:     slot.Gen,
			State:          h.State.String(),
			Lifecycle:      slot.Lifecycle().String(),
			ModelVersion:   slot.Model,
			TargetRate:     slot.Sup.TargetRate(),
			Detections:     h.Detections,
			Protected:      h.Protected,
			Unprotected:    h.Unprotected,
			Retries:        h.Retries,
			Failures:       h.Failures,
			Trips:          h.Trips,
			Recoveries:     h.Recoveries,
			Canaries:       h.Canaries,
			Drifts:         h.Drifts,
			Recalibrations: h.Recalibrations,
			CanaryFailures: h.CanaryFailures,
		}
		if h.Canaries > 0 {
			rate := h.LastCanaryRate
			sh.LastCanaryRate = &rate
		}
		report.Sessions = append(report.Sessions, sh)
	}
	code := http.StatusOK
	if s.pool.Degraded() {
		report.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	return report, code
}

// handleHealthz serves GET /healthz: 200 while at least one session
// can still detect protected, 503 when the whole pool is degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.status(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	report, code := s.healthReport()
	s.metrics.Request(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(report)
}

// ReadyReport is the GET /readyz body.
type ReadyReport struct {
	// Ready is true while the server should receive new traffic.
	Ready bool `json:"ready"`
	// Reason explains a false Ready: "draining" (graceful shutdown in
	// progress) or "degraded" (every pooled breaker is open).
	Reason string `json:"reason,omitempty"`
}

// handleReadyz serves GET /readyz: readiness, as distinct from the
// liveness /healthz reports. It turns 503 the moment a graceful drain
// begins — while in-flight requests are still completing — so a router
// health-probing this endpoint stops sending new work before the
// listener disappears. A fully degraded pool is also not ready: the
// fleet should prefer backends that still detect protected.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.status(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	report := ReadyReport{Ready: true}
	switch {
	case s.draining.Load():
		report = ReadyReport{Reason: "draining"}
	case s.pool.Degraded():
		report = ReadyReport{Reason: "degraded"}
	}
	code := http.StatusOK
	if !report.Ready {
		code = http.StatusServiceUnavailable
		s.shedHint(w)
	}
	s.metrics.Request(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(report)
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.status(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.metrics.Request(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Write(w)
}

// Serve accepts connections on ln until Shutdown. It returns the
// error from the embedded http.Server (http.ErrServerClosed after a
// clean shutdown is filtered to nil).
//
// A listener that fails or is closed from outside stops the server the
// same ordered way as ctx: connections already accepted drain, runners
// finish, and only then does the pool roll to nominal. The listener's
// error is returned.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{Handler: s.mux, ReadHeaderTimeout: s.cfg.ReadHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-done:
		done <- err // the listener failed: drain first, report it below
	}
	s.draining.Store(true) // /readyz goes 503 before the drain starts
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err := httpSrv.Shutdown(shCtx) // drains in-flight requests
	s.closeRunners()
	s.waitRunners(shCtx) // hedged losers can outlive their handlers
	if closeErr := s.Close(); err == nil {
		err = closeErr
	}
	if serveErr := <-done; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// closeRunners refuses every runner from now on (addRunner). Only a
// drain that closes the pool calls it: Serve once its HTTP requests
// have finished, and Drain. ServeWire does not, so the HTTP listener it
// shares the pool with keeps serving until its own drain.
func (s *Server) closeRunners() {
	s.runMu.Lock()
	s.runnersClosed = true
	s.runMu.Unlock()
}

// waitRunners blocks until the runner count reaches zero, so every
// runner started before the call has finished and released its slot,
// or until ctx expires.
func (s *Server) waitRunners(ctx context.Context) {
	s.runMu.Lock()
	if s.runners == 0 {
		s.runMu.Unlock()
		return
	}
	idle := s.runIdle
	s.runMu.Unlock()
	select {
	case <-idle:
	case <-ctx.Done():
	}
}

// Drain waits until no request holds a queue token, then rolls every
// pooled session back to nominal voltage. Tests drive the handler
// directly (no http.Server), so this is their graceful-shutdown
// entry point; Serve gets the same drain from http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for i := 0; i < cap(s.inflight); i++ {
		select {
		case s.inflight <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// All tokens held: no handler is past admission. Release them, wait
	// for any hedged losers still finishing their batches, and roll the
	// pool to nominal.
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
	s.closeRunners()
	s.waitRunners(ctx)
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Close()
}

// Close rolls every pooled session's plane back to nominal voltage.
func (s *Server) Close() error { return s.pool.Close() }
