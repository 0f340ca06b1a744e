package serve

import (
	"io"
	"strconv"

	"shmd/internal/core"
	"shmd/internal/prom"
	"shmd/internal/tenant"
)

// latencyBuckets are the detect-latency upper bounds in seconds,
// spanning sub-millisecond cache-warm inference to multi-second
// degraded batches.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// batchSizeBuckets are the batch-size upper bounds in lanes, spanning a
// solo flush to the widest fused-kernel block.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// batchWaitBuckets are the batch-wait upper bounds in seconds: an idle
// batcher dispatches at once, and a busy one holds lanes only until an
// in-flight batch completes or MaxBatchWait passes, so the range sits
// well below the end-to-end latency buckets.
var batchWaitBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}

// classWaitBuckets are the gate-wait upper bounds in seconds: waits
// span an uncontended grant (sub-ms) to a queue drained behind
// multi-second degraded batches.
var classWaitBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// seconds is the scale of the duration histograms: they observe
// nanoseconds and render seconds.
const seconds = 1e9

// maxTenantSeries caps how many distinct tenant IDs get their own
// metric series. The tenant label is attacker-influenced (any client
// can mint IDs when a Default spec auto-registers them), so past the
// cap new tenants fold into the prom.Other series instead of growing
// the exposition without bound.
const maxTenantSeries = 64

// Metrics is the service's metric set, registered once on one
// registry and rendered by its exposition writer. Hot-path updates are
// lock-free atomics; finding a labelled series takes the vector's lock.
type Metrics struct {
	reg prom.Registry

	Requests          *prom.CounterVec // code
	Decisions         *prom.CounterVec // verdict
	Unprotected       *prom.Counter
	QueueRejects      *prom.Counter
	Hedges            *prom.Counter
	HedgeWins         *prom.Counter
	DeadlineExpired   *prom.Counter
	DetectLatency     *prom.Histogram
	BatchFlushes      *prom.CounterVec // reason: idle, full or timer
	BatchSize         *prom.Histogram
	BatchWait         *prom.Histogram
	WireConns         *prom.Counter
	WireActive        *prom.Gauge
	WireFrames        *prom.Counter
	WireUnknownFrames *prom.Counter
	WireGoAways       *prom.Counter
	// Model versions are operator-minted (registry registration gates
	// them), so their cardinality is bounded by deployment practice.
	ModelDecisions *prom.CounterVec // version, verdict
	ModelRollouts  *prom.CounterVec // outcome
	// TenantAccepted is capped at maxTenantSeries; TenantShed records
	// under its folded labels (see shedTenant), so it needs no cap.
	TenantAccepted *prom.CounterVec // tenant, class
	TenantShed     *prom.CounterVec // tenant, class, reason
	TenantOverflow *prom.Counter
	// ClassWait is each lane's wait from enqueue to bind with tenancy
	// on, indexed by tenant.Class. Its HELP text is the one the golden
	// expositions pin.
	ClassWait [tenant.NumClasses]*prom.Histogram
}

// NewMetrics registers the service's own series. The server adds the
// families it reads from its components at scrape time (observe).
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.Requests = r.CounterVec("shmd_requests_total", "HTTP requests served, by final status code.", "code")
	m.Decisions = r.CounterVec("shmd_decisions_total", "Program verdicts returned, by class.", "verdict")
	m.Unprotected = r.Counter("shmd_unprotected_decisions_total", "Verdicts served degraded at nominal voltage.")
	m.QueueRejects = r.Counter("shmd_queue_rejects_total", "Requests shed with 429 at the backpressure limit.")
	m.Hedges = r.Counter("shmd_hedged_dispatches_total", "Batches re-dispatched onto a second slot past the hedge budget.")
	m.HedgeWins = r.Counter("shmd_hedge_wins_total", "Batches won by the hedge runner.")
	m.DeadlineExpired = r.Counter("shmd_deadline_expirations_total", "Requests shed at their detection deadline.")
	m.DetectLatency = r.Histogram("shmd_detect_duration_seconds", "/v1/detect handling latency.", seconds, latencyBuckets...)
	m.BatchFlushes = r.CounterVec("shmd_batch_flush_total", "Micro-batch flushes, by trigger.", "reason")
	m.BatchSize = r.Histogram("shmd_batch_size", "Lanes per micro-batch flush.", 1, batchSizeBuckets...)
	m.BatchWait = r.Histogram("shmd_batch_wait_seconds", "Per-lane wait between enqueue and batch flush.", seconds, batchWaitBuckets...)
	m.WireConns = r.Counter("shmd_wire_connections_total", "SHMDWIRE connections accepted since boot.")
	m.WireActive = r.Gauge("shmd_wire_connections_active", "SHMDWIRE connections currently open.")
	m.WireFrames = r.Counter("shmd_wire_frames_total", "Frames read off SHMDWIRE connections.")
	m.WireUnknownFrames = r.Counter("shmd_wire_unknown_frames_total", "Unknown-type frames skipped with a warning.")
	m.WireGoAways = r.Counter("shmd_wire_goaways_total", "GOAWAY frames sent to draining clients.")
	m.ModelDecisions = r.CounterVec("shmd_model_decisions_total", "Winning verdicts, by model version and class.", "version", "verdict")
	m.ModelRollouts = r.CounterVec("shmd_model_rollouts_total", "Finished canary rollouts, by outcome.", "outcome")
	m.TenantAccepted = r.CounterVec("shmd_tenant_accepted_total", "Requests admitted, by tenant and priority class.", "tenant", "class")
	m.TenantShed = r.CounterVec("shmd_tenant_shed_total", "Requests rejected, by tenant, class, and shed reason.", "tenant", "class", "reason")
	m.TenantOverflow = r.Counter("shmd_tenant_label_overflow_total", "Admissions folded into the overflow tenant label at the cardinality cap.")
	m.TenantAccepted.Cap(maxTenantSeries, m.TenantOverflow)
	classWait := r.HistogramVec("shmd_tenant_queue_wait_seconds", "Admission-gate wait before a pool slot, by priority class.", seconds, classWaitBuckets, "class")
	for c := range m.ClassWait {
		m.ClassWait[c] = classWait.With(tenant.Class(c).String())
	}
	for _, v := range []string{"malware", "benign"} {
		m.Decisions.With(v)
	}
	for _, reason := range []string{"idle", "full", "timer"} {
		m.BatchFlushes.With(reason)
	}
	return m
}

// Write renders every family in the Prometheus text format.
func (m *Metrics) Write(w io.Writer) error { return m.reg.Write(w) }

// Request records one served request by final status code.
func (m *Metrics) Request(code int) { m.Requests.With(prom.Itoa(code)).Inc() }

// verdictLabel names a verdict in the exposition.
func verdictLabel(malware bool) string {
	if malware {
		return "malware"
	}
	return "benign"
}

// Decision records one program verdict.
func (m *Metrics) Decision(malware, unprotected bool) {
	m.Decisions.With(verdictLabel(malware)).Inc()
	if unprotected {
		m.Unprotected.Inc()
	}
}

// ModelDecision records one winning verdict against the model version
// that produced it. Both verdict series of a version appear together.
func (m *Metrics) ModelDecision(version uint32, malware bool) {
	v := prom.Itoa(int(version))
	c := m.ModelDecisions.With(v, verdictLabel(malware))
	if c.Value() == 0 {
		m.ModelDecisions.With(v, verdictLabel(!malware))
	}
	c.Inc()
}

// shedTenant records one rejected request with its shed reason
// ("rate", "concurrency", "pressure", "unknown", or "queue"). It
// records under the labels TenantAccepted folds the tenant to, which
// also creates the tenant's accepted series, so both families share
// one cap.
func (m *Metrics) shedTenant(tenant, class, reason string) {
	l := m.TenantAccepted.Fold(tenant, class)
	m.TenantShed.With(l[0], l[1], reason).Inc()
}

// observe registers the families the server reads from its components
// at scrape time: pool gauges, per-session supervisor state, the
// active model version and the trace sink's counters. Each component
// is read once per scrape.
func (m *Metrics) observe(s *Server) {
	pool := s.pool
	prom.Func(&m.reg, "", nil, []prom.Column[*Pool]{
		{Name: "shmd_pool_sessions", Help: "Pooled supervised sessions.", Type: prom.TypeGauge,
			Value: func(p *Pool) float64 { return float64(p.Size()) }},
		{Name: "shmd_pool_double_checkouts_total", Help: "Session-exclusivity violations (must be 0).", Type: prom.TypeCounter,
			Value: func(p *Pool) float64 { return float64(p.DoubleCheckouts()) }},
		{Name: "shmd_pool_quarantines_total", Help: "Slots pulled from rotation as terminally degraded.", Type: prom.TypeCounter,
			Value: func(p *Pool) float64 { return float64(p.Quarantines()) }},
		{Name: "shmd_pool_respawns_total", Help: "Quarantined slots rebuilt and returned to rotation.", Type: prom.TypeCounter,
			Value: func(p *Pool) float64 { return float64(p.Respawns()) }},
		{Name: "shmd_pool_quarantined", Help: "Slots currently out of rotation (quarantined or respawning).", Type: prom.TypeGauge,
			Value: func(p *Pool) float64 { return float64(p.QuarantinedNow()) }},
	}, func() []*Pool { return []*Pool{pool} })

	type reading struct {
		slot *Slot
		h    core.Health
	}
	gauge := func(name, help string, v func(reading) float64) prom.Column[reading] {
		return prom.Column[reading]{Name: name, Help: help, Type: prom.TypeGauge, Value: v}
	}
	counter := func(name, help string, v func(core.Health) uint64) prom.Column[reading] {
		return prom.Column[reading]{Name: name, Help: help, Type: prom.TypeCounter, Value: func(r reading) float64 { return float64(v(r.h)) }}
	}
	prom.Func(&m.reg, "session", func(r reading) string { return strconv.Itoa(r.slot.ID) }, []prom.Column[reading]{
		gauge("shmd_session_state", "Supervisor recovery state (0 healthy, 1 retrying, 2 degraded).",
			func(r reading) float64 { return float64(r.slot.Sup.State()) }),
		gauge("shmd_session_generation", "Rebuild generation of the slot occupying this index (0 = boot slot).",
			func(r reading) float64 { return float64(r.slot.Gen) }),
		gauge("shmd_session_lifecycle", "Slot lifecycle state (0 active, 1 quarantined, 2 respawning).",
			func(r reading) float64 { return float64(r.slot.Lifecycle()) }),
		gauge("shmd_session_model_version", "Registry version of the model this slot serves (0 = compiled-in).",
			func(r reading) float64 { return float64(r.slot.Model) }),
		gauge("shmd_session_target_fault_rate", "Calibrated fault rate the canary defends.",
			func(r reading) float64 { return r.slot.Sup.TargetRate() }),
		gauge("shmd_session_undervolt_mv", "Detection-time undervolt depth applied on enter.",
			func(r reading) float64 { return r.slot.Sup.Session().Depth() }),
		gauge("shmd_session_supply_volts", "Current supply voltage (nominal between detections).",
			func(r reading) float64 { return r.slot.Det.SupplyVoltage() }),
		counter("shmd_session_detections_total", "Detection requests served.", func(h core.Health) uint64 { return h.Detections }),
		counter("shmd_session_protected_total", "Detections served undervolted.", func(h core.Health) uint64 { return h.Protected }),
		counter("shmd_session_unprotected_total", "Detections served degraded.", func(h core.Health) uint64 { return h.Unprotected }),
		counter("shmd_session_retries_total", "Faulted cycle retries.", func(h core.Health) uint64 { return h.Retries }),
		counter("shmd_session_failures_total", "Detection requests whose protected attempts all faulted.", func(h core.Health) uint64 { return h.Failures }),
		counter("shmd_session_breaker_trips_total", "Circuit-breaker trips into degraded mode.", func(h core.Health) uint64 { return h.Trips }),
		counter("shmd_session_recoveries_total", "Breaker recoveries back to protected mode.", func(h core.Health) uint64 { return h.Recoveries }),
		counter("shmd_session_canaries_total", "Known-answer fault-rate canary probes run.", func(h core.Health) uint64 { return h.Canaries }),
		counter("shmd_session_drifts_total", "Canary probes that found the rate outside tolerance.", func(h core.Health) uint64 { return h.Drifts }),
		counter("shmd_session_recalibrations_total", "Successful undervolt-depth recalibrations.", func(h core.Health) uint64 { return h.Recalibrations }),
		counter("shmd_session_canary_failures_total", "Canary probes that could not run at all.", func(h core.Health) uint64 { return h.CanaryFailures }),
		gauge("shmd_session_canary_fault_rate", "Last observed known-answer canary fault rate (-1 before the first probe).",
			func(r reading) float64 {
				if r.h.Canaries == 0 {
					return -1
				}
				return r.h.LastCanaryRate
			}),
	}, func() []reading {
		slots := pool.Slots()
		out := make([]reading, len(slots))
		for i, slot := range slots {
			out[i] = reading{slot, slot.Sup.Health()}
		}
		return out
	})

	cols := []prom.Column[*Server]{
		{Name: "shmd_model_active_version", Help: "Incumbent model version (0 = compiled-in model).", Type: prom.TypeGauge,
			Value: func(s *Server) float64 { return float64(s.rollout.Incumbent()) }},
	}
	if s.cfg.Trace != nil {
		cols = append(cols,
			prom.Column[*Server]{Name: "shmd_trace_records_total", Help: "Decision-trace records durably written.", Type: prom.TypeCounter,
				Value: func(s *Server) float64 { return float64(s.cfg.Trace.Written()) }},
			prom.Column[*Server]{Name: "shmd_trace_dropped_total", Help: "Decision-trace records dropped (ring full or sink wedged).", Type: prom.TypeCounter,
				Value: func(s *Server) float64 { return float64(s.cfg.Trace.Dropped()) }})
	}
	prom.Func(&m.reg, "", nil, cols, func() []*Server { return []*Server{s} })
}
