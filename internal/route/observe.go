package route

import (
	"encoding/json"
	"net/http"

	"shmd/internal/core"
	"shmd/internal/prom"
)

// Metrics is the router's metric set, registered once on one registry
// and rendered by its exposition writer alongside per-backend families
// read at scrape time.
type Metrics struct {
	reg prom.Registry

	// Requests counts routed /v1/detect requests by final status code.
	// Observe endpoints (/healthz, /readyz, /metrics) do not feed it:
	// health probing at any frequency must not move the error-rate
	// counters the fleet alerts on.
	Requests *prom.CounterVec // code
	// ClassSheds counts partial-brownout sheds by priority class; the
	// label set is bounded by tenant.ParseClass (three classes).
	ClassSheds *prom.CounterVec // class
	Sheds      *prom.Counter
	Hedges     *prom.Counter
	HedgeWins  *prom.Counter
	Retries    *prom.Counter
	Ejections  *prom.Counter
}

// NewMetrics registers the router's own series.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.Requests = r.CounterVec("shmd_route_requests_total", "Proxied /v1/detect requests, by final status code (observe endpoints excluded).", "code")
	m.ClassSheds = r.CounterVec("shmd_route_class_sheds_total", "Partial-brownout sheds by priority class.", "class")
	m.Sheds = r.Counter("shmd_route_sheds_total", "Requests refused with no routable backend or while draining.")
	m.Hedges = r.Counter("shmd_route_hedges_total", "Requests re-dispatched onto a second backend past the hedge budget.")
	m.HedgeWins = r.Counter("shmd_route_hedge_wins_total", "Replies won by the hedge attempt.")
	m.Retries = r.Counter("shmd_route_retries_total", "Retry rounds after failed dispatches.")
	m.Ejections = r.Counter("shmd_route_ejections_total", "Backends ejected from the rotation on failed health probes.")
	return m
}

// Request records one routed /v1/detect request by final status code.
func (m *Metrics) Request(code int) { m.Requests.With(prom.Itoa(code)).Inc() }

// BackendHealth is one backend's row in the /healthz report.
type BackendHealth struct {
	Backend string `json:"backend"`
	// Ready is the active prober's last verdict; Breaker is the
	// passive request-outcome verdict. A backend serves traffic only
	// when both agree.
	Ready    bool   `json:"ready"`
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Trips/Reopens/Recoveries are the breaker's transition counters.
	Trips      uint64 `json:"trips"`
	Reopens    uint64 `json:"reopens"`
	Recoveries uint64 `json:"recoveries"`
	// Ejections counts this backend's exits from the probe rotation.
	Ejections uint64 `json:"ejections"`
}

// RouteHealth is the GET /healthz body.
type RouteHealth struct {
	// Status is "ok" while at least one backend is routable,
	// "brownout" when none is.
	Status   string          `json:"status"`
	Backends []BackendHealth `json:"backends"`
}

// healthReport assembles the current fleet view.
func (rt *Router) healthReport() RouteHealth {
	report := RouteHealth{Status: "brownout"}
	for _, b := range rt.backends {
		snap := b.breaker.Snapshot()
		if b.routable() {
			report.Status = "ok"
		}
		report.Backends = append(report.Backends, BackendHealth{
			Backend:    b.name,
			Ready:      b.ready.Load(),
			Breaker:    snap.State.String(),
			Inflight:   b.inflight.Load(),
			Requests:   b.requests.Load(),
			Failures:   b.failures.Load(),
			Trips:      snap.Trips,
			Reopens:    snap.Reopens,
			Recoveries: snap.Recoveries,
			Ejections:  b.ejections.Load(),
		})
	}
	return report
}

// Health returns the current fleet view (the /healthz body). The soak
// harness samples it to assert traffic re-converges onto survivors
// after a backend dies.
func (rt *Router) Health() RouteHealth { return rt.healthReport() }

// handleHealthz serves GET /healthz: 200 while at least one backend is
// routable, 503 during a total brownout. The body is the per-backend
// fleet view either way.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	report := rt.healthReport()
	code := http.StatusOK
	if report.Status != "ok" {
		code = http.StatusServiceUnavailable
		rt.shedHint(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(report)
}

// handleReadyz serves GET /readyz: like /healthz, but it also flips
// 503 the moment the router starts draining, so an upstream tier stops
// sending before the listener closes.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ready, reason := true, ""
	if rt.draining.Load() {
		ready, reason = false, "draining"
	} else if rt.healthReport().Status != "ok" {
		ready, reason = false, "brownout"
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		rt.shedHint(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}{Ready: ready, Reason: reason})
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.metrics.reg.Write(w)
}

// breakerStateValue encodes a breaker state as a numeric gauge
// (0 closed, 1 open, 2 half-open), mirroring shmd_session_state.
func breakerStateValue(s core.BreakerState) float64 {
	switch s {
	case core.BreakerOpen:
		return 1
	case core.BreakerHalfOpen:
		return 2
	default:
		return 0
	}
}

// observeBackends registers the per-backend families, read at scrape
// time with one breaker snapshot per backend, so every family of one
// scrape sees the same breaker state.
func (rt *Router) observeBackends() {
	type reading struct {
		b    *backend
		snap core.BreakerSnapshot
	}
	col := func(name, help, typ string, v func(reading) float64) prom.Column[reading] {
		return prom.Column[reading]{Name: name, Help: help, Type: typ, Value: v}
	}
	prom.Func(&rt.metrics.reg, "backend", func(r reading) string { return r.b.name }, []prom.Column[reading]{
		col("shmd_route_backend_up", "Backend in the probe rotation (1) or ejected (0).", prom.TypeGauge,
			func(r reading) float64 {
				if r.b.ready.Load() {
					return 1
				}
				return 0
			}),
		col("shmd_route_backend_breaker_state", "Backend breaker state (0 closed, 1 open, 2 half-open).", prom.TypeGauge,
			func(r reading) float64 { return breakerStateValue(r.snap.State) }),
		col("shmd_route_backend_inflight", "Outstanding requests dispatched to the backend.", prom.TypeGauge,
			func(r reading) float64 { return float64(r.b.inflight.Load()) }),
		col("shmd_route_backend_requests_total", "Dispatch attempts sent to the backend (incl. hedges and retries).", prom.TypeCounter,
			func(r reading) float64 { return float64(r.b.requests.Load()) }),
		col("shmd_route_backend_failures_total", "Attempts that counted as breaker failures (connect errors, 5xx).", prom.TypeCounter,
			func(r reading) float64 { return float64(r.b.failures.Load()) }),
		col("shmd_route_backend_breaker_trips_total", "Breaker trips (closed to open).", prom.TypeCounter,
			func(r reading) float64 { return float64(r.snap.Trips) }),
		col("shmd_route_backend_breaker_reopens_total", "Failed half-open probes (re-opened with doubled cooldown).", prom.TypeCounter,
			func(r reading) float64 { return float64(r.snap.Reopens) }),
		col("shmd_route_backend_breaker_recoveries_total", "Breaker recoveries back to closed.", prom.TypeCounter,
			func(r reading) float64 { return float64(r.snap.Recoveries) }),
		col("shmd_route_backend_ejections_total", "Rotation ejections on failed health probes.", prom.TypeCounter,
			func(r reading) float64 { return float64(r.b.ejections.Load()) }),
	}, func() []reading {
		out := make([]reading, len(rt.backends))
		for i, b := range rt.backends {
			out[i] = reading{b, b.breaker.Snapshot()}
		}
		return out
	})
}
