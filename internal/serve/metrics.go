package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numLatencyBuckets sizes the fixed histogram.
const numLatencyBuckets = 12

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache-warm inference to multi-second degraded
// batches.
var latencyBuckets = [numLatencyBuckets]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics is the service's hand-rolled counter block, rendered in the
// Prometheus text exposition format. Hot-path updates are lock-free
// atomics; the status-code map takes a mutex only on a code's first
// appearance.
type Metrics struct {
	mu       sync.Mutex
	requests map[int]*atomic.Uint64

	decisionsMalware atomic.Uint64
	decisionsBenign  atomic.Uint64
	unprotected      atomic.Uint64
	queueRejects     atomic.Uint64
	hedges           atomic.Uint64
	hedgeWins        atomic.Uint64
	deadlineExpired  atomic.Uint64

	latencyCount atomic.Uint64
	latencySumNS atomic.Uint64
	latency      [numLatencyBuckets]atomic.Uint64 // non-cumulative per-bucket counts
	latencyOver  atomic.Uint64                    // observations above the last bound

	// Micro-batching: flush counters by reason, batch-size histogram,
	// and the per-lane wait between enqueue and flush.
	batchFlushIdle  atomic.Uint64
	batchFlushFull  atomic.Uint64
	batchFlushTimer atomic.Uint64
	batchSizeCount  atomic.Uint64
	batchSizeSum    atomic.Uint64
	batchSize       [numBatchSizeBuckets]atomic.Uint64
	batchSizeOver   atomic.Uint64
	batchWaitCount  atomic.Uint64
	batchWaitSumNS  atomic.Uint64
	batchWait       [numBatchWaitBuckets]atomic.Uint64
	batchWaitOver   atomic.Uint64

	// SHMDWIRE transport: connection lifecycle, frame volume, and the
	// forward-compatibility skip counter.
	wireConnsTotal    atomic.Uint64
	wireConnsActive   atomic.Int64
	wireFrames        atomic.Uint64
	wireUnknownFrames atomic.Uint64
	wireGoAways       atomic.Uint64

	// Model registry: per-version decision counters and rollout
	// outcome counters. Versions are operator-minted (registry
	// registration gates them), so the label cardinality is bounded by
	// deployment practice, not by clients.
	modelMu       sync.Mutex
	modelSeries   map[uint32]*modelCounters
	modelRollouts map[string]*atomic.Uint64

	// Tenant QoS: per-tenant admission counters (cardinality-capped —
	// see tenantSeries) and per-class admission-gate wait histograms
	// (classes are a fixed enum, so their cardinality needs no guard).
	tenantMu       sync.Mutex
	tenantSeries   map[string]*tenantCounters
	tenantOverflow atomic.Uint64
	classWaitCount [numClasses]atomic.Uint64
	classWaitSumNS [numClasses]atomic.Uint64
	classWait      [numClasses][numClassWaitBuckets]atomic.Uint64
	classWaitOver  [numClasses]atomic.Uint64
}

// maxTenantSeries caps how many distinct tenant IDs get their own
// metric series. The tenant label is attacker-influenced (any client
// can mint IDs when a Default spec auto-registers them), so past the
// cap new tenants aggregate under the overflow label instead of
// growing the exposition without bound.
const maxTenantSeries = 64

// tenantOverflowLabel aggregates tenants past the cardinality cap.
const tenantOverflowLabel = "other"

// numClasses mirrors tenant.NumClasses without importing the package
// here; classLabel pins the correspondence.
const numClasses = 3

// classLabel names a class index in the exposition.
var classLabel = [numClasses]string{"batch", "standard", "realtime"}

// numClassWaitBuckets sizes the per-class gate-wait histogram.
const numClassWaitBuckets = 10

// classWaitBuckets are the gate-wait upper bounds in seconds: waits
// span an uncontended grant (sub-ms) to a queue drained behind
// multi-second degraded batches.
var classWaitBuckets = [numClassWaitBuckets]float64{
	0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// tenantCounters is one tenant's admission ledger. Shed reasons are a
// fixed enum (tenant.Outcome strings plus "queue"), so the inner map
// is bounded.
type tenantCounters struct {
	class    string
	accepted atomic.Uint64
	shed     map[string]*atomic.Uint64
}

// modelCounters is one model version's decision ledger.
type modelCounters struct {
	malware atomic.Uint64
	benign  atomic.Uint64
}

// numBatchSizeBuckets sizes the batch-size histogram.
const numBatchSizeBuckets = 7

// batchSizeBuckets are the histogram upper bounds in lanes, spanning a
// solo flush to the widest fused-kernel block.
var batchSizeBuckets = [numBatchSizeBuckets]float64{1, 2, 4, 8, 16, 32, 64}

// numBatchWaitBuckets sizes the batch-wait histogram.
const numBatchWaitBuckets = 10

// batchWaitBuckets are the histogram upper bounds in seconds: an idle
// batcher dispatches at once, and a busy one holds lanes only until an
// in-flight batch completes or MaxBatchWait passes, so the range sits
// well below the end-to-end latency buckets.
var batchWaitBuckets = [numBatchWaitBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// NewMetrics builds an empty counter block.
func NewMetrics() *Metrics {
	return &Metrics{requests: make(map[int]*atomic.Uint64)}
}

// Request records one served HTTP request by final status code.
func (m *Metrics) Request(code int) {
	m.mu.Lock()
	c, ok := m.requests[code]
	if !ok {
		c = new(atomic.Uint64)
		m.requests[code] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// Decision records one program verdict.
func (m *Metrics) Decision(malware, unprotected bool) {
	if malware {
		m.decisionsMalware.Add(1)
	} else {
		m.decisionsBenign.Add(1)
	}
	if unprotected {
		m.unprotected.Add(1)
	}
}

// QueueReject records one request shed with a 429.
func (m *Metrics) QueueReject() { m.queueRejects.Add(1) }

// Hedge records one hedged re-dispatch onto a second slot.
func (m *Metrics) Hedge() { m.hedges.Add(1) }

// HedgeWin records one reply won by the hedge runner.
func (m *Metrics) HedgeWin() { m.hedgeWins.Add(1) }

// DeadlineExpired records one request shed at its detection deadline.
func (m *Metrics) DeadlineExpired() { m.deadlineExpired.Add(1) }

// Hedges reports hedged re-dispatches.
func (m *Metrics) Hedges() uint64 { return m.hedges.Load() }

// HedgeWins reports replies won by the hedge runner.
func (m *Metrics) HedgeWins() uint64 { return m.hedgeWins.Load() }

// DeadlineExpirations reports requests shed at their deadline.
func (m *Metrics) DeadlineExpirations() uint64 { return m.deadlineExpired.Load() }

// Observe records one /v1/detect latency.
func (m *Metrics) Observe(d time.Duration) {
	m.latencyCount.Add(1)
	m.latencySumNS.Add(uint64(d.Nanoseconds()))
	s := d.Seconds()
	for i, le := range latencyBuckets {
		if s <= le {
			m.latency[i].Add(1)
			return
		}
	}
	m.latencyOver.Add(1)
}

// BatchFlush records one micro-batch flush with its trigger ("idle",
// "full" or "timer") and the number of lanes it carried.
func (m *Metrics) BatchFlush(reason string, size int) {
	switch reason {
	case "idle":
		m.batchFlushIdle.Add(1)
	case "full":
		m.batchFlushFull.Add(1)
	default:
		m.batchFlushTimer.Add(1)
	}
	m.batchSizeCount.Add(1)
	m.batchSizeSum.Add(uint64(size))
	for i, le := range batchSizeBuckets {
		if float64(size) <= le {
			m.batchSize[i].Add(1)
			return
		}
	}
	m.batchSizeOver.Add(1)
}

// ObserveBatchWait records one lane's wait between enqueue and flush.
func (m *Metrics) ObserveBatchWait(d time.Duration) {
	m.batchWaitCount.Add(1)
	m.batchWaitSumNS.Add(uint64(d.Nanoseconds()))
	s := d.Seconds()
	for i, le := range batchWaitBuckets {
		if s <= le {
			m.batchWait[i].Add(1)
			return
		}
	}
	m.batchWaitOver.Add(1)
}

// BatchFlushes reports micro-batch flushes by trigger.
func (m *Metrics) BatchFlushes() (idle, full, timer uint64) {
	return m.batchFlushIdle.Load(), m.batchFlushFull.Load(), m.batchFlushTimer.Load()
}

// WireConnOpen records one accepted SHMDWIRE connection.
func (m *Metrics) WireConnOpen() {
	m.wireConnsTotal.Add(1)
	m.wireConnsActive.Add(1)
}

// WireConnClose records one closed SHMDWIRE connection.
func (m *Metrics) WireConnClose() { m.wireConnsActive.Add(-1) }

// WireFrame records one frame read from a SHMDWIRE connection.
func (m *Metrics) WireFrame() { m.wireFrames.Add(1) }

// WireUnknownFrame records one unknown-type frame skipped with a
// warning (forward compatibility, never fatal).
func (m *Metrics) WireUnknownFrame() { m.wireUnknownFrames.Add(1) }

// WireUnknownFrames reports skipped unknown-type frames.
func (m *Metrics) WireUnknownFrames() uint64 { return m.wireUnknownFrames.Load() }

// WireGoAway records one GOAWAY frame sent to a draining client.
func (m *Metrics) WireGoAway() { m.wireGoAways.Add(1) }

// ModelDecision records one winning verdict against the model version
// that produced it.
func (m *Metrics) ModelDecision(version uint32, malware bool) {
	m.modelMu.Lock()
	if m.modelSeries == nil {
		m.modelSeries = make(map[uint32]*modelCounters)
	}
	mc, ok := m.modelSeries[version]
	if !ok {
		mc = &modelCounters{}
		m.modelSeries[version] = mc
	}
	m.modelMu.Unlock()
	if malware {
		mc.malware.Add(1)
	} else {
		mc.benign.Add(1)
	}
}

// ModelRollout records one finished rollout by outcome ("promoted",
// "rolledback", or "aborted").
func (m *Metrics) ModelRollout(outcome string) {
	m.modelMu.Lock()
	if m.modelRollouts == nil {
		m.modelRollouts = make(map[string]*atomic.Uint64)
	}
	c, ok := m.modelRollouts[outcome]
	if !ok {
		c = new(atomic.Uint64)
		m.modelRollouts[outcome] = c
	}
	m.modelMu.Unlock()
	c.Add(1)
}

// ModelRollouts reports finished rollouts for an outcome.
func (m *Metrics) ModelRollouts(outcome string) uint64 {
	m.modelMu.Lock()
	defer m.modelMu.Unlock()
	if c, ok := m.modelRollouts[outcome]; ok {
		return c.Load()
	}
	return 0
}

// writeModelProm renders the per-version decision counters and the
// rollout outcome counters, sorted for a deterministic exposition.
func (m *Metrics) writeModelProm(w io.Writer) {
	m.modelMu.Lock()
	versions := make([]uint32, 0, len(m.modelSeries))
	for v := range m.modelSeries {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	type decRow struct {
		version          uint32
		malware, benign  uint64
	}
	decs := make([]decRow, 0, len(versions))
	for _, v := range versions {
		mc := m.modelSeries[v]
		decs = append(decs, decRow{v, mc.malware.Load(), mc.benign.Load()})
	}
	outcomes := make([]string, 0, len(m.modelRollouts))
	for o := range m.modelRollouts {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	rolls := make(map[string]uint64, len(outcomes))
	for _, o := range outcomes {
		rolls[o] = m.modelRollouts[o].Load()
	}
	m.modelMu.Unlock()
	if len(decs) > 0 {
		fmt.Fprintln(w, "# HELP shmd_model_decisions_total Winning verdicts, by model version and class.")
		fmt.Fprintln(w, "# TYPE shmd_model_decisions_total counter")
		for _, r := range decs {
			fmt.Fprintf(w, "shmd_model_decisions_total{version=\"%d\",verdict=\"malware\"} %d\n", r.version, r.malware)
			fmt.Fprintf(w, "shmd_model_decisions_total{version=\"%d\",verdict=\"benign\"} %d\n", r.version, r.benign)
		}
	}
	if len(outcomes) > 0 {
		fmt.Fprintln(w, "# HELP shmd_model_rollouts_total Finished canary rollouts, by outcome.")
		fmt.Fprintln(w, "# TYPE shmd_model_rollouts_total counter")
		for _, o := range outcomes {
			fmt.Fprintf(w, "shmd_model_rollouts_total{outcome=%q} %d\n", o, rolls[o])
		}
	}
}

// tenantEntry resolves (creating on first sight) the counter row for a
// tenant, folding tenants past the cardinality cap into the overflow
// row. Callers hold tenantMu.
func (m *Metrics) tenantEntry(tenant, class string) *tenantCounters {
	if m.tenantSeries == nil {
		m.tenantSeries = make(map[string]*tenantCounters)
	}
	if tc, ok := m.tenantSeries[tenant]; ok {
		return tc
	}
	if len(m.tenantSeries) >= maxTenantSeries {
		m.tenantOverflow.Add(1)
		tenant = tenantOverflowLabel
		// The overflow row mixes classes; label it by its own name so
		// the series stays stable whatever lands in it.
		class = tenantOverflowLabel
		if tc, ok := m.tenantSeries[tenant]; ok {
			return tc
		}
	}
	tc := &tenantCounters{class: class, shed: make(map[string]*atomic.Uint64)}
	m.tenantSeries[tenant] = tc
	return tc
}

// TenantAccepted records one admitted request for a tenant.
func (m *Metrics) TenantAccepted(tenant, class string) {
	m.tenantMu.Lock()
	tc := m.tenantEntry(tenant, class)
	m.tenantMu.Unlock()
	tc.accepted.Add(1)
}

// TenantShed records one rejected request for a tenant with its shed
// reason ("rate", "concurrency", "pressure", "unknown", or "queue").
func (m *Metrics) TenantShed(tenant, class, reason string) {
	m.tenantMu.Lock()
	tc := m.tenantEntry(tenant, class)
	c, ok := tc.shed[reason]
	if !ok {
		c = new(atomic.Uint64)
		tc.shed[reason] = c
	}
	m.tenantMu.Unlock()
	c.Add(1)
}

// TenantSeriesCount reports the distinct tenant rows (tests pin the
// cardinality cap with it).
func (m *Metrics) TenantSeriesCount() int {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	return len(m.tenantSeries)
}

// ObserveClassWait records one admission-gate wait for a priority
// class (index per classLabel).
func (m *Metrics) ObserveClassWait(class int, d time.Duration) {
	if class < 0 || class >= numClasses {
		return
	}
	m.classWaitCount[class].Add(1)
	m.classWaitSumNS[class].Add(uint64(d.Nanoseconds()))
	s := d.Seconds()
	for i, le := range classWaitBuckets {
		if s <= le {
			m.classWait[class][i].Add(1)
			return
		}
	}
	m.classWaitOver[class].Add(1)
}

// WriteProm renders every counter plus per-session pool gauges in the
// Prometheus text format.
func (m *Metrics) WriteProm(w io.Writer, pool *Pool) {
	fmt.Fprintln(w, "# HELP shmd_requests_total HTTP requests served, by final status code.")
	fmt.Fprintln(w, "# TYPE shmd_requests_total counter")
	m.mu.Lock()
	codes := make([]int, 0, len(m.requests))
	for code := range m.requests {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	counts := make(map[int]uint64, len(codes))
	for _, code := range codes {
		counts[code] = m.requests[code].Load()
	}
	m.mu.Unlock()
	for _, code := range codes {
		fmt.Fprintf(w, "shmd_requests_total{code=\"%d\"} %d\n", code, counts[code])
	}

	fmt.Fprintln(w, "# HELP shmd_decisions_total Program verdicts returned, by class.")
	fmt.Fprintln(w, "# TYPE shmd_decisions_total counter")
	fmt.Fprintf(w, "shmd_decisions_total{verdict=\"malware\"} %d\n", m.decisionsMalware.Load())
	fmt.Fprintf(w, "shmd_decisions_total{verdict=\"benign\"} %d\n", m.decisionsBenign.Load())

	fmt.Fprintln(w, "# HELP shmd_unprotected_decisions_total Verdicts served degraded at nominal voltage.")
	fmt.Fprintln(w, "# TYPE shmd_unprotected_decisions_total counter")
	fmt.Fprintf(w, "shmd_unprotected_decisions_total %d\n", m.unprotected.Load())

	fmt.Fprintln(w, "# HELP shmd_queue_rejects_total Requests shed with 429 at the backpressure limit.")
	fmt.Fprintln(w, "# TYPE shmd_queue_rejects_total counter")
	fmt.Fprintf(w, "shmd_queue_rejects_total %d\n", m.queueRejects.Load())

	fmt.Fprintln(w, "# HELP shmd_hedged_dispatches_total Batches re-dispatched onto a second slot past the hedge budget.")
	fmt.Fprintln(w, "# TYPE shmd_hedged_dispatches_total counter")
	fmt.Fprintf(w, "shmd_hedged_dispatches_total %d\n", m.hedges.Load())

	fmt.Fprintln(w, "# HELP shmd_hedge_wins_total Replies won by the hedge runner.")
	fmt.Fprintln(w, "# TYPE shmd_hedge_wins_total counter")
	fmt.Fprintf(w, "shmd_hedge_wins_total %d\n", m.hedgeWins.Load())

	fmt.Fprintln(w, "# HELP shmd_deadline_expirations_total Requests shed at their detection deadline.")
	fmt.Fprintln(w, "# TYPE shmd_deadline_expirations_total counter")
	fmt.Fprintf(w, "shmd_deadline_expirations_total %d\n", m.deadlineExpired.Load())

	fmt.Fprintln(w, "# HELP shmd_detect_duration_seconds /v1/detect handling latency.")
	fmt.Fprintln(w, "# TYPE shmd_detect_duration_seconds histogram")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.latency[i].Load()
		fmt.Fprintf(w, "shmd_detect_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.latencyOver.Load()
	fmt.Fprintf(w, "shmd_detect_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "shmd_detect_duration_seconds_sum %g\n", float64(m.latencySumNS.Load())/1e9)
	fmt.Fprintf(w, "shmd_detect_duration_seconds_count %d\n", m.latencyCount.Load())

	fmt.Fprintln(w, "# HELP shmd_batch_flush_total Micro-batch flushes, by trigger.")
	fmt.Fprintln(w, "# TYPE shmd_batch_flush_total counter")
	fmt.Fprintf(w, "shmd_batch_flush_total{reason=\"idle\"} %d\n", m.batchFlushIdle.Load())
	fmt.Fprintf(w, "shmd_batch_flush_total{reason=\"full\"} %d\n", m.batchFlushFull.Load())
	fmt.Fprintf(w, "shmd_batch_flush_total{reason=\"timer\"} %d\n", m.batchFlushTimer.Load())

	fmt.Fprintln(w, "# HELP shmd_batch_size Lanes per micro-batch flush.")
	fmt.Fprintln(w, "# TYPE shmd_batch_size histogram")
	cum = 0
	for i, le := range batchSizeBuckets {
		cum += m.batchSize[i].Load()
		fmt.Fprintf(w, "shmd_batch_size_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.batchSizeOver.Load()
	fmt.Fprintf(w, "shmd_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "shmd_batch_size_sum %d\n", m.batchSizeSum.Load())
	fmt.Fprintf(w, "shmd_batch_size_count %d\n", m.batchSizeCount.Load())

	fmt.Fprintln(w, "# HELP shmd_batch_wait_seconds Per-lane wait between enqueue and batch flush.")
	fmt.Fprintln(w, "# TYPE shmd_batch_wait_seconds histogram")
	cum = 0
	for i, le := range batchWaitBuckets {
		cum += m.batchWait[i].Load()
		fmt.Fprintf(w, "shmd_batch_wait_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.batchWaitOver.Load()
	fmt.Fprintf(w, "shmd_batch_wait_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "shmd_batch_wait_seconds_sum %g\n", float64(m.batchWaitSumNS.Load())/1e9)
	fmt.Fprintf(w, "shmd_batch_wait_seconds_count %d\n", m.batchWaitCount.Load())

	fmt.Fprintln(w, "# HELP shmd_wire_connections_total SHMDWIRE connections accepted since boot.")
	fmt.Fprintln(w, "# TYPE shmd_wire_connections_total counter")
	fmt.Fprintf(w, "shmd_wire_connections_total %d\n", m.wireConnsTotal.Load())

	fmt.Fprintln(w, "# HELP shmd_wire_connections_active SHMDWIRE connections currently open.")
	fmt.Fprintln(w, "# TYPE shmd_wire_connections_active gauge")
	fmt.Fprintf(w, "shmd_wire_connections_active %d\n", m.wireConnsActive.Load())

	fmt.Fprintln(w, "# HELP shmd_wire_frames_total Frames read off SHMDWIRE connections.")
	fmt.Fprintln(w, "# TYPE shmd_wire_frames_total counter")
	fmt.Fprintf(w, "shmd_wire_frames_total %d\n", m.wireFrames.Load())

	fmt.Fprintln(w, "# HELP shmd_wire_unknown_frames_total Unknown-type frames skipped with a warning.")
	fmt.Fprintln(w, "# TYPE shmd_wire_unknown_frames_total counter")
	fmt.Fprintf(w, "shmd_wire_unknown_frames_total %d\n", m.wireUnknownFrames.Load())

	fmt.Fprintln(w, "# HELP shmd_wire_goaways_total GOAWAY frames sent to draining clients.")
	fmt.Fprintln(w, "# TYPE shmd_wire_goaways_total counter")
	fmt.Fprintf(w, "shmd_wire_goaways_total %d\n", m.wireGoAways.Load())

	m.writeModelProm(w)
	m.writeTenantProm(w)

	if pool != nil {
		writePoolProm(w, pool)
	}
}

// writeTenantProm renders the per-tenant admission counters and the
// per-class gate-wait histograms. Tenant rows are sorted so the
// exposition is deterministic.
func (m *Metrics) writeTenantProm(w io.Writer) {
	m.tenantMu.Lock()
	names := make([]string, 0, len(m.tenantSeries))
	for name := range m.tenantSeries {
		names = append(names, name)
	}
	sort.Strings(names)
	type shedRow struct {
		tenant, class, reason string
		n                     uint64
	}
	type accRow struct {
		tenant, class string
		n             uint64
	}
	var accepted []accRow
	var shed []shedRow
	for _, name := range names {
		tc := m.tenantSeries[name]
		accepted = append(accepted, accRow{name, tc.class, tc.accepted.Load()})
		reasons := make([]string, 0, len(tc.shed))
		for reason := range tc.shed {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			shed = append(shed, shedRow{name, tc.class, reason, tc.shed[reason].Load()})
		}
	}
	m.tenantMu.Unlock()
	if len(accepted) > 0 {
		fmt.Fprintln(w, "# HELP shmd_tenant_accepted_total Requests admitted, by tenant and priority class.")
		fmt.Fprintln(w, "# TYPE shmd_tenant_accepted_total counter")
		for _, r := range accepted {
			fmt.Fprintf(w, "shmd_tenant_accepted_total{tenant=%q,class=%q} %d\n", r.tenant, r.class, r.n)
		}
	}
	if len(shed) > 0 {
		fmt.Fprintln(w, "# HELP shmd_tenant_shed_total Requests rejected, by tenant, class, and shed reason.")
		fmt.Fprintln(w, "# TYPE shmd_tenant_shed_total counter")
		for _, r := range shed {
			fmt.Fprintf(w, "shmd_tenant_shed_total{tenant=%q,class=%q,reason=%q} %d\n", r.tenant, r.class, r.reason, r.n)
		}
	}
	if m.tenantOverflow.Load() > 0 {
		fmt.Fprintln(w, "# HELP shmd_tenant_label_overflow_total Admissions folded into the overflow tenant label at the cardinality cap.")
		fmt.Fprintln(w, "# TYPE shmd_tenant_label_overflow_total counter")
		fmt.Fprintf(w, "shmd_tenant_label_overflow_total %d\n", m.tenantOverflow.Load())
	}

	fmt.Fprintln(w, "# HELP shmd_tenant_queue_wait_seconds Admission-gate wait before a pool slot, by priority class.")
	fmt.Fprintln(w, "# TYPE shmd_tenant_queue_wait_seconds histogram")
	for c := 0; c < numClasses; c++ {
		cum := uint64(0)
		for i, le := range classWaitBuckets {
			cum += m.classWait[c][i].Load()
			fmt.Fprintf(w, "shmd_tenant_queue_wait_seconds_bucket{class=%q,le=\"%g\"} %d\n", classLabel[c], le, cum)
		}
		cum += m.classWaitOver[c].Load()
		fmt.Fprintf(w, "shmd_tenant_queue_wait_seconds_bucket{class=%q,le=\"+Inf\"} %d\n", classLabel[c], cum)
		fmt.Fprintf(w, "shmd_tenant_queue_wait_seconds_sum{class=%q} %g\n", classLabel[c], float64(m.classWaitSumNS[c].Load())/1e9)
		fmt.Fprintf(w, "shmd_tenant_queue_wait_seconds_count{class=%q} %d\n", classLabel[c], m.classWaitCount[c].Load())
	}
}

// writePoolProm renders the per-session supervisor gauges: recovery
// state, health counters, and the fault-rate canary readings.
func writePoolProm(w io.Writer, pool *Pool) {
	fmt.Fprintln(w, "# HELP shmd_pool_sessions Pooled supervised sessions.")
	fmt.Fprintln(w, "# TYPE shmd_pool_sessions gauge")
	fmt.Fprintf(w, "shmd_pool_sessions %d\n", pool.Size())

	fmt.Fprintln(w, "# HELP shmd_pool_double_checkouts_total Session-exclusivity violations (must be 0).")
	fmt.Fprintln(w, "# TYPE shmd_pool_double_checkouts_total counter")
	fmt.Fprintf(w, "shmd_pool_double_checkouts_total %d\n", pool.DoubleCheckouts())

	fmt.Fprintln(w, "# HELP shmd_pool_quarantines_total Slots pulled from rotation as terminally degraded.")
	fmt.Fprintln(w, "# TYPE shmd_pool_quarantines_total counter")
	fmt.Fprintf(w, "shmd_pool_quarantines_total %d\n", pool.Quarantines())

	fmt.Fprintln(w, "# HELP shmd_pool_respawns_total Quarantined slots rebuilt and returned to rotation.")
	fmt.Fprintln(w, "# TYPE shmd_pool_respawns_total counter")
	fmt.Fprintf(w, "shmd_pool_respawns_total %d\n", pool.Respawns())

	fmt.Fprintln(w, "# HELP shmd_pool_quarantined Slots currently out of rotation (quarantined or respawning).")
	fmt.Fprintln(w, "# TYPE shmd_pool_quarantined gauge")
	fmt.Fprintf(w, "shmd_pool_quarantined %d\n", pool.QuarantinedNow())

	type row struct {
		name  string
		value func(*Slot) string
	}
	rows := []row{
		{"shmd_session_state", func(s *Slot) string { return fmt.Sprintf("%d", int(s.Sup.State())) }},
		{"shmd_session_generation", func(s *Slot) string { return fmt.Sprintf("%d", s.Gen) }},
		{"shmd_session_lifecycle", func(s *Slot) string { return fmt.Sprintf("%d", int(s.Lifecycle())) }},
		{"shmd_session_model_version", func(s *Slot) string { return fmt.Sprintf("%d", s.Model) }},
		{"shmd_session_target_fault_rate", func(s *Slot) string { return fmt.Sprintf("%g", s.Sup.TargetRate()) }},
		{"shmd_session_undervolt_mv", func(s *Slot) string { return fmt.Sprintf("%g", s.Sup.Session().Depth()) }},
		{"shmd_session_supply_volts", func(s *Slot) string { return fmt.Sprintf("%g", s.Det.SupplyVoltage()) }},
	}
	help := map[string]string{
		"shmd_session_state":             "Supervisor recovery state (0 healthy, 1 retrying, 2 degraded).",
		"shmd_session_generation":        "Rebuild generation of the slot occupying this index (0 = boot slot).",
		"shmd_session_lifecycle":         "Slot lifecycle state (0 active, 1 quarantined, 2 respawning).",
		"shmd_session_model_version":     "Registry version of the model this slot serves (0 = compiled-in).",
		"shmd_session_target_fault_rate": "Calibrated fault rate the canary defends.",
		"shmd_session_undervolt_mv":      "Detection-time undervolt depth applied on enter.",
		"shmd_session_supply_volts":      "Current supply voltage (nominal between detections).",
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n", r.name, help[r.name])
		fmt.Fprintf(w, "# TYPE %s gauge\n", r.name)
		for _, slot := range pool.Slots() {
			fmt.Fprintf(w, "%s{session=\"%d\"} %s\n", r.name, slot.ID, r.value(slot))
		}
	}

	counters := []struct {
		name, help string
		value      func(h healthSnapshot) uint64
	}{
		{"shmd_session_detections_total", "Detection requests served.", func(h healthSnapshot) uint64 { return h.Detections }},
		{"shmd_session_protected_total", "Detections served undervolted.", func(h healthSnapshot) uint64 { return h.Protected }},
		{"shmd_session_unprotected_total", "Detections served degraded.", func(h healthSnapshot) uint64 { return h.Unprotected }},
		{"shmd_session_retries_total", "Faulted cycle retries.", func(h healthSnapshot) uint64 { return h.Retries }},
		{"shmd_session_failures_total", "Detection requests whose protected attempts all faulted.", func(h healthSnapshot) uint64 { return h.Failures }},
		{"shmd_session_breaker_trips_total", "Circuit-breaker trips into degraded mode.", func(h healthSnapshot) uint64 { return h.Trips }},
		{"shmd_session_recoveries_total", "Breaker recoveries back to protected mode.", func(h healthSnapshot) uint64 { return h.Recoveries }},
		{"shmd_session_canaries_total", "Known-answer fault-rate canary probes run.", func(h healthSnapshot) uint64 { return h.Canaries }},
		{"shmd_session_drifts_total", "Canary probes that found the rate outside tolerance.", func(h healthSnapshot) uint64 { return h.Drifts }},
		{"shmd_session_recalibrations_total", "Successful undervolt-depth recalibrations.", func(h healthSnapshot) uint64 { return h.Recalibrations }},
		{"shmd_session_canary_failures_total", "Canary probes that could not run at all.", func(h healthSnapshot) uint64 { return h.CanaryFailures }},
	}
	snaps := make([]healthSnapshot, pool.Size())
	for i, slot := range pool.Slots() {
		snaps[i] = snapshotHealth(slot)
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		for i := range snaps {
			fmt.Fprintf(w, "%s{session=\"%d\"} %d\n", c.name, i, c.value(snaps[i]))
		}
	}

	fmt.Fprintln(w, "# HELP shmd_session_canary_fault_rate Last observed known-answer canary fault rate (-1 before the first probe).")
	fmt.Fprintln(w, "# TYPE shmd_session_canary_fault_rate gauge")
	for i := range snaps {
		rate := -1.0
		if snaps[i].CanaryValid {
			rate = snaps[i].LastCanaryRate
		}
		fmt.Fprintf(w, "shmd_session_canary_fault_rate{session=\"%d\"} %g\n", i, rate)
	}
}

// healthSnapshot mirrors core.Health plus derived fields, decoupling
// the renderer from lock-holding reads.
type healthSnapshot struct {
	Detections, Protected, Unprotected   uint64
	Retries, Failures, Trips, Recoveries uint64
	Canaries, Drifts, Recalibrations     uint64
	CanaryFailures                       uint64
	LastCanaryRate                       float64
	CanaryValid                          bool
}

// snapshotHealth reads one slot's supervisor counters.
func snapshotHealth(slot *Slot) healthSnapshot {
	h := slot.Sup.Health()
	return healthSnapshot{
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
		LastCanaryRate: h.LastCanaryRate,
		CanaryValid:    h.Canaries > 0,
	}
}
