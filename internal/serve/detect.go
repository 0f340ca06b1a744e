package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"shmd/internal/tenant"
)

// The detect core: every detection request, over HTTP/JSON or
// SHMDWIRE, DETECT frame or STREAM append, takes the same steps in the
// same order:
//
//  1. tenant admission (quota, concurrency, load shaping), when
//     tenancy is on — a request its tenant refuses takes no queue
//     token and has nothing decoded;
//  2. the flat queue token — a full queue sheds 429 at once;
//  3. decode and validation, with the request's deadline;
//  4. dispatch through the micro-batcher under that deadline;
//  5. decision metrics and the reply.
//
// admit runs steps 1–3 and serve steps 4–5. What differs between the
// transports is only how a request is read and how its reply is
// written, which a codec supplies: httpCodec here, wireCodec and
// streamCodec in wire.go. Every refusal and failure maps to one
// transport-neutral failure that the codec writes.

// codec is one transport's half of the detect core.
type codec interface {
	// context is the request's own context: it bounds the dispatch, and
	// a dispatch failing once it is done was abandoned by its client.
	context() context.Context
	// tenant returns the identity the request claims, read without
	// decoding its programs. An error is a malformed request.
	tenant() (string, error)
	// decode reads the request's validated programs and its deadline.
	// A work whose windows were decoded into a request arena carries it
	// even with an error, for the core to release.
	decode() (work, error)
	// reply answers with the request's verdicts, accounted to tenantID.
	reply(out batchOutcome, tenantID string)
	// fail answers with a refusal or failure; tenantID is the tenant
	// the request was admitted under, empty before admission.
	fail(f failure, tenantID string)
}

// failure is a refused or failed detect request's reply, whatever
// transport carries it: a status code (the SHMDWIRE error codes mirror
// HTTP's), a message, and whether a jittered backoff hint rides along.
type failure struct {
	code  int
	msg   string
	retry bool
}

// statusClientClosedRequest is the de-facto code (nginx's 499) used
// only as a metrics label for requests whose client went away; nothing
// is written for it.
const statusClientClosedRequest = 499

// job is one admitted request on its way through the core: what it
// holds — its tenant admission and its queue token — and its work.
type job struct {
	start time.Time
	// adm is the tenant admission (nil when tenancy is off), accounted
	// to tenant in class.
	adm    *tenant.Admission
	tenant string
	class  tenant.Class
	work
}

// work is a decoded request: its validated programs and its deadline.
// arena, when set, holds the programs' windows: a pooled request arena
// the job holds one reference on, and every batch that binds one of
// its lanes its own, so the arena outlives a hedged loser still
// scoring it.
type work struct {
	programs []DecodedProgram
	arena    *reqArena
	deadline time.Duration
}

// admit runs the admission steps of the core for one request: tenant
// admission, the flat queue token, then decode. A refused request has
// been answered and holds nothing; an admitted one holds what serve
// releases.
func admit[C codec](s *Server, c C) (j job, ok bool) {
	j.start = time.Now()
	if s.tenants != nil {
		id, err := c.tenant()
		if err != nil {
			c.fail(failure{code: StatusOf(err), msg: err.Error()}, "")
			return j, false
		}
		j.adm = s.tenants.Admit(id, s.admissionLoad())
		if !j.adm.OK() {
			j.adm.Release()
			c.fail(s.rejectTenant(j.adm), "")
			return j, false
		}
		j.tenant, j.class = j.adm.Tenant, j.adm.Class
		s.metrics.TenantAccepted.With(j.tenant, j.class.String()).Inc()
	}
	// Shed at the backpressure limit before any decode work, so
	// overload costs the caller one channel probe.
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.QueueRejects.Inc()
		if j.adm != nil {
			s.metrics.shedTenant(j.tenant, j.class.String(), "queue")
			j.adm.Release()
		}
		c.fail(failure{http.StatusTooManyRequests, "detection queue full", true}, j.tenant)
		return j, false
	}
	// Holding a queue token guarantees inflight capacity (same sizes).
	s.inflight <- struct{}{}
	var err error
	if j.work, err = c.decode(); err != nil {
		s.release(&j)
		c.fail(failure{code: StatusOf(err), msg: err.Error()}, j.tenant)
		return j, false
	}
	return j, true
}

// serve runs the rest of the core for an admitted request: dispatch
// under its deadline, decision metrics and the reply. It releases what
// the job holds. A request with no programs (a STREAM append that
// completed no stride) is answered with an empty verdict.
func serve[C codec](s *Server, c C, j job) {
	defer s.release(&j)
	out := batchOutcome{session: -1}
	if len(j.programs) > 0 {
		ctx := c.context()
		dctx := ctx
		if j.deadline > 0 {
			var cancel context.CancelFunc
			dctx, cancel = context.WithTimeout(ctx, j.deadline)
			defer cancel()
		}
		var err error
		if out, err = s.batcher.dispatch(dctx, j.class, j.tenant, j.programs, j.arena); err != nil {
			c.fail(s.dispatchFailure(ctx, err), j.tenant)
			return
		}
		defer out.release()
		for _, res := range out.results {
			s.metrics.Decision(res.Malware, res.Unprotected)
		}
		s.metrics.DetectLatency.Observe(int64(time.Since(j.start)))
	}
	c.reply(out, j.tenant)
}

// release gives back what an admitted job holds: its arena reference,
// its queue token and its tenant admission.
func (s *Server) release(j *job) {
	j.arena.release()
	<-s.inflight
	<-s.queue
	if j.adm != nil {
		j.adm.Release()
	}
}

// rejectTenant maps a refused tenant admission: 403 for an unknown
// tenant, 429 with a backoff hint for quota and pressure sheds.
func (s *Server) rejectTenant(adm *tenant.Admission) failure {
	s.metrics.shedTenant(adm.Tenant, adm.Class.String(), adm.Outcome.String())
	if adm.Outcome == tenant.Unknown {
		return failure{code: http.StatusForbidden, msg: fmt.Sprintf("unknown tenant %q", adm.Tenant)}
	}
	return failure{http.StatusTooManyRequests, fmt.Sprintf("tenant %s over %s limit", adm.Tenant, adm.Outcome), true}
}

// dispatchFailure maps a dispatch failure. ctx is the request's own
// context, whose end means the client went away. Deadline expiry is the
// server shedding load, not an internal fault: a 503 with a backoff
// hint, never a 500.
func (s *Server) dispatchFailure(ctx context.Context, err error) failure {
	var ae *AcquireError
	switch {
	case ctx.Err() != nil:
		return failure{code: statusClientClosedRequest}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.DeadlineExpired.Inc()
		return failure{http.StatusServiceUnavailable, "detection deadline exceeded", true}
	case errors.Is(err, ErrPoolClosed):
		return failure{code: http.StatusServiceUnavailable, msg: err.Error()}
	case errors.As(err, &ae):
		return failure{http.StatusServiceUnavailable, err.Error(), true}
	default:
		return failure{code: http.StatusInternalServerError, msg: err.Error()}
	}
}

// httpCodec is the core's HTTP/JSON transport: the tenant rides in the
// X-Tenant header, the programs in the JSON body and the deadline in
// X-Detect-Deadline-Ms; the reply is a DetectResponse, and a failure
// its status with a Retry-After header when it carries a hint. Both
// echo the tenant the request was admitted under in X-Tenant.
type httpCodec struct {
	s *Server
	w http.ResponseWriter
	r *http.Request
}

// handleDetect serves POST /v1/detect.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	c := httpCodec{s, w, r}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		c.fail(failure{code: http.StatusMethodNotAllowed, msg: "POST only"}, "")
		return
	}
	if j, ok := admit(s, c); ok {
		serve(s, c, j)
	}
}

func (c httpCodec) context() context.Context { return c.r.Context() }

func (c httpCodec) tenant() (string, error) { return c.r.Header.Get(tenantHeader), nil }

func (c httpCodec) decode() (w work, err error) {
	body := http.MaxBytesReader(c.w, c.r.Body, c.s.cfg.Limits.MaxBodyBytes)
	if w.programs, err = DecodeDetectRequest(body, c.s.cfg.Limits); err != nil {
		return w, err
	}
	w.deadline, err = requestDeadline(c.r, c.s.cfg.DefaultDeadline)
	return w, err
}

func (c httpCodec) reply(out batchOutcome, tenantID string) {
	c.s.metrics.Request(http.StatusOK)
	c.echoTenant(tenantID)
	c.w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(c.w).Encode(DetectResponse{Results: out.results, Session: out.session, Hedged: out.hedge, Tenant: tenantID})
}

func (c httpCodec) fail(f failure, tenantID string) {
	c.s.metrics.Request(f.code)
	if f.code == statusClientClosedRequest {
		return
	}
	c.echoTenant(tenantID)
	if f.retry {
		c.s.shedHint(c.w)
	}
	http.Error(c.w, f.msg, f.code)
}

// echoTenant sets the X-Tenant reply header to the admitted tenant.
func (c httpCodec) echoTenant(tenantID string) {
	if tenantID != "" {
		c.w.Header().Set(tenantHeader, tenantID)
	}
}
