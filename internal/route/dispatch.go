package route

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"shmd/internal/core"
	"shmd/internal/tenant"
)

// errBrownout marks a dispatch that found no routable backend: every
// backend is out of the rotation, breaker-open, or already tried. The
// handler maps it to a 503 shed, never a hang.
var errBrownout = errors.New("route: no routable backend")

// proxyResult is one backend's reply, buffered for relay.
type proxyResult struct {
	status  int
	ctype   string
	body    []byte
	backend string
}

// failure is a refused or failed detect request's reply, the same on
// both transports: a status code, a message, and whether a jittered
// backoff hint rides along. failHTTP and failWire write it.
type failure struct {
	code  int
	msg   string
	retry bool
}

// admit is the router's admission step for one detect request whose
// client advises priority class c, the same on both transports: a
// draining router sheds 503, and a partial brownout sheds c's class
// 429 — cheap, before the request body is even read, so the surviving
// backends' capacity goes to interactive traffic. ok is false when the
// request is refused with f.
func (rt *Router) admit(c tenant.Class) (f failure, ok bool) {
	switch {
	case rt.draining.Load():
		f = failure{http.StatusServiceUnavailable, "router draining", true}
	case rt.shedClass(c):
		f = failure{http.StatusTooManyRequests, fmt.Sprintf("fleet brownout: %s traffic shed", c), true}
	default:
		return failure{}, true
	}
	rt.metrics.Sheds.Inc()
	return f, false
}

// failed maps a dispatch failure to its reply. ctx is the request's
// own context: a client that went away is recorded under the de-facto
// 499 and answered nothing.
func (rt *Router) failed(ctx context.Context, err error) failure {
	switch {
	case ctx.Err() != nil:
		return failure{code: statusClientClosedRequest}
	case errors.Is(err, errBrownout):
		rt.metrics.Sheds.Inc()
		return failure{http.StatusServiceUnavailable, err.Error(), true}
	default:
		// Every backend tried answered badly; the fleet is reachable but
		// misbehaving. 502 tells the client the router itself is fine.
		return failure{http.StatusBadGateway, err.Error(), true}
	}
}

// statusClientClosedRequest is nginx's de-facto 499, used only as a
// metrics label for requests abandoned mid-dispatch.
const statusClientClosedRequest = 499

// failHTTP writes a failure as an HTTP error reply, with a jittered
// Retry-After when it carries a hint, and records it in the request
// counters (observe endpoints write plain http.Error instead, keeping
// scrapes and health probes out of the metric).
func (rt *Router) failHTTP(w http.ResponseWriter, f failure) {
	rt.metrics.Request(f.code)
	if f.code == statusClientClosedRequest {
		return
	}
	if f.retry {
		rt.shedHint(w)
	}
	http.Error(w, f.msg, f.code)
}

// handleDetect proxies POST /v1/detect onto the fleet.
func (rt *Router) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.failHTTP(w, failure{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	if f, ok := rt.admit(classFor(r.Header.Get("X-Tenant-Class"))); !ok {
		rt.failHTTP(w, f)
		return
	}
	// The body is buffered whole so it can be re-sent verbatim to a
	// hedge or retry backend; the bound keeps a hostile client from
	// ballooning router memory.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		f := failure{code: http.StatusBadRequest, msg: "reading request body: " + err.Error()}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			f = failure{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)}
		}
		rt.failHTTP(w, f)
		return
	}

	res, err := dispatch(r.Context(), rt, nil, func(ctx context.Context, b *backend, probe bool) (*proxyResult, error) {
		return rt.forward(ctx, b, body, r.Header, probe)
	})
	if err != nil {
		rt.failHTTP(w, rt.failed(r.Context(), err))
		return
	}
	w.Header().Set("X-Shmd-Backend", res.backend)
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	rt.metrics.Request(res.status)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// attempt is one forwarding attempt's outcome.
type attempt[R any] struct {
	res   R
	hedge bool
	err   error
}

// dispatch is the retry-and-hedge loop both transports share. send
// forwards the request to one backend (forward over HTTP, wireForward
// over SHMDWIRE) and must resolve the backend's half-open probe when
// probe is set; eligible, when non-nil, limits the backends send can
// reach. Each round makes one (possibly hedged) attempt on eligible
// backends not yet tried, and a failed attempt (connect error, 5xx)
// earns another round after an equal-jitter backoff, up to MaxRetries.
// The tried set persists across rounds so a retry always lands on a
// fresh backend while one exists.
func dispatch[R any](ctx context.Context, rt *Router, eligible func(*backend) bool, send func(ctx context.Context, b *backend, probe bool) (R, error)) (R, error) {
	tried := make(map[*backend]bool, len(rt.backends))
	var zero R
	var lastErr error
	for round := 0; ; round++ {
		res, err := race(ctx, rt, tried, eligible, send)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, errBrownout) {
			if lastErr != nil {
				// Fresh backends ran out mid-retry; report the real
				// failure, not the exhaustion.
				return zero, lastErr
			}
			// Nothing was ever routable: a brownout shed, not a failed
			// dispatch.
			return zero, err
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		lastErr = err
		if round >= rt.cfg.MaxRetries {
			return zero, lastErr
		}
		rt.metrics.Retries.Inc()
		rt.cfg.Sleep(rt.jitter.Backoff(rt.cfg.RetryBackoff, rt.cfg.MaxRetryBackoff, round))
	}
}

// race makes one dispatch attempt: send to the picked backend and, if
// the reply outlives HedgeAfter, re-send to a second backend — the
// first reply wins (a hedge win is counted) and the loser's attempt
// finishes detached, its breaker feedback still landing. Every backend
// used is added to tried.
func race[R any](ctx context.Context, rt *Router, tried map[*backend]bool, eligible func(*backend) bool, send func(context.Context, *backend, bool) (R, error)) (R, error) {
	var zero R
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan attempt[R], 2)
	start := func(hedge bool) bool {
		b, probe := rt.pick(tried, eligible)
		if b == nil {
			return false
		}
		tried[b] = true
		rt.reqWG.Add(1)
		go func() {
			defer rt.reqWG.Done()
			res, err := send(ctx, b, probe)
			outcomes <- attempt[R]{res: res, hedge: hedge, err: err}
		}()
		return true
	}
	if !start(false) {
		return zero, errBrownout
	}

	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
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
				if out.hedge {
					rt.metrics.HedgeWins.Inc()
				}
				return out.res, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Hedging spends only capacity that is routable right now;
			// no second backend → the primary simply keeps running.
			if start(true) {
				rt.metrics.Hedges.Inc()
				pending++
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	return zero, firstErr
}

// pick selects the next backend among those eligible (nil = every
// backend), ready, and not yet tried; eligibility is settled before a
// breaker is asked, so a pick never claims a probe it cannot use.
// Half-open probes come first: a backend whose breaker cooldown has
// elapsed claims this request as its single live probe — exactly as
// the Supervisor probes a degraded slot with a real detection — so a
// tripped backend re-earns traffic even while healthy peers could
// absorb everything (and at most one request per cooldown is risked; a
// failed probe retries elsewhere). Otherwise: power-of-two-choices on
// in-flight count among backends with closed breakers. The second
// return is true when the pick claimed a half-open probe — the send
// MUST then resolve the breaker (Success, Failure, or Release).
// Returns nil when nothing is routable (brownout).
func (rt *Router) pick(tried map[*backend]bool, eligible func(*backend) bool) (*backend, bool) {
	var avail []*backend
	for _, b := range rt.backends {
		if tried[b] || !b.ready.Load() || (eligible != nil && !eligible(b)) {
			continue
		}
		if b.breaker.State() == core.BreakerClosed {
			avail = append(avail, b)
			continue
		}
		// Allow claims the single half-open probe; the send's outcome
		// closes the breaker, re-opens it with doubled cooldown, or hands
		// the probe back if the attempt is abandoned.
		if b.breaker.Allow() {
			return b, true
		}
	}
	switch len(avail) {
	case 0:
		return nil, false
	case 1:
		return avail[0], false
	case 2:
		if avail[1].inflight.Load() < avail[0].inflight.Load() {
			return avail[1], false
		}
		return avail[0], false
	default:
		i := rt.jitter.Intn(len(avail))
		j := rt.jitter.Intn(len(avail) - 1)
		if j >= i {
			j++
		}
		if avail[j].inflight.Load() < avail[i].inflight.Load() {
			return avail[j], false
		}
		return avail[i], false
	}
}

// forwardHeaders are the request headers the router relays to the
// backend; everything else is dropped (hop-by-hop semantics).
// X-Tenant rides through verbatim — the backend's registry is the
// quota authority, the router never rewrites identity — and
// X-Tenant-Class is the client's advisory copy of its class for the
// router's own brownout shedding.
var forwardHeaders = []string{"Content-Type", "X-Detect-Deadline-Ms", "X-Tenant", "X-Tenant-Class"}

// forward sends one request to one backend and classifies the outcome
// for its breaker: transport errors, 5xx, and over-cap replies are
// failures, everything else — including 4xx and 429, which prove the
// backend is alive and reasoning — is a success. When probe is set
// this attempt holds the backend's half-open probe and every exit
// path resolves it: Success or Failure where the outcome is the
// backend's doing, Release where the attempt was abandoned (cancelled
// context) — otherwise the breaker would wedge half-open, Allow would
// refuse forever, and the backend would never see traffic again.
func (rt *Router) forward(ctx context.Context, b *backend, body []byte, hdr http.Header, probe bool) (*proxyResult, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	resolved := false
	if probe {
		defer func() {
			if !resolved {
				b.breaker.Release()
			}
		}()
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("route: %s: %w", b.name, err)
	}
	for _, h := range forwardHeaders {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			// A connect failure is the backend's fault; a cancelled
			// context is the client's and must not poison the breaker.
			resolved = true
			rt.noteFailure(b)
		}
		return nil, fmt.Errorf("route: %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	// One byte past the cap distinguishes "fits exactly" from "bigger":
	// an over-cap reply must fail the attempt, never be truncated and
	// relayed with the backend's success status as if it were whole.
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		if ctx.Err() == nil {
			resolved = true
			rt.noteFailure(b)
		}
		return nil, fmt.Errorf("route: %s: reading reply: %w", b.name, err)
	}
	if int64(len(respBody)) > rt.cfg.MaxBodyBytes {
		resolved = true
		rt.noteFailure(b)
		return nil, fmt.Errorf("route: %s reply exceeds %d bytes", b.name, rt.cfg.MaxBodyBytes)
	}
	if resp.StatusCode >= 500 {
		resolved = true
		rt.noteFailure(b)
		return nil, fmt.Errorf("route: %s answered %d", b.name, resp.StatusCode)
	}
	resolved = true
	b.breaker.Success()
	return &proxyResult{
		status:  resp.StatusCode,
		ctype:   resp.Header.Get("Content-Type"),
		body:    respBody,
		backend: b.name,
	}, nil
}

// noteFailure feeds one failed attempt to the backend's breaker and
// counters.
func (rt *Router) noteFailure(b *backend) {
	b.failures.Add(1)
	b.breaker.Failure()
}
