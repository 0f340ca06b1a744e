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
	hedged  bool
}

// attemptOutcome is one forwarding attempt's result.
type attemptOutcome struct {
	res   *proxyResult
	hedge bool
	err   error
}

// handleDetect proxies POST /v1/detect onto the fleet.
func (rt *Router) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.status(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if rt.draining.Load() {
		rt.metrics.Sheds.Inc()
		rt.shedHint(w)
		rt.status(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	// Partial brownout: with part of the fleet unroutable, best-effort
	// classes are shed here — cheap, before the body is even read — so
	// the surviving backends' capacity goes to interactive traffic.
	if class := classFor(r.Header.Get("X-Tenant-Class")); rt.shedClass(class) {
		rt.metrics.Sheds.Inc()
		rt.shedHint(w)
		rt.status(w, http.StatusTooManyRequests,
			fmt.Sprintf("fleet brownout: %s traffic shed", class))
		return
	}
	// The body is buffered whole so it can be re-sent verbatim to a
	// hedge or retry backend; the bound keeps a hostile client from
	// ballooning router memory.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.status(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		rt.status(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}

	res, err := rt.dispatch(r.Context(), body, r.Header)
	if err != nil {
		rt.failDetect(w, r, err)
		return
	}
	if res.hedged {
		rt.metrics.HedgeWins.Inc()
	}
	w.Header().Set("X-Shmd-Backend", res.backend)
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	rt.metrics.Request(res.status)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// failDetect maps a dispatch failure to its HTTP reply.
func (rt *Router) failDetect(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		// Client gone; nobody is listening. Metrics label only.
		rt.metrics.Request(statusClientClosedRequest)
	case errors.Is(err, errBrownout):
		rt.metrics.Sheds.Inc()
		rt.shedHint(w)
		rt.status(w, http.StatusServiceUnavailable, err.Error())
	default:
		// Every backend tried answered badly; the fleet is reachable but
		// misbehaving. 502 tells the client the router itself is fine.
		rt.shedHint(w)
		rt.status(w, http.StatusBadGateway, err.Error())
	}
}

// statusClientClosedRequest is nginx's de-facto 499, used only as a
// metrics label for requests abandoned mid-dispatch.
const statusClientClosedRequest = 499

// status writes an error reply on the detect path and records it in
// the request counters (observe endpoints write plain http.Error
// instead, keeping scrapes and health probes out of the metric).
func (rt *Router) status(w http.ResponseWriter, code int, msg string) {
	rt.metrics.Request(code)
	http.Error(w, msg, code)
}

// dispatch runs the retry loop: each round makes one (possibly hedged)
// attempt on backends not yet tried, and a connect error or 5xx earns
// another round after an equal-jitter backoff, up to MaxRetries. The
// tried set persists across rounds so a retry always lands on a fresh
// backend while one exists.
func (rt *Router) dispatch(ctx context.Context, body []byte, hdr http.Header) (*proxyResult, error) {
	tried := make(map[*backend]bool, len(rt.backends))
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := rt.race(ctx, body, hdr, tried)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, errBrownout) {
			if lastErr != nil {
				// Fresh backends ran out mid-retry; report the real
				// failure, not the exhaustion.
				return nil, lastErr
			}
			// Nothing was ever routable: a brownout shed, not a failed
			// dispatch.
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if attempt >= rt.cfg.MaxRetries {
			return nil, lastErr
		}
		rt.metrics.Retries.Inc()
		rt.cfg.Sleep(rt.jitter.Backoff(rt.cfg.RetryBackoff, rt.cfg.MaxRetryBackoff, attempt))
	}
}

// race makes one dispatch attempt: forward to the picked backend and,
// if the reply outlives HedgeAfter, re-dispatch to a second backend —
// the first verdict wins and the loser's attempt finishes detached
// (its breaker feedback still lands). Every backend used is added to
// tried.
func (rt *Router) race(ctx context.Context, body []byte, hdr http.Header, tried map[*backend]bool) (*proxyResult, error) {
	primary, probe := rt.pick(tried)
	if primary == nil {
		return nil, errBrownout
	}
	tried[primary] = true
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan attemptOutcome, 2)
	rt.forwardAsync(ctx, primary, body, hdr, false, probe, outcomes)

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
				out.res.hedged = out.hedge
				return out.res, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Hedging spends only capacity that is routable right now;
			// no second backend → the primary simply keeps running.
			if h, hprobe := rt.pick(tried); h != nil {
				tried[h] = true
				rt.metrics.Hedges.Inc()
				pending++
				rt.forwardAsync(ctx, h, body, hdr, true, hprobe, outcomes)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}

// pick selects the next backend. Half-open probes come first: a ready
// backend whose breaker cooldown has elapsed claims this request as
// its single live probe — exactly as the Supervisor probes a degraded
// slot with a real detection — so a tripped backend re-earns traffic
// even while healthy peers could absorb everything (and at most one
// request per cooldown is risked; a failed probe retries elsewhere).
// Otherwise: power-of-two-choices on in-flight count among ready
// backends with closed breakers. The second return is true when the
// pick claimed a half-open probe — the forward MUST then resolve the
// breaker (Success, Failure, or Release). Returns nil when nothing is
// routable (brownout).
func (rt *Router) pick(tried map[*backend]bool) (*backend, bool) {
	var avail []*backend
	for _, b := range rt.backends {
		if tried[b] || !b.ready.Load() {
			continue
		}
		if b.breaker.State() == core.BreakerClosed {
			avail = append(avail, b)
			continue
		}
		// Allow claims the single half-open probe; the forward's outcome
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

// forwardAsync starts one tracked attempt goroutine.
func (rt *Router) forwardAsync(ctx context.Context, b *backend, body []byte, hdr http.Header, hedge, probe bool, out chan<- attemptOutcome) {
	rt.reqWG.Add(1)
	go func() {
		defer rt.reqWG.Done()
		res, err := rt.forward(ctx, b, body, hdr, probe)
		out <- attemptOutcome{res: res, hedge: hedge, err: err}
	}()
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
