package conform

import (
	"fmt"
	"math"
)

// Wald's sequential probability ratio test, used by the conformance
// suite to hold end-to-end detection rates to their pinned golden
// values without a fixed (and wastefully conservative) sample size.
//
// A single wald tests H0: p = p0 against H1: p = p1 by accumulating
// the log-likelihood ratio one Bernoulli observation at a time and
// stopping at Wald's boundaries ln((1-beta)/alpha) (accept H1) and
// ln(beta/(1-alpha)) (accept H0); those boundaries bound the type-I
// error by alpha and the type-II error by beta regardless of when the
// walk stops. RateCheck composes two of them symmetrically around p0
// so a drift in either direction is caught.

// Status is the state of a sequential test.
type Status int

const (
	// Continue means neither boundary has been crossed yet.
	Continue Status = iota
	// AcceptNull means the data supports the pinned rate p0.
	AcceptNull
	// RejectNull means the data supports the alternative (a drifted
	// rate): the implementation no longer conforms.
	RejectNull
)

// wald is one one-sided SPRT of p0 against p1.
type wald struct {
	llr          float64
	lSucc, lFail float64 // per-observation LLR increments
	upper, lower float64 // accept-H1 / accept-H0 boundaries
	done         Status
}

func newWald(p0, p1, alpha, beta float64) *wald {
	return &wald{
		lSucc: math.Log(p1 / p0),
		lFail: math.Log((1 - p1) / (1 - p0)),
		upper: math.Log((1 - beta) / alpha),
		lower: math.Log(beta / (1 - alpha)),
	}
}

func (w *wald) observe(success bool) Status {
	if w.done != Continue {
		return w.done
	}
	if success {
		w.llr += w.lSucc
	} else {
		w.llr += w.lFail
	}
	if w.llr >= w.upper {
		w.done = RejectNull
	} else if w.llr <= w.lower {
		w.done = AcceptNull
	}
	return w.done
}

// RateCheck is a two-sided sequential conformance check of a Bernoulli
// rate against a pinned value p0: two Wald SPRTs test p0 against
// p0+delta and p0-delta. The check rejects as soon as either side
// accepts its alternative, and accepts when both sides have accepted
// the null. Delta is the indifference region half-width — drifts
// smaller than delta are tolerated by design (they are within the
// run-to-run variation the paper's figures quote).
type RateCheck struct {
	p0, delta, alpha float64
	up, down         *wald
	n, successes     int
}

// NewRateCheck builds the two-sided check. alpha and beta bound the
// per-side false-alarm and miss probabilities; the two-sided
// false-alarm probability is at most 2*alpha.
func NewRateCheck(p0, delta, alpha, beta float64) (*RateCheck, error) {
	if p0-delta <= 0 || p0+delta >= 1 {
		return nil, fmt.Errorf("conform: rate check needs (p0±delta) in (0,1), got p0=%v delta=%v", p0, delta)
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("conform: alpha=%v beta=%v outside (0,1)", alpha, beta)
	}
	return &RateCheck{
		p0: p0, delta: delta, alpha: alpha,
		up:   newWald(p0, p0+delta, alpha, beta),
		down: newWald(p0, p0-delta, alpha, beta),
	}, nil
}

// Observe feeds one Bernoulli trial. It returns RejectNull the moment
// either side concludes the rate drifted, AcceptNull once both sides
// have concluded it did not, and Continue otherwise.
func (c *RateCheck) Observe(success bool) Status {
	c.n++
	if success {
		c.successes++
	}
	u := c.up.observe(success)
	d := c.down.observe(success)
	if u == RejectNull || d == RejectNull {
		return RejectNull
	}
	if u == AcceptNull && d == AcceptNull {
		return AcceptNull
	}
	return Continue
}

// N returns the number of observations fed so far.
func (c *RateCheck) N() int { return c.n }

// UpCheck is a one-sided sequential drift check: a single Wald SPRT of
// H0: p = p0 against H1: p = p1 with p1 > p0. RejectNull means the
// rate drifted up to (at least) p1; AcceptNull means the data supports
// p0. It exists for rates pinned at a boundary — a success rate near 0
// (or, mirrored by the caller, near 1) leaves no room below p0 for the
// two-sided RateCheck's down test, but an upward drift is still the
// failure mode worth catching (the serve canary uses it to compare a
// candidate model's verdict stream against an incumbent that almost
// never, or almost always, fires).
type UpCheck struct {
	w            *wald
	n, successes int
}

// NewUpCheck builds the one-sided check. Requires 0 < p0 < p1 < 1;
// alpha bounds the false-alarm probability, beta the miss probability.
func NewUpCheck(p0, p1, alpha, beta float64) (*UpCheck, error) {
	if !(p0 > 0 && p0 < p1 && p1 < 1) {
		return nil, fmt.Errorf("conform: up check needs 0 < p0 < p1 < 1, got p0=%v p1=%v", p0, p1)
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("conform: alpha=%v beta=%v outside (0,1)", alpha, beta)
	}
	return &UpCheck{w: newWald(p0, p1, alpha, beta)}, nil
}

// Observe feeds one Bernoulli trial: RejectNull once the walk supports
// the drifted rate p1, AcceptNull once it supports p0, Continue before
// either boundary is crossed.
func (c *UpCheck) Observe(success bool) Status {
	c.n++
	if success {
		c.successes++
	}
	return c.w.observe(success)
}

// N returns the number of observations fed so far.
func (c *UpCheck) N() int { return c.n }

// Rate returns the observed success rate.
func (c *UpCheck) Rate() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.successes) / float64(c.n)
}

// Rate returns the observed success rate.
func (c *RateCheck) Rate() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.successes) / float64(c.n)
}

// Result packages the check's state. A walk still in Continue when the
// caller's sample budget ran out passes: Wald's bounds guarantee a
// rate drifted by at least delta would have been rejected with
// probability >= 1-beta within the budget (the budget must be sized
// above the expected sample number, roughly ln(beta/(1-alpha)) /
// E[llr increment] ≈ 2·ln(1/alpha)·p0(1-p0)/delta² trials).
func (c *RateCheck) Result(name string, status Status) Result {
	r := Result{
		Name:  name,
		Stat:  c.Rate(),
		Alpha: 2 * c.alpha,
		N:     c.n,
		Pass:  status != RejectNull,
	}
	switch status {
	case AcceptNull:
		r.Detail = fmt.Sprintf("accepted p0=%g after %d trials (rate %.4f)", c.p0, c.n, c.Rate())
	case RejectNull:
		r.Detail = fmt.Sprintf("rejected p0=%g: observed %.4f, indifference ±%g", c.p0, c.Rate(), c.delta)
	default:
		r.Detail = fmt.Sprintf("budget exhausted at %d trials inside indifference region (rate %.4f)", c.n, c.Rate())
	}
	return r
}
