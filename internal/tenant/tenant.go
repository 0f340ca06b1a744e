// Package tenant is the multi-tenant QoS layer for the serving tier:
// a registry of tenants with priority classes, deterministic token
// buckets, per-tenant concurrency caps, and rule-matched progressive
// degradation under load.
//
// The Registry answers whether this tenant may send this request now,
// with a token-bucket draw (sustained Rate, capacity Burst), a
// concurrency cap, and the load-shaping rules — all deterministic
// given an injected clock, so isolation properties are assertable in
// tests without sleeping. When an admitted request runs is the serving
// layer's business: its dispatcher binds pending work to pool slots by
// Class, highest priority first (realtime before standard before
// batch).
//
// Degradation is progressive, borrowing the chaos package's
// rule-matched injector idiom: shaping Rules fire by priority class
// as the admission load crosses their thresholds, with breaker-style
// hysteresis so the system does not flap at a boundary — first batch
// traffic is throttled (its bucket drains twice as fast), then batch
// is shed outright, then standard too; realtime is only ever refused
// by its own bucket or the hard queue bound.
package tenant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Class is a tenant's priority class. Higher values take a pool slot
// first under saturation; the zero value is the lowest priority so an unspecified
// class never outranks a configured one.
type Class uint8

const (
	// Batch is best-effort traffic: first throttled, first shed.
	Batch Class = iota
	// Standard is the default interactive class.
	Standard
	// Realtime is latency-critical traffic: dequeues first, shed only
	// by its own quota or a full queue.
	Realtime
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// String names the class (the metrics label and wire advisory value).
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Standard:
		return "standard"
	case Realtime:
		return "realtime"
	default:
		return fmt.Sprintf("tenant.Class(%d)", uint8(c))
	}
}

// ParseClass parses a class name as it appears in config and wire
// metadata.
func ParseClass(s string) (Class, error) {
	switch s {
	case "batch":
		return Batch, nil
	case "standard":
		return Standard, nil
	case "realtime":
		return Realtime, nil
	default:
		return Standard, fmt.Errorf("tenant: unknown class %q (want realtime, standard, or batch)", s)
	}
}

// ClassMask selects classes for a shaping rule. The zero mask matches
// every class.
type ClassMask uint8

// MaskOf builds a mask matching exactly the given classes.
func MaskOf(classes ...Class) ClassMask {
	var m ClassMask
	for _, c := range classes {
		m |= 1 << c
	}
	return m
}

// Has reports whether the mask matches c (zero mask matches all).
func (m ClassMask) Has(c Class) bool {
	return m == 0 || m&(1<<c) != 0
}

// Spec configures one tenant.
type Spec struct {
	// ID is the tenant identity as it appears in the X-Tenant header
	// and wire metadata/tags.
	ID string
	// Class is the tenant's priority class.
	Class Class
	// Rate is the sustained admission rate in requests per second.
	// <= 0 means unlimited (no bucket).
	Rate float64
	// Burst is the bucket capacity; <= 0 defaults to max(1, Rate).
	Burst float64
	// MaxInFlight caps the tenant's concurrently admitted requests;
	// <= 0 means uncapped.
	MaxInFlight int
	// Stride is the tenant's default sliding-window re-detection
	// stride for wire streams, in windows; <= 0 selects the server
	// default (the model's detection period).
	Stride int
}

// burst returns the effective bucket capacity.
func (s Spec) burst() float64 {
	if s.Burst > 0 {
		return s.Burst
	}
	return math.Max(1, s.Rate)
}

// ParseSpec parses the CLI form "id:class[:rate[:burst[:conc[:stride]]]]",
// e.g. "acme:realtime:200:400:16:4". Empty positions keep defaults.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || parts[0] == "" {
		return Spec{}, fmt.Errorf("tenant: spec %q: want id:class[:rate[:burst[:conc[:stride]]]]", s)
	}
	spec := Spec{ID: parts[0]}
	var err error
	if spec.Class, err = ParseClass(parts[1]); err != nil {
		return Spec{}, fmt.Errorf("tenant: spec %q: %w", s, err)
	}
	num := func(i int, what string, dst *float64) error {
		if len(parts) <= i || parts[i] == "" {
			return nil
		}
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil {
			return fmt.Errorf("tenant: spec %q: bad %s %q", s, what, parts[i])
		}
		*dst = v
		return nil
	}
	if err := num(2, "rate", &spec.Rate); err != nil {
		return Spec{}, err
	}
	if err := num(3, "burst", &spec.Burst); err != nil {
		return Spec{}, err
	}
	var conc, stride float64
	if err := num(4, "concurrency cap", &conc); err != nil {
		return Spec{}, err
	}
	if err := num(5, "stride", &stride); err != nil {
		return Spec{}, err
	}
	spec.MaxInFlight = int(conc)
	spec.Stride = int(stride)
	return spec, nil
}

// Config configures a Registry.
type Config struct {
	// Tenants are the statically registered tenants.
	Tenants []Spec
	// Default, when non-nil, is the spec template auto-registered for
	// tenant IDs the registry has not seen (its ID field is ignored).
	// Nil makes unknown tenants a hard reject (HTTP 403).
	Default *Spec
	// Anonymous, when non-nil, is the spec that accounts requests
	// carrying no tenant identity (registered under the ID
	// "anonymous"). Nil rejects unidentified requests.
	Anonymous *Spec
	// Rules are the progressive-degradation shaping rules; nil
	// selects DefaultRules.
	Rules []Rule
	// Hysteresis is how far load must fall below a rule's threshold
	// before the rule disengages; <= 0 defaults to 0.15.
	Hysteresis float64
	// Now is the clock; nil selects time.Now. Tests inject a virtual
	// clock to make bucket refill deterministic.
	Now func() time.Time
}

// AnonymousID is the accounting label for requests with no identity.
const AnonymousID = "anonymous"

// Outcome classifies one admission attempt.
type Outcome uint8

const (
	// Admitted: the request may proceed to dispatch.
	Admitted Outcome = iota
	// ShedRate: the tenant's token bucket is empty (429).
	ShedRate
	// ShedConcurrency: the tenant's in-flight cap is reached (429).
	ShedConcurrency
	// ShedPressure: a shaping rule shed this class under load (429).
	ShedPressure
	// Unknown: the tenant is not registered and no Default spec
	// exists (403).
	Unknown
)

// String names the outcome (the shed-reason metrics label).
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case ShedRate:
		return "rate"
	case ShedConcurrency:
		return "concurrency"
	case ShedPressure:
		return "pressure"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("tenant.Outcome(%d)", uint8(o))
	}
}

// Admission is the result of Registry.Admit. When OK, the caller owns
// one unit of the tenant's in-flight budget and must Release it.
type Admission struct {
	// Tenant is the resolved accounting identity (AnonymousID when the
	// request carried none).
	Tenant string
	// Class is the tenant's authoritative priority class.
	Class Class
	// Stride is the tenant's sliding-window stride default.
	Stride int
	// Outcome classifies the decision; OK() is Outcome == Admitted.
	Outcome Outcome

	release func()
	once    sync.Once
}

// OK reports whether the request was admitted.
func (a *Admission) OK() bool { return a.Outcome == Admitted }

// Release returns the tenant's in-flight unit. Safe to call more than
// once and on rejected admissions.
func (a *Admission) Release() {
	if a.release != nil {
		a.once.Do(a.release)
	}
}

// state is one tenant's live accounting.
type state struct {
	spec     Spec
	tokens   float64
	last     time.Time
	inflight int
}

// Registry tracks tenants and answers admission questions. Safe for
// concurrent use; all time flows through the injected clock so the
// bucket math is deterministic under test.
type Registry struct {
	mu      sync.Mutex
	now     func() time.Time
	def     *Spec
	anon    *Spec
	shaper  *Shaper
	tenants map[string]*state
}

// NewRegistry builds a Registry from cfg.
func NewRegistry(cfg Config) (*Registry, error) {
	r := &Registry{
		now:     cfg.Now,
		def:     cfg.Default,
		anon:    cfg.Anonymous,
		shaper:  NewShaper(cfg.Rules, cfg.Hysteresis),
		tenants: make(map[string]*state, len(cfg.Tenants)),
	}
	if r.now == nil {
		r.now = time.Now
	}
	for _, spec := range cfg.Tenants {
		if spec.ID == "" {
			return nil, fmt.Errorf("tenant: registered spec with empty id")
		}
		if _, dup := r.tenants[spec.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate spec for %q", spec.ID)
		}
		r.tenants[spec.ID] = &state{spec: spec, tokens: spec.burst(), last: r.now()}
	}
	return r, nil
}

// resolve returns the tenant's state, auto-registering from the
// Default/Anonymous templates when allowed. Callers hold r.mu.
func (r *Registry) resolve(id string) *state {
	if id == "" {
		if r.anon == nil {
			return nil
		}
		id = AnonymousID
		if st, ok := r.tenants[id]; ok {
			return st
		}
		spec := *r.anon
		spec.ID = id
		st := &state{spec: spec, tokens: spec.burst(), last: r.now()}
		r.tenants[id] = st
		return st
	}
	if st, ok := r.tenants[id]; ok {
		return st
	}
	if r.def == nil {
		return nil
	}
	spec := *r.def
	spec.ID = id
	st := &state{spec: spec, tokens: spec.burst(), last: r.now()}
	r.tenants[id] = st
	return st
}

// Lookup resolves id without charging anything: the tenant's class
// and stride config, or Unknown. It auto-registers like Admit so a
// stream open and its appends agree on config.
func (r *Registry) Lookup(id string) *Admission {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.resolve(id)
	if st == nil {
		return &Admission{Tenant: labelFor(id), Outcome: Unknown}
	}
	return &Admission{Tenant: st.spec.ID, Class: st.spec.Class, Stride: st.spec.Stride, Outcome: Admitted}
}

// labelFor is the accounting label for an unresolvable identity.
func labelFor(id string) string {
	if id == "" {
		return AnonymousID
	}
	return id
}

// Admit runs the full tenant-QoS decision for one request: shaping
// rules at the given admission load (0..1+), then the token bucket,
// then the concurrency cap. On success the returned Admission holds
// one in-flight unit until Release.
func (r *Registry) Admit(id string, load float64) *Admission {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.resolve(id)
	if st == nil {
		return &Admission{Tenant: labelFor(id), Outcome: Unknown}
	}
	adm := &Admission{Tenant: st.spec.ID, Class: st.spec.Class, Stride: st.spec.Stride}

	// Progressive degradation first: a shed class does not drain its
	// bucket (the tenant is not misbehaving — the server is loaded).
	action := r.shaper.Shape(st.spec.Class, load)
	if action == ActionShed {
		adm.Outcome = ShedPressure
		return adm
	}

	// Token bucket, charged before the concurrency check so an
	// over-cap burst still spends quota (holding a request open is
	// not a way to bank tokens).
	if st.spec.Rate > 0 {
		now := r.now()
		if dt := now.Sub(st.last).Seconds(); dt > 0 {
			st.tokens = math.Min(st.spec.burst(), st.tokens+dt*st.spec.Rate)
		}
		st.last = now
		cost := 1.0
		if action == ActionThrottle {
			// Throttled classes drain double: half the sustained rate
			// without a hard cliff.
			cost = 2.0
		}
		if st.tokens < cost {
			adm.Outcome = ShedRate
			return adm
		}
		st.tokens -= cost
	}

	if st.spec.MaxInFlight > 0 && st.inflight >= st.spec.MaxInFlight {
		adm.Outcome = ShedConcurrency
		return adm
	}
	st.inflight++
	adm.release = func() {
		r.mu.Lock()
		st.inflight--
		r.mu.Unlock()
	}
	return adm
}
