package tenant

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock: bucket refill becomes pure
// arithmetic, so every quota assertion below is exact.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func reg(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTokenBucketDeterministic(t *testing.T) {
	clk := newFakeClock()
	r := reg(t, Config{
		Tenants: []Spec{{ID: "acme", Class: Standard, Rate: 2, Burst: 4}},
		Now:     clk.now,
	})
	// The bucket starts full: exactly Burst admissions succeed.
	for i := 0; i < 4; i++ {
		a := r.Admit("acme", 0)
		if !a.OK() {
			t.Fatalf("admission %d: %v", i, a.Outcome)
		}
		a.Release()
	}
	if a := r.Admit("acme", 0); a.Outcome != ShedRate {
		t.Fatalf("drained bucket admitted: %v", a.Outcome)
	}
	// 1.5s at 2 tokens/s refills exactly 3.
	clk.advance(1500 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if a := r.Admit("acme", 0); !a.OK() {
			t.Fatalf("refill admission %d: %v", i, a.Outcome)
		}
	}
	if a := r.Admit("acme", 0); a.Outcome != ShedRate {
		t.Fatalf("over-refill admitted: %v", a.Outcome)
	}
	// Refill caps at Burst no matter how long the idle gap.
	clk.advance(time.Hour)
	admitted := 0
	for {
		a := r.Admit("acme", 0)
		if !a.OK() {
			break
		}
		admitted++
		if admitted > 10 {
			t.Fatal("bucket refilled past burst")
		}
	}
	if admitted != 4 {
		t.Fatalf("after idle gap admitted %d, want burst 4", admitted)
	}
}

func TestConcurrencyCap(t *testing.T) {
	r := reg(t, Config{Tenants: []Spec{{ID: "acme", Class: Realtime, MaxInFlight: 2}}})
	a1, a2 := r.Admit("acme", 0), r.Admit("acme", 0)
	if !a1.OK() || !a2.OK() {
		t.Fatalf("under-cap admissions failed: %v %v", a1.Outcome, a2.Outcome)
	}
	if a := r.Admit("acme", 0); a.Outcome != ShedConcurrency {
		t.Fatalf("over-cap admitted: %v", a.Outcome)
	}
	a1.Release()
	a1.Release() // idempotent
	if a := r.Admit("acme", 0); !a.OK() {
		t.Fatalf("post-release admission failed: %v", a.Outcome)
	}
	if got := r.tenants["acme"].inflight; got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
}

func TestUnknownAndDefaultTenants(t *testing.T) {
	// Strict registry: unknown identity and anonymous traffic reject.
	strict := reg(t, Config{Tenants: []Spec{{ID: "acme", Class: Standard}}})
	if a := strict.Admit("ghost", 0); a.Outcome != Unknown {
		t.Fatalf("unknown tenant: %v", a.Outcome)
	}
	if a := strict.Admit("", 0); a.Outcome != Unknown || a.Tenant != AnonymousID {
		t.Fatalf("anonymous on strict registry: %+v", a)
	}
	// Open registry: unknown IDs register from the Default template,
	// each with its own bucket.
	open := reg(t, Config{
		Default:   &Spec{Class: Batch, Rate: 1, Burst: 1},
		Anonymous: &Spec{Class: Batch, Rate: 1, Burst: 2},
	})
	if a := open.Admit("fresh", 0); !a.OK() || a.Class != Batch || a.Tenant != "fresh" {
		t.Fatalf("defaulted tenant: %+v", a)
	}
	if a := open.Admit("fresh", 0); a.Outcome != ShedRate {
		t.Fatalf("defaulted tenant second draw: %v", a.Outcome)
	}
	if a := open.Admit("other", 0); !a.OK() {
		t.Fatalf("separate defaulted tenant shares a bucket: %v", a.Outcome)
	}
	if a := open.Admit("", 0); !a.OK() || a.Tenant != AnonymousID {
		t.Fatalf("anonymous on open registry: %+v", a)
	}
}

// TestShaperLadder walks the default degradation ladder up and down
// and pins the breaker-style hysteresis: each rule engages at its
// threshold and releases only a margin below it.
func TestShaperLadder(t *testing.T) {
	s := NewShaper(nil, 0)
	steps := []struct {
		load     float64
		batch    Action
		standard Action
		realtime Action
	}{
		{0.10, ActionAllow, ActionAllow, ActionAllow},
		{0.80, ActionThrottle, ActionAllow, ActionAllow},
		{0.92, ActionShed, ActionAllow, ActionAllow},
		{0.98, ActionShed, ActionShed, ActionAllow},
		// Hysteresis: 0.85 is below both shed thresholds but above
		// their release points (0.90-0.15 and 0.97-0.15), so both
		// sheds stay latched.
		{0.85, ActionShed, ActionShed, ActionAllow},
		// 0.80 < 0.82 releases the standard shed; batch shed (0.90)
		// needs < 0.75 so it stays; batch throttle stays engaged.
		{0.80, ActionShed, ActionAllow, ActionAllow},
		{0.70, ActionThrottle, ActionAllow, ActionAllow},
		// Batch shed releases below 0.75; throttle needs < 0.60.
		{0.55, ActionAllow, ActionAllow, ActionAllow},
	}
	for i, st := range steps {
		if got := s.Shape(Batch, st.load); got != st.batch {
			t.Fatalf("step %d load %.2f: batch %v, want %v", i, st.load, got, st.batch)
		}
		if got := s.Shape(Standard, st.load); got != st.standard {
			t.Fatalf("step %d load %.2f: standard %v, want %v", i, st.load, got, st.standard)
		}
		if got := s.Shape(Realtime, st.load); got != st.realtime {
			t.Fatalf("step %d load %.2f: realtime %v, want %v", i, st.load, got, st.realtime)
		}
	}
}

// TestShedPressureDoesNotDrainBucket: a load-shed request must not
// spend the tenant's tokens — the server is loaded, not the tenant.
func TestShedPressureDoesNotDrainBucket(t *testing.T) {
	r := reg(t, Config{Tenants: []Spec{{ID: "b", Class: Batch, Rate: 1, Burst: 1}}})
	if a := r.Admit("b", 0.95); a.Outcome != ShedPressure {
		t.Fatalf("batch at 0.95 load: %v", a.Outcome)
	}
	if a := r.Admit("b", 0); !a.OK() {
		t.Fatalf("bucket drained by a pressure shed: %v", a.Outcome)
	}
}

// TestThrottleDoublesCost: an engaged throttle rule halves the
// sustained rate by charging two tokens per admission.
func TestThrottleDoublesCost(t *testing.T) {
	r := reg(t, Config{Tenants: []Spec{{ID: "b", Class: Batch, Rate: 1, Burst: 4}}})
	// Load 0.80 engages the batch throttle rule: 4 tokens = 2 admissions.
	for i := 0; i < 2; i++ {
		if a := r.Admit("b", 0.80); !a.OK() {
			t.Fatalf("throttled admission %d: %v", i, a.Outcome)
		}
	}
	if a := r.Admit("b", 0.80); a.Outcome != ShedRate {
		t.Fatalf("throttled bucket should be dry: %v", a.Outcome)
	}
}

func TestParseSpecAndClass(t *testing.T) {
	spec, err := ParseSpec("acme:realtime:200:400:16:4")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{ID: "acme", Class: Realtime, Rate: 200, Burst: 400, MaxInFlight: 16, Stride: 4}
	if spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}
	if spec, err = ParseSpec("b:batch"); err != nil || spec.Class != Batch || spec.Rate != 0 {
		t.Fatalf("short spec: %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "acme", ":realtime", "acme:vip", "acme:batch:fast"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if c, err := ParseClass("realtime"); err != nil || c != Realtime {
		t.Fatalf("ParseClass realtime: %v %v", c, err)
	}
	if _, err := ParseClass("vip"); err == nil {
		t.Fatal("ParseClass vip accepted")
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" {
			t.Fatalf("class %d has no name", c)
		}
	}
}
