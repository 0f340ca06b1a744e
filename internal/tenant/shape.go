package tenant

// Rule-matched progressive degradation, in the same idiom as the
// chaos package's fault injectors: an ordered rule table where each
// rule names the classes it shapes, the load threshold that arms it,
// and the action it takes. Rules latch breaker-style — a rule that
// engaged at MinLoad stays engaged until load falls a hysteresis
// margin below it — so the system steps down (and back up) through
// degradation levels instead of flapping at a threshold.

// Action is what an engaged shaping rule does to a matching request.
type Action uint8

const (
	// ActionAllow is the no-op action (no engaged rule matched).
	ActionAllow Action = iota
	// ActionThrottle doubles the request's token cost, halving the
	// class's sustained rate without a hard cliff.
	ActionThrottle
	// ActionShed rejects the request with 429 + jittered Retry-After.
	ActionShed
)

// String names the action for logs and reports.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionThrottle:
		return "throttle"
	case ActionShed:
		return "shed"
	default:
		return "tenant.Action(?)"
	}
}

// Rule is one shaping rule.
type Rule struct {
	// Classes the rule shapes; the zero mask matches every class.
	Classes ClassMask
	// MinLoad is the admission load (0..1+) at which the rule engages.
	MinLoad float64
	// Action applies to matching requests while the rule is engaged.
	Action Action
}

// DefaultRules is the stock degradation ladder: batch throttles at
// 75% admission load, sheds at 90%, and standard joins the shed at
// 97% — realtime is never load-shed, only quota-limited.
var DefaultRules = []Rule{
	{Classes: MaskOf(Batch), MinLoad: 0.75, Action: ActionThrottle},
	{Classes: MaskOf(Batch), MinLoad: 0.90, Action: ActionShed},
	{Classes: MaskOf(Batch, Standard), MinLoad: 0.97, Action: ActionShed},
}

// DefaultHysteresis is how far load must drop below MinLoad before an
// engaged rule releases.
const DefaultHysteresis = 0.15

// Shaper evaluates shaping rules with per-rule latched state. Not
// safe for concurrent use on its own; the Registry serializes calls
// under its lock.
type Shaper struct {
	rules      []Rule
	engaged    []bool
	hysteresis float64
}

// NewShaper builds a Shaper; nil rules selects DefaultRules,
// hysteresis <= 0 selects DefaultHysteresis.
func NewShaper(rules []Rule, hysteresis float64) *Shaper {
	if rules == nil {
		rules = DefaultRules
	}
	if hysteresis <= 0 {
		hysteresis = DefaultHysteresis
	}
	return &Shaper{rules: rules, engaged: make([]bool, len(rules)), hysteresis: hysteresis}
}

// Shape updates every rule's engaged state against the current load
// and returns the strongest action an engaged rule takes on class c.
func (s *Shaper) Shape(c Class, load float64) Action {
	out := ActionAllow
	for i, r := range s.rules {
		if s.engaged[i] {
			if load < r.MinLoad-s.hysteresis {
				s.engaged[i] = false
			}
		} else if load >= r.MinLoad {
			s.engaged[i] = true
		}
		if s.engaged[i] && r.Classes.Has(c) && r.Action > out {
			out = r.Action
		}
	}
	return out
}
