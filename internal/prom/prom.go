// Package prom is a small metrics registry rendered in the Prometheus
// text exposition format (version 0.0.4). It has typed counters,
// gauges and fixed-bound histograms, label vectors with a built-in
// series cap, and scrape-time families whose values are read from a
// component. One Write renders every family: HELP and TYPE lines,
// sorted series, and label values escaped to the spec.
//
// Updates are lock-free atomics; a vector takes its lock to find or add
// a series. Register every family before the first Write.
package prom

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Other is the label value a capped vector folds new series into once
// it holds its limit.
const Other = "other"

// Family types, as rendered on TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// maxLabels bounds a vector's label count, so a series key is a
// fixed-size array and looking one up allocates nothing.
const maxLabels = 3

// Labels are a series' label values, in the vector's label order.
type Labels [maxLabels]string

// Registry holds metric families in registration order.
type Registry struct {
	fams []family
}

// family renders its samples after its HELP and TYPE lines.
type family interface {
	appendTo(b []byte) []byte
}

// desc names a family and its labels.
type desc struct {
	name, help, typ string
	labels          []string
}

func (d *desc) appendHeader(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, d.name...)
	b = append(b, ' ')
	b = append(b, d.help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, d.name...)
	b = append(b, ' ')
	b = append(b, d.typ...)
	return append(b, '\n')
}

// appendSeries writes `name{l1="v1",...,extra="x"} `: the series up to
// its value. extra is the histogram bucket's le label ("" for none).
func appendSeries(b []byte, name string, labels []string, values []string, extra string) []byte {
	b = append(b, name...)
	if len(labels) > 0 || extra != "" {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
			b = append(b, `="`...)
			b = appendEscaped(b, values[i])
			b = append(b, '"')
		}
		if extra != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, extra...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendEscaped writes a label value as the text format defines it:
// backslash, double quote and newline are escaped, and invalid UTF-8
// becomes U+FFFD. Every other byte passes through.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch c {
			case '\\':
				b = append(b, `\\`...)
			case '"':
				b = append(b, `\"`...)
			case '\n':
				b = append(b, `\n`...)
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			b = utf8.AppendRune(b, utf8.RuneError)
		} else {
			b = append(b, s[i:i+n]...)
		}
		i += n
	}
	return b
}

// appendFloat writes a sample value: integral values as integers,
// others in Go's shortest %g form (+Inf, -Inf and NaN included).
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Write renders every family in the text exposition format. A vector
// with no series renders nothing, not even its header.
func (r *Registry) Write(w io.Writer) error {
	var b []byte
	for _, f := range r.fams {
		b = f.appendTo(b)
	}
	_, err := w.Write(b)
	return err
}

// sample is a metric that renders its own sample lines for one series.
type sample interface {
	appendSamples(b []byte, d *desc, values []string) []byte
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) appendSamples(b []byte, d *desc, values []string) []byte {
	b = appendSeries(b, d.name, d.labels, values, "")
	b = strconv.AppendUint(b, c.Value(), 10)
	return append(b, '\n')
}

// Gauge is an integer level that moves both ways.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) appendSamples(b []byte, d *desc, values []string) []byte {
	b = appendSeries(b, d.name, d.labels, values, "")
	b = strconv.AppendInt(b, g.Value(), 10)
	return append(b, '\n')
}

// Histogram counts observations into fixed buckets. Observations are
// integers in a base unit (nanoseconds for a seconds histogram); the
// bounds and the rendered sum are in base units divided by the scale.
type Histogram struct {
	scale  float64
	bounds []float64
	les    []string
	counts []atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sum    atomic.Uint64   // base units
}

func newHistogram(scale float64, bounds []float64) *Histogram {
	h := &Histogram{scale: scale, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	for _, le := range bounds {
		h.les = append(h.les, strconv.FormatFloat(le, 'g', -1, 64))
	}
	return h
}

// Observe records one observation of v base units.
func (h *Histogram) Observe(v int64) {
	x := float64(v) / h.scale
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(uint64(v))
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	n := uint64(0)
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reads the sum of observations in base units.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

func (h *Histogram) appendSamples(b []byte, d *desc, values []string) []byte {
	// _count is the +Inf bucket, so the two agree even while a scrape
	// races an Observe.
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.les) {
			le = h.les[i]
		}
		b = appendSeries(b, d.name+"_bucket", d.labels, values, le)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSeries(b, d.name+"_sum", d.labels, values, "")
	b = appendFloat(b, float64(h.Sum())/h.scale)
	b = append(b, '\n')
	b = appendSeries(b, d.name+"_count", d.labels, values, "")
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}

// scalar is an unlabelled family of one metric.
type scalar struct {
	desc
	m sample
}

func (s *scalar) appendTo(b []byte) []byte {
	return s.m.appendSamples(s.appendHeader(b), &s.desc, nil)
}

func (r *Registry) register(f family) { r.fams = append(r.fams, f) }

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.register(&scalar{desc{name, help, TypeCounter, nil}, c})
	return c
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.register(&scalar{desc{name, help, TypeGauge, nil}, g})
	return g
}

// Histogram registers an unlabelled histogram with the given upper
// bounds (ascending, +Inf implied) in base units divided by scale.
func (r *Registry) Histogram(name, help string, scale float64, bounds ...float64) *Histogram {
	h := newHistogram(scale, bounds)
	r.register(&scalar{desc{name, help, TypeHistogram, nil}, h})
	return h
}

// Vec is a family of series of one metric type keyed by label values.
// A capped vector holds at most limit series; past that, a new label
// set folds into the series whose every label is Other.
type Vec[T any] struct {
	desc
	newSeries func() *T
	limit     int
	overflow  *Counter

	mu     sync.Mutex
	series map[Labels]*T
}

// CounterVec is a vector of counters.
type CounterVec = Vec[Counter]

// HistogramVec is a vector of histograms sharing one set of bounds.
type HistogramVec = Vec[Histogram]

func newVec[T any](r *Registry, d desc, newSeries func() *T) *Vec[T] {
	if len(d.labels) == 0 || len(d.labels) > maxLabels {
		panic("prom: " + d.name + ": a vector takes 1 to 3 labels")
	}
	v := &Vec[T]{desc: d, newSeries: newSeries, series: make(map[Labels]*T)}
	r.register(v)
	return v
}

// CounterVec registers a vector of counters.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return newVec(r, desc{name, help, TypeCounter, labels}, func() *Counter { return new(Counter) })
}

// HistogramVec registers a vector of histograms (see Histogram for the
// bounds and scale).
func (r *Registry) HistogramVec(name, help string, scale float64, bounds []float64, labels ...string) *HistogramVec {
	return newVec(r, desc{name, help, TypeHistogram, labels}, func() *Histogram { return newHistogram(scale, bounds) })
}

// Cap limits the vector to limit series, not counting the Other series
// that absorbs the rest. Each fold into Other counts on overflow.
func (v *Vec[T]) Cap(limit int, overflow *Counter) *Vec[T] {
	v.limit, v.overflow = limit, overflow
	return v
}

// With returns the series for the label values, creating it on first
// use (or folding it into Other past the cap).
func (v *Vec[T]) With(values ...string) *T {
	s, _ := v.resolve(values)
	return s
}

// Fold returns the label values a series is recorded under, creating
// it like With: the values themselves, or Other in every position once
// the cap folded them. A second vector keyed by the same leading labels
// records under these to fold exactly the same series.
func (v *Vec[T]) Fold(values ...string) Labels {
	_, k := v.resolve(values)
	return k
}

// Len reports how many series the vector holds, Other included.
func (v *Vec[T]) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.series)
}

func (v *Vec[T]) resolve(values []string) (*T, Labels) {
	if len(values) != len(v.labels) {
		panic("prom: " + v.name + ": wrong number of label values")
	}
	var k Labels
	copy(k[:], values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.series[k]; s != nil {
		return s, k
	}
	if v.limit > 0 && len(v.series) >= v.limit {
		if v.overflow != nil {
			v.overflow.Inc()
		}
		for i := range v.labels {
			k[i] = Other
		}
		if s := v.series[k]; s != nil {
			return s, k
		}
	}
	s := v.newSeries()
	v.series[k] = s
	return s, k
}

func (v *Vec[T]) appendTo(b []byte) []byte {
	type row struct {
		k Labels
		s *T
	}
	v.mu.Lock()
	rows := make([]row, 0, len(v.series))
	for k, s := range v.series {
		rows = append(rows, row{k, s})
	}
	v.mu.Unlock()
	if len(rows) == 0 {
		return b
	}
	sort.Slice(rows, func(i, j int) bool {
		a, c := rows[i].k, rows[j].k
		for n := range a {
			if a[n] != c[n] {
				return a[n] < c[n]
			}
		}
		return false
	})
	b = v.appendHeader(b)
	for i := range rows {
		b = any(rows[i].s).(sample).appendSamples(b, &v.desc, rows[i].k[:len(v.labels)])
	}
	return b
}

// Column is one scrape-time family: a value read from each row a
// component reports.
type Column[R any] struct {
	Name, Help, Type string
	Value            func(R) float64
}

// funcFamilies renders one family per column from one read of rows.
type funcFamilies[R any] struct {
	label string
	key   func(R) string
	cols  []Column[R]
	rows  func() []R
}

// Func registers one family per column, read from a component at
// scrape time. rows runs once per Write, so every column renders the
// same reading of the component. label names the row label and key
// gives each row's value; with label "" the families are unlabelled
// and rows should return one row. Rows render in the order returned.
func Func[R any](r *Registry, label string, key func(R) string, cols []Column[R], rows func() []R) {
	r.register(&funcFamilies[R]{label, key, cols, rows})
}

func (f *funcFamilies[R]) appendTo(b []byte) []byte {
	rows := f.rows()
	var labels []string
	if f.label != "" {
		labels = []string{f.label}
	}
	keys := make([]string, len(rows))
	if f.key != nil {
		for i, row := range rows {
			keys[i] = f.key(row)
		}
	}
	for _, c := range f.cols {
		d := desc{c.Name, c.Help, c.Type, labels}
		b = d.appendHeader(b)
		for i, row := range rows {
			b = appendSeries(b, c.Name, labels, keys[i:i+1], "")
			b = appendFloat(b, c.Value(row))
			b = append(b, '\n')
		}
	}
	return b
}

// Itoa formats n as a label value. Values 0-999 (status codes, model
// versions) come from a table, so the hot path does not allocate.
func Itoa(n int) string {
	if n >= 0 && n < len(small) {
		return small[n]
	}
	return strconv.Itoa(n)
}

var small = func() (t [1000]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()
