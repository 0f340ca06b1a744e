package prom

import (
	"bytes"
	"testing"
)

// TestWrite pins the rendering of every family kind: header lines,
// sorted vector series, cumulative buckets with _count equal to the
// +Inf bucket, integer and %g values, and scrape-time columns.
func TestWrite(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "A counter.")
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	r.Gauge("g", "A gauge.").Dec()
	h := r.Histogram("h_seconds", "A histogram.", 1e9, 0.001, 0.01)
	h.Observe(500_000)
	h.Observe(2_000_000)
	h.Observe(50_000_000)
	v := r.CounterVec("v_total", "A vector.", "code", "kind")
	v.With("500", "b").Inc()
	v.With("200", "a").Inc()
	v.With("200", "a").Inc()
	r.CounterVec("empty_total", "Never used.", "x")
	Func(&r, "slot", func(i int) string { return Itoa(i) }, []Column[int]{
		{Name: "f", Help: "A column.", Type: TypeGauge, Value: func(i int) float64 { return float64(i) + 0.5 }},
	}, func() []int { return []int{0, 1} })

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g A gauge.
# TYPE g gauge
g -1
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.001"} 1
h_seconds_bucket{le="0.01"} 2
h_seconds_bucket{le="+Inf"} 3
h_seconds_sum 0.0525
h_seconds_count 3
# HELP v_total A vector.
# TYPE v_total counter
v_total{code="200",kind="a"} 2
v_total{code="500",kind="b"} 1
# HELP f A column.
# TYPE f gauge
f{slot="0"} 0.5
f{slot="1"} 1.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if h.Count() != 3 || h.Sum() != 52_500_000 {
		t.Errorf("histogram count/sum = %d/%d, want 3/52500000", h.Count(), h.Sum())
	}
}

// TestEscape pins label-value escaping to the text format: only
// backslash, quote and newline are escaped, invalid UTF-8 becomes
// U+FFFD, and everything else passes through.
func TestEscape(t *testing.T) {
	for in, want := range map[string]string{
		"plain":        "plain",
		`a"b`:          `a\"b`,
		`a\b`:          `a\\b`,
		"a\nb":         `a\nb`,
		"a\tb":         "a\tb",
		"café":         "café",
		"a\xffb":       "a�b",
		"\xe2\x82":     "��",
		"\u2028\x00ok": "\u2028\x00ok",
	} {
		if got := string(appendEscaped(nil, in)); got != want {
			t.Errorf("escape(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCapFolds pins the series cap: past the limit a new label set
// folds into Other in every position, each fold counts on overflow,
// Fold reports the labels a series landed under, and existing series
// keep their own.
func TestCapFolds(t *testing.T) {
	var r Registry
	overflow := r.Counter("overflow_total", "Folds.")
	v := r.CounterVec("t_total", "Capped.", "tenant", "class").Cap(2, overflow)
	v.With("a", "x").Inc()
	v.With("b", "y").Inc()
	v.With("c", "x").Inc()
	if l := v.Fold("d", "y"); l != (Labels{Other, Other}) {
		t.Errorf("Fold past the cap = %q, want other/other", l)
	}
	v.With("a", "x").Inc()
	if l := v.Fold("b", "y"); l != (Labels{"b", "y"}) {
		t.Errorf("Fold of an existing series = %q", l)
	}
	if got := v.Len(); got != 3 {
		t.Errorf("series = %d, want 3 (two plus other)", got)
	}
	if got := v.With(Other, Other).Value(); got != 1 {
		t.Errorf("other = %d, want 1", got)
	}
	if got := v.With("a", "x").Value(); got != 2 {
		t.Errorf("a = %d, want 2", got)
	}
	if got := overflow.Value(); got != 2 {
		t.Errorf("overflow = %d, want 2", got)
	}
}

// TestFuncReadsOnce: every column of a scrape-time family renders one
// reading of the component.
func TestFuncReadsOnce(t *testing.T) {
	var r Registry
	reads := 0
	col := func(name string) Column[int] {
		return Column[int]{Name: name, Help: "x", Type: TypeGauge, Value: func(i int) float64 { return float64(i) }}
	}
	Func(&r, "", nil, []Column[int]{col("a"), col("b"), col("c")}, func() []int {
		reads++
		return []int{reads}
	})
	var buf bytes.Buffer
	r.Write(&buf)
	if reads != 1 {
		t.Errorf("rows read %d times in one scrape, want 1", reads)
	}
	if want := "a 1\n"; !bytes.Contains(buf.Bytes(), []byte(want)) || !bytes.Contains(buf.Bytes(), []byte("c 1\n")) {
		t.Errorf("columns disagree on the reading:\n%s", buf.String())
	}
}

// TestUpdatesDoNotAllocate: the per-request updates (a counter, a
// labelled series found by status code or by three labels, a
// histogram observation) allocate nothing once the series exists.
func TestUpdatesDoNotAllocate(t *testing.T) {
	var r Registry
	c := r.Counter("c", "x")
	codes := r.CounterVec("codes", "x", "code")
	three := r.CounterVec("three", "x", "a", "b", "c")
	h := r.Histogram("h", "x", 1e9, 0.001, 0.01)
	tenant := string([]byte("tenant-1"))
	codes.With(Itoa(429)).Inc()
	three.With(tenant, "batch", "rate").Inc()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		codes.With(Itoa(429)).Inc()
		three.With(tenant, "batch", "rate").Inc()
		h.Observe(1234)
	})
	if allocs != 0 {
		t.Errorf("allocs per update = %v, want 0", allocs)
	}
}
