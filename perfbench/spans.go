package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// request share the request's root span as their ancestor.
type span struct {
	id, parent uint64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory for the traced run. A nil *tracer is
// off: timing still happens, nothing is recorded.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// newID allocates a span id; 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; a no-op when tracing is off.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent and returns its
// duration; fn receives the span's id so it can open children.
func (t *tracer) timed(name string, parent uint64, fn func(id uint64)) time.Duration {
	id := t.newID()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.add(span{id: id, parent: parent, name: name, start: start, end: end})
	return end.Sub(start)
}

// tracedCall records a span around every call.
func tracedCall(tr *tracer, name string, call callFunc) callFunc {
	return func(k int) (windows int, err error) {
		tr.timed(name, 0, func(uint64) { windows, err = call(k) })
		return windows, err
	}
}

// spanSummary is the per-name roll-up of a trace.
type spanSummary struct {
	name        string
	count       int
	total, self time.Duration
}

// summarize rolls spans up by name. A span's self time is its duration
// minus the part of its interval covered by its children.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	var order []string
	for _, s := range spans {
		sum := byName[s.name]
		if sum == nil {
			sum = &spanSummary{name: s.name}
			byName[s.name] = sum
			order = append(order, s.name)
		}
		d := s.end.Sub(s.start)
		sum.count++
		sum.total += d
		sum.self += d - covered(s, children[s.id])
	}
	out := make([]spanSummary, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered is how much of parent's interval the children cover, with
// overlapping children counted once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	cur := parent.start
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// writeSummary prints the roll-up, one span name per line.
func writeSummary(w io.Writer, sums []spanSummary) {
	for _, s := range sums {
		fmt.Fprintf(w, "# span %-32s n=%-7d total=%10.3fms self=%10.3fms mean=%9.3fus\n",
			s.name, s.count, ms(s.total), ms(s.self), float64(s.total)/float64(s.count)/1e3)
	}
}

// medianSpan times fn n times and returns the median duration.
func medianSpan(tr *tracer, name string, n int, fn func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = float64(tr.timed(name, 0, func(uint64) { fn(i) }))
	}
	return time.Duration(median(ds))
}
