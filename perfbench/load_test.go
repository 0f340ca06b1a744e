package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a single-goroutine virtual clock: Sleep advances it by
// the requested time plus a fixed oversleep, and calls advance it by
// their service time.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Microsecond // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   time.Duration
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990 * time.Microsecond, 10, true},
		{999, 0.99, 990 * time.Microsecond, 9, false},
		{1000, 0.999, 999 * time.Microsecond, 1, false},
		{10000, 0.999, 9990 * time.Microsecond, 10, true},
		{3, 0.5, 2 * time.Microsecond, 1, true},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(sample(c.n), c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d q=%v: got %v, %d beyond, ok=%v; want %v, %d beyond, ok=%v",
				c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("median of an empty sample reported")
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ms := time.Millisecond
	sched := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 30 * ms}
	service := []time.Duration{20 * ms, ms / 2, ms / 2, ms / 2, ms / 2}
	st := openLoop(clk, sched, 1, 10*ms, func(k int) (int, error) {
		clk.now = clk.now.Add(service[k])
		return 4, nil
	})
	// Request 0 stalls 20ms; 1..3 were due during the stall and are
	// charged from their due times; 4 is due after the backlog clears.
	want := []time.Duration{20 * ms, 19*ms + ms/2, 19 * ms, 18*ms + ms/2, ms / 2}
	if len(st.lat) != len(want) {
		t.Fatalf("%d latencies, want %d", len(st.lat), len(want))
	}
	for k := range want {
		if st.lat[k] != want[k] {
			t.Errorf("request %d latency %v, want %v", k, st.lat[k], want[k])
		}
	}
	if st.sent != 5 || st.ok != 5 || st.windows != 20 {
		t.Errorf("sent=%d ok=%d windows=%d, want 5, 5, 20", st.sent, st.ok, st.windows)
	}
	// Only request 4, due after the backlog cleared, meets the limit.
	if st.sloOK != 1 {
		t.Errorf("sloOK=%d, want 1 (requests behind the stall miss the limit)", st.sloOK)
	}
	// Request 4 waited for its due time; nothing else slept.
	if len(st.late) != 1 || st.late[0] != 0 {
		t.Errorf("lateness %v, want one zero sample", st.late)
	}
}

func TestOpenLoopLatenessCountsAgainstLatency(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 300 * time.Microsecond}
	ms := time.Millisecond
	st := openLoop(clk, []time.Duration{ms, 2 * ms}, 1, 10*ms, func(int) (int, error) {
		clk.now = clk.now.Add(100 * time.Microsecond)
		return 1, nil
	})
	for i, l := range st.late {
		if l != 300*time.Microsecond {
			t.Errorf("lateness %d = %v, want 300µs", i, l)
		}
	}
	for i, l := range st.lat {
		if l != 400*time.Microsecond {
			t.Errorf("latency %d = %v, want 400µs (oversleep plus service, from the due time)", i, l)
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	st := closedLoop(clk, 10*time.Millisecond, 1, time.Millisecond, func(k int) (int, error) {
		clk.now = clk.now.Add(2 * time.Millisecond)
		if k%2 == 1 {
			return 0, errTest
		}
		return 3, nil
	})
	if st.sent != 5 || st.ok != 3 || st.failed != 2 || st.windows != 9 {
		t.Errorf("sent=%d ok=%d failed=%d windows=%d, want 5, 3, 2, 9", st.sent, st.ok, st.failed, st.windows)
	}
	if st.sloOK != 0 || st.elapsed != 10*time.Millisecond {
		t.Errorf("sloOK=%d elapsed=%v, want 0 and 10ms", st.sloOK, st.elapsed)
	}
}

var errTest = errors.New("refused")

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestInBand(t *testing.T) {
	if ok, _, _ := inBand(300, 1000, 310, 1000); !ok {
		t.Error("0.30 vs 0.31 over 1000 trials each should agree")
	}
	if ok, _, _ := inBand(200, 1000, 310, 1000); ok {
		t.Error("0.20 vs 0.31 over 1000 trials each should disagree")
	}
	if ok, lo, hi := inBand(995, 1000, 1000, 1000); !ok {
		t.Errorf("a library rate of 1 still needs a band, got [%v, %v]", lo, hi)
	}
}
