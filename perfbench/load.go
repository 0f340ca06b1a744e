package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// callFunc sends request k of a phase and waits for its reply. It
// returns the number of windows covered by a valid verdict, or an
// error when the request was refused, failed or its verdict was
// invalid.
type callFunc func(k int) (windows int, err error)

// clock is the time source of the load drivers; tests substitute a
// virtual one so due-time accounting can be checked exactly.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { preciseSleep(d) }

// preciseSleep blocks the calling thread in nanosleep. time.Sleep in a
// mostly idle Go process waits in the network poller, whose timeout
// has millisecond granularity: a sub-millisecond wait overshoots by up
// to a millisecond, and that overshoot would be charged to every
// request's latency. The kernel timer wakes within microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for ts.Sec > 0 || ts.Nsec > 0 {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	sent, ok, failed int64
	// windows counts the windows of validated verdicts.
	windows int64
	// lat holds the latency of every successful request, timed from
	// the moment it was due (open loop) or sent (closed loop).
	lat []time.Duration
	// sloOK counts successful requests within the latency limit.
	sloOK int64
	// late holds how late the generator started each request that
	// found a free sender at its due time.
	late    []time.Duration
	elapsed time.Duration
}

// merge folds o into p (latency samples are concatenated).
func (p *phaseStats) merge(o phaseStats) {
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
	p.windows += o.windows
	p.lat = append(p.lat, o.lat...)
	p.sloOK += o.sloOK
	p.late = append(p.late, o.late...)
	p.elapsed += o.elapsed
}

// record accounts one finished request under mu.
func (p *phaseStats) record(mu *sync.Mutex, windows int, err error, lat, limit time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	p.sent++
	if err != nil {
		p.failed++
		return
	}
	p.ok++
	p.windows += int64(windows)
	p.lat = append(p.lat, lat)
	if lat <= limit {
		p.sloOK++
	}
}

// poissonSchedule returns the due offsets of an open-loop phase:
// Poisson arrivals at rate per second over d, drawn from r.
func poissonSchedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openLoop drives an open-loop phase: request k is due at
// start+sched[k] whatever happened to earlier requests. Each of
// `senders` goroutines (one per client connection) takes the next due
// request, waits for its due time if it is early, and sends it.
// Latency is timed from the due time, so a stalled reply charges every
// request queued behind it. A sender that wakes after the due time
// records the overshoot as generator lateness.
func openLoop(clk clock, sched []time.Duration, senders int, limit time.Duration, call callFunc) phaseStats {
	var (
		st   phaseStats
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := clk.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := start.Add(sched[k])
				if now := clk.Now(); now.Before(due) {
					clk.Sleep(due.Sub(now))
					late := clk.Now().Sub(due)
					mu.Lock()
					st.late = append(st.late, late)
					mu.Unlock()
				}
				windows, err := call(k)
				st.record(&mu, windows, err, clk.Now().Sub(due), limit)
			}
		}()
	}
	wg.Wait()
	st.elapsed = clk.Now().Sub(start)
	return st
}

// closedLoop drives a closed-loop phase: each of `senders` goroutines
// sends its next request as soon as the previous one returns, until d
// has passed. elapsed runs to the last reply.
func closedLoop(clk clock, d time.Duration, senders int, limit time.Duration, call callFunc) phaseStats {
	var (
		st   phaseStats
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := clk.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.Now().Sub(start) < d {
				k := int(next.Add(1) - 1)
				sent := clk.Now()
				windows, err := call(k)
				st.record(&mu, windows, err, clk.Now().Sub(sent), limit)
			}
		}()
	}
	wg.Wait()
	st.elapsed = clk.Now().Sub(start)
	return st
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail figure resting on fewer is an anecdote.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and how
// many samples lie strictly beyond it. ok is false when fewer than
// minBeyond do, in which case the value must not be reported. The
// median of a non-empty sample is always reported.
func percentile(samples []time.Duration, q float64) (v time.Duration, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// The epsilon keeps q*n that should be whole, such as 0.99*1000,
	// from rounding up to the next rank.
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = n - 1 - idx
	return s[idx], beyond, q <= 0.5 || beyond >= minBeyond
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
