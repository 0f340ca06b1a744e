package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// servedSpec describes one served workload.
type servedSpec struct {
	wire bool
	// maxProgs bounds the programs per request.
	maxProgs int
	// loRate and hiRate are the fixed open-loop rates in requests per
	// second. They are absolute on purpose: never rescaled to measured
	// capacity, so parent and change are tested at the same load. On a
	// 2-vCPU VM the high rates are about an eighth (wire-batched) and a
	// fifth (http-scalar) of closed-loop capacity: nearer the knee, the
	// median latency at the high rate rose by 40-60% when another
	// process took one of the two CPUs, so it measured the host's spare
	// capacity more than the program.
	loRate, hiRate float64
	cfg            func(seed uint64) serve.Config
	// scrape, when set, is the cadence at which /healthz is polled
	// during the measured phases; /metrics is scraped every fourth tick.
	scrape time.Duration
}

// wireWindow bounds the SDK stream's requests in flight on the one
// SHMDWIRE connection.
const wireWindow = 32

// The two tenants of http-scalar: different priority classes, with
// buckets far above any rate the benchmark offers, so they never bind.
var httpTenants = []tenant.Spec{
	{ID: "acme", Class: tenant.Realtime, Rate: 1e6, Burst: 1e6},
	{ID: "globex", Class: tenant.Standard, Rate: 1e6, Burst: 1e6},
}

func runWireBatched(env *runEnv) error {
	return runServed(env, servedSpec{
		wire:     true,
		maxProgs: 4,
		loRate:   200,
		hiRate:   350,
		// The cmd/bench serve setting.
		cfg: func(seed uint64) serve.Config {
			return serve.Config{
				Pool:            serve.PoolConfig{Size: 4, ErrorRate: operatingRate, Seed: rng.DeriveSeed(seed, labelPool)},
				QueueDepth:      1024,
				MaxBatch:        16,
				MaxBatchWait:    500 * time.Microsecond,
				ShutdownTimeout: 5 * time.Second,
				JitterSeed:      int64(seed) + 1,
			}
		},
	})
}

func runHTTPScalar(env *runEnv) error {
	return runServed(env, servedSpec{
		maxProgs: 1,
		loRate:   200,
		hiRate:   450,
		scrape:   250 * time.Millisecond,
		// The `shmd serve` defaults: scalar dispatch, queue 2x pool.
		cfg: func(seed uint64) serve.Config {
			return serve.Config{
				Pool:            serve.PoolConfig{Size: 4, ErrorRate: operatingRate, Seed: rng.DeriveSeed(seed, labelPool)},
				ShutdownTimeout: 5 * time.Second,
				JitterSeed:      int64(seed) + 1,
				Tenancy:         &tenant.Config{Tenants: httpTenants},
			}
		},
	})
}

// driver sends the workload's requests over one transport.
type driver interface {
	// open runs an open-loop phase on the Poisson schedule.
	open(sched []time.Duration) phaseStats
	// closed runs a closed-loop phase for d.
	closed(d time.Duration) phaseStats
	close()
}

// httpDriver posts JSON over two keep-alive connections, one sender
// goroutine per connection. Requests carry a single program. Each
// sender writes its request and reads the reply itself with net/http's
// HTTP/1.1 codec (Request.Write, ReadResponse) on a connection it
// holds: http.Transport would add a read and a write goroutine per
// connection, and every request would hop through both, so the
// generator's own scheduling would be measured along with the server.
type httpDriver struct {
	c         *corpus
	mix       [][]int
	t         *tally
	addr, url string
	// conns holds the idle connections; a sender takes one per request.
	conns chan *httpConn
	// tr, when set, records a span around every request.
	tr *tracer
	// bodies are the encoded one-program requests by item, filled after
	// set-up; until then each request is encoded as it is sent.
	bodies [][]byte
	base   int
}

// httpConn is one keep-alive client connection; nil c means it must
// be dialled before use.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

const httpSenders = 2

func newHTTPDriver(c *corpus, mix [][]int, t *tally, addr string) *httpDriver {
	d := &httpDriver{c: c, mix: mix, t: t, addr: addr, url: "http://" + addr + "/v1/detect", conns: make(chan *httpConn, httpSenders)}
	for i := 0; i < httpSenders; i++ {
		d.conns <- &httpConn{}
	}
	return d
}

// encode builds the JSON request carrying item i.
func (d *httpDriver) encode(i int) ([]byte, error) {
	it := d.c.items[i]
	return json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{
		ID: it.id, Windows: serve.EncodeWindows(it.windows),
	}}})
}

// encodeAll pre-encodes every item's request, so the measured phases
// spend no client time on JSON encoding.
func (d *httpDriver) encodeAll() error {
	bodies := make([][]byte, len(d.c.items))
	for i := range bodies {
		var err error
		if bodies[i], err = d.encode(i); err != nil {
			return err
		}
	}
	d.bodies = bodies
	return nil
}

// call posts request k of the current phase and validates the reply.
func (d *httpDriver) call(k int) (int, error) {
	idx := (d.base + k) % mixLen
	sent := d.mix[idx]
	tenantID := httpTenants[idx%len(httpTenants)].ID
	var body []byte
	if d.bodies != nil {
		body = d.bodies[sent[0]]
	} else {
		var err error
		if body, err = d.encode(sent[0]); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenantID)
	hc := <-d.conns
	defer func() { d.conns <- hc }()
	dr, err := hc.roundTrip(d.addr, req)
	if err != nil {
		return 0, err
	}
	if dr.Tenant != tenantID {
		return d.t.invalidReply(fmt.Errorf("reply accounted to tenant %q, sent %q", dr.Tenant, tenantID))
	}
	return d.t.checkVerdicts(d.c, sent, fromServe(dr.Results), true)
}

// roundTrip sends req on the connection, dialling it first if needed,
// and decodes the detect reply. A transport error closes the
// connection so that the next request dials afresh.
func (hc *httpConn) roundTrip(addr string, req *http.Request) (serve.DetectResponse, error) {
	var dr serve.DetectResponse
	if hc.c == nil {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return dr, err
		}
		hc.c, hc.br, hc.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	err := req.Write(hc.bw)
	if err == nil {
		err = hc.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(hc.br, req)
	}
	if err != nil {
		hc.close()
		return dr, err
	}
	defer resp.Body.Close()
	if resp.Close {
		defer hc.close()
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return dr, fmt.Errorf("detect: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		hc.close()
		return dr, fmt.Errorf("detect: decoding reply: %w", err)
	}
	// Drain what the decoder left (the trailing newline) so the next
	// reply starts at the front of the reader.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		hc.close()
		return dr, err
	}
	return dr, nil
}

func (hc *httpConn) close() {
	if hc.c != nil {
		hc.c.Close()
		hc.c = nil
	}
}

// sender is the call the phases drive, with a span around it when
// tracing.
func (d *httpDriver) sender() callFunc {
	if d.tr == nil {
		return d.call
	}
	return tracedCall(d.tr, "http.request", d.call)
}

func (d *httpDriver) open(sched []time.Duration) phaseStats {
	st := openLoop(realClock{}, sched, httpSenders, sloLimit, d.sender())
	d.base += int(st.sent)
	return st
}

func (d *httpDriver) closed(dur time.Duration) phaseStats {
	st := closedLoop(realClock{}, dur, httpSenders, sloLimit, d.sender())
	d.base += int(st.sent)
	return st
}

func (d *httpDriver) close() {
	for i := 0; i < httpSenders; i++ {
		hc := <-d.conns
		hc.close()
		d.conns <- hc
	}
}

// wireDriver pipelines DETECT frames through the SDK's detect stream on
// one SHMDWIRE connection with a bounded in-flight window.
type wireDriver struct {
	c    *corpus
	mix  [][]int
	t    *tally
	cl   *sdk.Client
	tr   *tracer
	base int
	// sample keeps a few served verdicts for the traced codec timings.
	mu     sync.Mutex
	sample []wire.Verdict
}

// request builds the DETECT payload of mix entry idx.
func (d *wireDriver) request(idx int) wire.DetectRequest {
	sent := d.mix[idx%mixLen]
	req := wire.DetectRequest{Programs: make([]wire.DetectProgram, len(sent))}
	for j, i := range sent {
		req.Programs[j] = wire.DetectProgram{ID: d.c.items[i].id, Windows: d.c.items[i].windows}
	}
	return req
}

// check validates the verdict of mix entry idx.
func (d *wireDriver) check(idx int, v wire.Verdict) (int, error) {
	res := make([]result, len(v.Results))
	for i, r := range v.Results {
		res[i] = result{id: r.ID, malware: r.Malware, unprotected: r.Unprotected, score: r.Score,
			confidence: r.Confidence, attempts: int(r.Attempts), windows: int(r.Windows)}
	}
	d.mu.Lock()
	if len(d.sample) < 64 {
		d.sample = append(d.sample, v)
	}
	d.mu.Unlock()
	return d.t.checkVerdicts(d.c, d.mix[idx%mixLen], res, true)
}

// phase runs one stream phase: open loop on sched when it is non-nil,
// otherwise closed loop (the window kept full) for closedFor.
func (d *wireDriver) phase(sched []time.Duration, closedFor time.Duration) phaseStats {
	st := d.cl.DetectStream(context.Background(), wireWindow)
	limit := len(sched)
	if sched == nil {
		limit = mixLen
	}
	starts := make([]time.Time, limit)
	spans := make([]uint64, limit)
	var (
		out  phaseStats
		mu   sync.Mutex
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		for r := range st.Results() {
			k := int(r.Seq - 1)
			windows, err := 0, r.Err
			if err == nil {
				windows, err = d.check(d.base+k, r.Verdict)
			}
			end := time.Now()
			out.record(&mu, windows, err, end.Sub(starts[k]), sloLimit)
			d.tr.add(span{id: spans[k], name: "wire.request", start: starts[k], end: end})
		}
	}()
	begin := time.Now()
	for k := 0; k < limit; k++ {
		if sched != nil {
			due := begin.Add(sched[k])
			if now := time.Now(); now.Before(due) {
				preciseSleep(due.Sub(now))
				late := time.Since(due)
				mu.Lock()
				out.late = append(out.late, late)
				mu.Unlock()
			}
			starts[k] = due
		} else {
			if time.Since(begin) >= closedFor {
				break
			}
			starts[k] = time.Now()
		}
		spans[k] = d.tr.newID()
		if _, err := st.Submit(d.request(d.base + k)); err != nil {
			out.record(&mu, 0, err, 0, sloLimit)
			break
		}
	}
	st.Close()
	<-done
	out.elapsed = time.Since(begin)
	d.base += int(out.sent)
	return out
}

func (d *wireDriver) open(sched []time.Duration) phaseStats { return d.phase(sched, 0) }
func (d *wireDriver) closed(dur time.Duration) phaseStats   { return d.phase(nil, dur) }
func (d *wireDriver) close()                                { d.cl.Close() }

// scraper reads the server's /metrics and /healthz over its own
// connection, as a monitoring system would.
type scraper struct {
	client *http.Client
	base   string
	// failures counts scrapes that did not return 200 or did not parse.
	mu       sync.Mutex
	failures []string
	scrapes  int
}

func newScraper(addr string) *scraper {
	return &scraper{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		base:   "http://" + addr,
	}
}

func (s *scraper) fail(err error) {
	s.mu.Lock()
	s.failures = append(s.failures, err.Error())
	s.mu.Unlock()
}

// get fetches one path and returns its body.
func (s *scraper) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// metrics scrapes and parses /metrics; a failure is recorded and
// yields an empty sample.
func (s *scraper) metrics() promSample {
	s.mu.Lock()
	s.scrapes++
	s.mu.Unlock()
	body, err := s.get("/metrics")
	if err == nil {
		var p promSample
		if p, err = parseProm(bytes.NewReader(body)); err == nil {
			return p
		}
	}
	s.fail(fmt.Errorf("/metrics: %w", err))
	return promSample{}
}

// poll runs the fixed-cadence /healthz and /metrics scrapes until stop
// is closed; the returned channel closes when it has returned.
func (s *scraper) poll(every time.Duration, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := s.get("/healthz"); err != nil {
				s.fail(err)
			}
			if n%4 == 0 {
				s.metrics()
			}
		}
	}()
	return done
}

// served is one set-up of a served workload.
type served struct {
	c   *corpus
	mix [][]int
	srv *server
	drv driver
	// wire is set on the SHMDWIRE workload (the same value as drv).
	wire *wireDriver
	http *httpDriver
}

func (s *served) shutdown() error {
	if s.drv != nil {
		s.drv.close()
	}
	return s.srv.stop()
}

// setupServed performs one whole set-up: corpus, model and evasive set,
// server start, client connection, and the first validated verdict.
func setupServed(env *runEnv, spec servedSpec, st *setupTimes) (*served, error) {
	var (
		out *served
		err error
	)
	start := time.Now()
	env.tr.timed("setup", 0, func(id uint64) {
		var c *corpus
		if c, err = buildCorpus(env.seed, true, env.tr, id, st); err != nil {
			return
		}
		out = &served{c: c, mix: makeMix(c, spec.maxProgs)}
		st.start = env.tr.timed("serve.start", id, func(sid uint64) {
			if out.srv, err = startServer(c.base, spec.cfg(env.seed), spec.wire, env.tr, sid); err != nil {
				return
			}
			first := &tally{}
			if spec.wire {
				var cl *sdk.Client
				if cl, err = sdk.Dial(out.srv.wireAddr, sdk.Options{JitterSeed: int64(env.seed) + 2}); err != nil {
					return
				}
				out.wire = &wireDriver{c: c, mix: out.mix, t: first, cl: cl}
				out.drv = out.wire
				env.tr.timed("first_verdict", sid, func(uint64) {
					var v wire.Verdict
					if v, err = cl.Detect(context.Background(), out.wire.request(0)); err == nil {
						_, err = out.wire.check(0, v)
					}
				})
				return
			}
			out.http = newHTTPDriver(c, out.mix, first, out.srv.httpAddr)
			out.drv = out.http
			env.tr.timed("first_verdict", sid, func(uint64) { _, err = out.http.call(0) })
		})
	})
	st.total = time.Since(start)
	if err != nil && out != nil && out.srv != nil {
		out.shutdown()
	}
	return out, err
}

// runServed is a served workload: rounds of a low-rate open loop, a
// high-rate open loop and a closed loop at saturation, then the
// library cross-check of the defense.
func runServed(env *runEnv, spec servedSpec) error {
	rep := env.rep
	var (
		s     *served
		times []setupTimes
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.shutdown(); err != nil {
				return fmt.Errorf("stopping server: %w", err)
			}
		}
		runtime.GC()
		var st setupTimes
		var err error
		if s, err = setupServed(env, spec, &st); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, st)
	}
	reportSetup(rep, times)
	err := measureServed(env, spec, s)
	if stopErr := s.shutdown(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping server: %w", stopErr)
	}
	return err
}

// measureServed runs the measured phases on a set-up server, then the
// library cross-check and, in the traced run, the layer timings.
func measureServed(env *runEnv, spec servedSpec, s *served) error {
	rep := env.rep
	t := &tally{}
	if s.wire != nil {
		s.wire.t = t
		s.wire.tr = env.tr
	} else {
		s.http.t = t
		s.http.tr = env.tr
		if err := s.http.encodeAll(); err != nil {
			return err
		}
	}
	sc := newScraper(s.srv.httpAddr)
	defer sc.client.CloseIdleConnections()
	deltas := map[string]promSample{}
	around := func(kind string, run func()) {
		before := sc.metrics()
		run()
		if deltas[kind] == nil {
			deltas[kind] = promSample{}
		}
		deltas[kind].add(sc.metrics().delta(before))
	}
	base := 0
	openPhase := func(rate float64) func(d time.Duration) phaseStats {
		return func(d time.Duration) phaseStats {
			base++
			return s.drv.open(poissonSchedule(schedRand(env.seed, base), rate, d))
		}
	}
	phases := []phase{
		{"lo", 0.3, openPhase(spec.loRate)},
		{"hi", 0.3, openPhase(spec.hiRate)},
		{"closed", 0.4, s.drv.closed},
	}
	var stopPoll chan struct{}
	var polled <-chan struct{}
	if spec.scrape > 0 {
		stopPoll = make(chan struct{})
		polled = sc.poll(spec.scrape, stopPoll)
	}
	rep.unmeasured(s.drv.closed(warmup))
	mem0 := memSnapshot()
	rs := runRounds(time.Duration(env.seconds)*time.Second, phases, around)
	mem := memSince(mem0)
	if stopPoll != nil {
		close(stopPoll)
		<-polled
	}
	final := sc.metrics()
	summarizeRounds(rep, rs, "closed")
	finishCommon(rep, t, rs, mem)
	servedCounters(rep, t, deltas, final, spec)
	if len(sc.failures) > 0 {
		rep.problem("%d of the monitoring scrapes failed, first: %s", len(sc.failures), sc.failures[0])
	}
	rep.note("scrapes=%d", sc.scrapes)

	// The defense on the served path, checked untimed against the
	// library at the same operating point.
	libTC, libTN, libEC, libEN, err := libraryRates(s.c)
	if err != nil {
		return fmt.Errorf("library cross-check: %w", err)
	}
	crossCheck(rep, "accuracy", t.testCorrect, t.testN, libTC, libTN)
	crossCheck(rep, "evasive_caught", t.evCaught, t.evN, libEC, libEN)

	if env.tr != nil {
		return servedLayers(env, s, sc)
	}
	return nil
}

// crossCheck fails the run when a served rate falls outside the
// binomial band of the library's rate on the same programs.
func crossCheck(rep *report, what string, k, n, libK, libN int64) {
	ok, lo, hi := inBand(k, n, libK, libN)
	rep.note("cross-check %s served=%d/%d=%.4f library=%d/%d=%.4f band=[%.4f, %.4f]", what, k, n,
		float64(k)/float64(max(n, 1)), libK, libN, float64(libK)/float64(max(libN, 1)), lo, hi)
	if !ok {
		rep.problem("served %s %d/%d outside the library band [%.4f, %.4f]", what, k, n, lo, hi)
	}
}
