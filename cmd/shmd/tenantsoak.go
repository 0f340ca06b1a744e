package main

// The tenant-persona soak: one serve instance with multi-tenant QoS
// on, three scripted tenant personas hammering it concurrently, and
// isolation SLOs asserted at the end:
//
//   - steady (realtime): paced traffic well inside its quota. The SLO
//     tenant — zero rate sheds, zero lost requests, p99 latency under
//     the pinned budget, no matter what the other tenants do.
//   - bursty (standard): alternating idle windows and bursts sized to
//     its burst capacity. Well-behaved in aggregate: occasional 429s
//     on burst edges are fine, lost requests are not.
//   - abusive (batch): unpaced hammering at many times its sustained
//     rate, never honoring Retry-After. The isolation proof: most of
//     its traffic sheds 429 (cheap, at admission), and none of the
//     pressure leaks into steady's latency or error budget.
//
// Like the chaos and fleet soaks, the run is seeded end to end and
// writes a machine-readable JSON report for CI artifacts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"shmd/internal/serve"
	"shmd/internal/tenant"
)

// tenantParams are the knobs the tenant soak inherits from the soak
// flag set.
type tenantParams struct {
	duration time.Duration
	pool     int
	rate     float64
	seed     uint64
	deadline time.Duration
	report   string
	model    string
	sloP99   time.Duration
	minShed  float64
	max5xx   float64
}

// persona is one scripted tenant behavior.
type persona struct {
	spec  tenant.Spec
	loops int
	// pace sleeps between requests (steady traffic); zero hammers.
	pace time.Duration
	// burst > 0 sends that many back-to-back requests, then idles.
	burst int
	idle  time.Duration
	// wellBehaved personas must lose nothing: every request answered,
	// client errors zero.
	wellBehaved bool
}

// tenantPersonas is the scripted cast. Quotas are sized relative to
// each persona's offered load, not the machine: steady offers ~half
// its sustained rate, bursty fits its burst capacity, abusive offers
// unbounded load against a small bucket.
func tenantPersonas() []persona {
	return []persona{
		{
			spec:        tenant.Spec{ID: "steady", Class: tenant.Realtime, Rate: 400, Burst: 100},
			loops:       2,
			pace:        10 * time.Millisecond, // 2 × 100/s ≪ 400/s
			wellBehaved: true,
		},
		{
			spec:        tenant.Spec{ID: "bursty", Class: tenant.Standard, Rate: 100, Burst: 60},
			loops:       1,
			burst:       30,
			idle:        250 * time.Millisecond,
			wellBehaved: true,
		},
		{
			spec:  tenant.Spec{ID: "abusive", Class: tenant.Batch, Rate: 20, Burst: 10},
			loops: 2,
		},
	}
}

// personaStats collects one persona's client-side outcomes.
type personaStats struct {
	mu        sync.Mutex
	requests  uint64
	status    map[string]int
	sheds     uint64 // 429s
	clientErr uint64
	latencies []time.Duration // successful (2xx) requests only
}

func (ps *personaStats) record(code int, d time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.requests++
	ps.status[fmt.Sprintf("%dxx", code/100)]++
	if code == http.StatusTooManyRequests {
		ps.sheds++
	}
	if code/100 == 2 {
		ps.latencies = append(ps.latencies, d)
	}
}

// p99 returns the 99th-percentile of the recorded latencies.
func (ps *personaStats) p99() time.Duration {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ps.latencies))
	copy(sorted, ps.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)*99/100]
}

// personaReport is one persona's row in the JSON report.
type personaReport struct {
	Tenant       string         `json:"tenant"`
	Class        string         `json:"class"`
	Requests     uint64         `json:"requests"`
	Status       map[string]int `json:"status"`
	Sheds        uint64         `json:"sheds"`
	ShedFraction float64        `json:"shedFraction"`
	ClientErrors uint64         `json:"clientErrors"`
	P99Ms        float64        `json:"p99Ms"`
}

// tenantSoakReport is the machine-readable tenant soak result.
type tenantSoakReport struct {
	Duration     string          `json:"duration"`
	SLOP99Ms     float64         `json:"sloP99Ms"`
	MinShed      float64         `json:"minAbusiveShedFraction"`
	Personas     []personaReport `json:"personas"`
	TenantSeries int             `json:"tenantSeries"`
	Failures     []string        `json:"failures"`
	Pass         bool            `json:"pass"`
}

// tenantSoakRun boots one multi-tenant serve instance and runs the
// persona cast against it. A non-nil error means an isolation SLO
// broke.
func tenantSoakRun(ctx context.Context, p tenantParams) error {
	base, err := soakModel(p.model)
	if err != nil {
		return err
	}
	personas := tenantPersonas()
	specs := make([]tenant.Spec, len(personas))
	totalLoops := 0
	for i, per := range personas {
		specs[i] = per.spec
		totalLoops += per.loops
	}
	cfg := serve.Config{
		Pool: serve.PoolConfig{
			Size:      p.pool,
			ErrorRate: p.rate,
			Seed:      p.seed,
			Logf:      log.Printf,
		},
		QueueDepth:      4 * totalLoops,
		DefaultDeadline: p.deadline,
		JitterSeed:      int64(p.seed),
		Tenancy:         &tenant.Config{Tenants: specs},
	}
	srv, err := serve.New(base, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serveCtx, ln) }()
	url := "http://" + ln.Addr().String()
	log.Printf("tenant soak: serving on %s (pool %d, %d personas, %s)", ln.Addr(), p.pool, len(personas), p.duration)

	body, err := soakBody(p.seed)
	if err != nil {
		stopServe()
		<-serveDone
		return err
	}

	soakCtx, stopSoak := context.WithTimeout(ctx, p.duration)
	defer stopSoak()

	stats := make([]*personaStats, len(personas))
	var wg sync.WaitGroup
	for i, per := range personas {
		ps := &personaStats{status: map[string]int{}}
		stats[i] = ps
		for l := 0; l < per.loops; l++ {
			wg.Add(1)
			go func(per persona) {
				defer wg.Done()
				client := &http.Client{Timeout: p.deadline + 5*time.Second}
				sent := 0
				for soakCtx.Err() == nil {
					req, err := http.NewRequestWithContext(soakCtx, http.MethodPost, url+"/v1/detect", bytes.NewReader(body))
					if err != nil {
						ps.mu.Lock()
						ps.clientErr++
						ps.mu.Unlock()
						continue
					}
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Tenant", per.spec.ID)
					req.Header.Set("X-Tenant-Class", per.spec.Class.String())
					start := time.Now()
					resp, err := client.Do(req)
					if err != nil {
						if soakCtx.Err() == nil {
							ps.mu.Lock()
							ps.clientErr++
							ps.mu.Unlock()
						}
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ps.record(resp.StatusCode, time.Since(start))
					sent++
					switch {
					case per.pace > 0:
						sleepCtx(soakCtx, per.pace)
					case per.burst > 0 && sent%per.burst == 0:
						sleepCtx(soakCtx, per.idle)
					}
				}
			}(per)
		}
	}
	<-soakCtx.Done()
	wg.Wait()
	stopServe()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("tenant soak: server shutdown: %w", err)
	}

	rep := tenantSoakReport{
		Duration:     p.duration.String(),
		SLOP99Ms:     float64(p.sloP99) / float64(time.Millisecond),
		MinShed:      p.minShed,
		TenantSeries: srv.Metrics().TenantAccepted.Len(),
	}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	for i, per := range personas {
		ps := stats[i]
		ps.mu.Lock()
		row := personaReport{
			Tenant:       per.spec.ID,
			Class:        per.spec.Class.String(),
			Requests:     ps.requests,
			Status:       ps.status,
			Sheds:        ps.sheds,
			ClientErrors: ps.clientErr,
		}
		fxx := ps.status["5xx"]
		ps.mu.Unlock()
		if row.Requests > 0 {
			row.ShedFraction = float64(row.Sheds) / float64(row.Requests)
		}
		row.P99Ms = float64(ps.p99()) / float64(time.Millisecond)
		rep.Personas = append(rep.Personas, row)

		if row.Requests == 0 {
			fail("%s: no requests completed", row.Tenant)
			continue
		}
		if per.wellBehaved {
			// Zero lost requests: every request gets an answer, and 5xx
			// stays inside the same budget the chaos soak enforces.
			if row.ClientErrors != 0 {
				fail("%s: %d lost requests (want 0 for a well-behaved tenant)", row.Tenant, row.ClientErrors)
			}
			if r5 := float64(fxx) / float64(row.Requests); r5 > p.max5xx {
				fail("%s: 5xx rate %.4f exceeds budget %.4f", row.Tenant, r5, p.max5xx)
			}
		}
		switch row.Tenant {
		case "steady":
			if row.Sheds != 0 {
				fail("steady: %d rate sheds (isolation broken: inside-quota tenant was refused)", row.Sheds)
			}
			if p99 := ps.p99(); p99 > p.sloP99 {
				fail("steady: p99 %s exceeds SLO %s", p99, p.sloP99)
			}
		case "abusive":
			if row.ShedFraction < p.minShed {
				fail("abusive: shed fraction %.3f below %.3f (quota not biting)", row.ShedFraction, p.minShed)
			}
			if row.Status["2xx"] == 0 {
				fail("abusive: zero admits (quota should leak its sustained rate, not starve it)")
			}
		}
	}
	rep.Pass = len(rep.Failures) == 0

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.report, append(out, '\n'), 0o644); err != nil {
		return err
	}
	for _, row := range rep.Personas {
		log.Printf("tenant soak: %-7s %5d requests, shed %.3f, p99 %.1fms, %d lost",
			row.Tenant, row.Requests, row.ShedFraction, row.P99Ms, row.ClientErrors)
	}
	if !rep.Pass {
		return fmt.Errorf("tenant soak failed: %v", rep.Failures)
	}
	fmt.Println("tenant soak: PASS")
	return nil
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
