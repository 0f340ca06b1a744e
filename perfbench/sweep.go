package main

import (
	"fmt"
	"runtime"
	"time"

	"shmd/internal/core"
	"shmd/internal/experiments"
	"shmd/internal/rng"
)

// sweepRates are the error rates of the sweep workload's Fig 2(a)
// sweep; sweepAccuracyRate is the one whose accuracy is reported.
var sweepRates = []float64{0, 0.05, 0.1, 0.2}

const sweepAccuracyRate = 0.1

// Fixed open-loop rates of the sweep's library phases, in programs per
// second: mostly lone detections, and about a fifth of what two
// supervised library sessions score back to back on a 2-vCPU VM; at
// 2000/s a slow host pushed the median into queueing. The rates are
// absolute on purpose: a faster parent must be tested at the same load
// as the change.
const (
	sweepLoRate = 200
	sweepHiRate = 1200
)

// libSenders is how many requests the library phases run at a time,
// each on its own supervisor: one per processor of a 2-vCPU host, like
// the two HTTP connections of http-scalar.
const libSenders = 2

// libDriver serves the sweep's open-loop phases straight from the
// library: one core.Supervisor per sender, as a pool slot would hold.
type libDriver struct {
	c    *corpus
	mix  [][]int
	t    *tally
	sups chan *core.Supervisor
	base int
}

func newLibDriver(c *corpus, t *tally) (*libDriver, error) {
	d := &libDriver{c: c, mix: makeMix(c, 1), t: t, sups: make(chan *core.Supervisor, libSenders)}
	for w := 0; w < cap(d.sups); w++ {
		det, err := core.New(c.base.WithFreshBuffers(), core.Options{
			ErrorRate: operatingRate,
			Seed:      rng.DeriveSeed(c.seed, labelLibrary, 0x5A, uint64(w)),
		})
		if err != nil {
			return nil, err
		}
		sup, err := core.NewSupervisor(det, core.SupervisorConfig{})
		if err != nil {
			return nil, err
		}
		d.sups <- sup
	}
	return d, nil
}

// call scores request k of the current phase on a free supervisor.
func (d *libDriver) call(k int) (int, error) {
	sent := d.mix[(d.base+k)%mixLen]
	it := d.c.items[sent[0]]
	sup := <-d.sups
	v, err := sup.DetectProgram(it.windows)
	d.sups <- sup
	if err != nil {
		return 0, err
	}
	return d.t.checkVerdicts(d.c, sent, []result{fromVerdict(it, v)}, false)
}

// open runs one open-loop phase at rate.
func (d *libDriver) open(rate float64, dur time.Duration, call callFunc) phaseStats {
	st := openLoop(realClock{}, poissonSchedule(schedRand(d.c.seed, d.base), rate, dur), libSenders, sloLimit, call)
	d.base += int(st.sent)
	return st
}

// runSweep is the sweep workload: repeated Fig 2(a) sweeps for
// throughput, then library detections at the fixed low and high rates.
func runSweep(env *runEnv) error {
	rep := env.rep
	var (
		c     *corpus
		lib   *libDriver
		times []setupTimes
	)
	for i := 0; i < setups; i++ {
		runtime.GC()
		var st setupTimes
		var err error
		start := time.Now()
		env.tr.timed("setup", 0, func(id uint64) {
			if c, err = buildCorpus(env.seed, false, env.tr, id, &st); err != nil {
				return
			}
			if lib, err = newLibDriver(c, &tally{}); err != nil {
				return
			}
			_, err = lib.call(0)
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st.total = time.Since(start)
		times = append(times, st)
	}
	reportSetup(rep, times)

	t := &tally{}
	lib.t = t
	repeats := experiments.Quick(env.seed).SweepRepeats
	sweepSeed := rng.DeriveSeed(env.seed, labelLibrary, 0xF2A)
	sweepWindows := len(sweepRates) * repeats * c.nTest * c.windows
	ref, err := core.AccuracySweep(c.base, c.test, sweepRates, repeats, sweepSeed)
	if err != nil {
		return err
	}
	if err := checkExactPoint(c.base, c, ref); err != nil {
		rep.problem("%v", err)
	}
	for _, p := range ref {
		if p.ErrorRate == sweepAccuracyRate {
			rep.e2e["accuracy"] = p.Accuracy.Mean
		}
	}

	sweepCall := func(int) (int, error) {
		pts, err := core.AccuracySweep(c.base, c.test, sweepRates, repeats, sweepSeed)
		if err == nil {
			err = checkSweep(ref, pts)
		}
		if err != nil {
			rep.problem("%v", err)
			return 0, err
		}
		return sweepWindows, nil
	}
	rawSweep, libCall := sweepCall, lib.call
	if env.tr != nil {
		sweepCall = tracedCall(env.tr, "sweep.call", sweepCall)
		libCall = tracedCall(env.tr, "library.request", libCall)
	}
	phases := []phase{
		{"sweep", 0.5, func(d time.Duration) phaseStats {
			return closedLoop(realClock{}, d, 1, time.Hour, sweepCall)
		}},
		{"lo", 0.25, func(d time.Duration) phaseStats { return lib.open(sweepLoRate, d, libCall) }},
		{"hi", 0.25, func(d time.Duration) phaseStats { return lib.open(sweepHiRate, d, libCall) }},
	}
	rep.unmeasured(closedLoop(realClock{}, warmup, libSenders, sloLimit, lib.call))
	mem0 := memSnapshot()
	rs := runRounds(time.Duration(env.seconds)*time.Second, phases, nil)
	mem := memSince(mem0)
	summarizeRounds(rep, rs, "sweep")
	finishCommon(rep, t, rs, mem)
	if env.tr != nil {
		return sweepLayers(env, c, rawSweep)
	}
	return nil
}
