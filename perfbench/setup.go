package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"shmd/internal/attack"
	"shmd/internal/dataset"
	"shmd/internal/experiments"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/trace"
)

// Stream labels of the benchmark's own random draws, each derived from
// the workload seed so one seed fixes every input the program sees.
const (
	labelTrain   = 0xBA5E // baseline training (as experiments.NewEnv)
	labelProxy   = 0xA77  // attacker proxy initialisation
	labelMix     = 0x313  // request mix
	labelSched   = 0x5CED // open-loop arrival times
	labelPool    = 0x9001 // server fault streams
	labelLibrary = 0x11B  // library detectors (sweep phases, cross-check, traced calls)
)

// evadeTargets is how many test-fold malware programs the attacker
// transforms (the quick-scale experiment setting).
const evadeTargets = 30

// item is one program the request mix can carry.
type item struct {
	id      string
	windows []trace.WindowCounts
	// malware is the ground truth; evasive marks crafted samples.
	malware, evasive bool
}

// corpus is everything a workload's set-up produces from its seed.
type corpus struct {
	seed uint64
	test []dataset.TracedProgram
	base *hmd.HMD
	// items lists the test fold first, then the evasive samples.
	items   []item
	nTest   int
	windows int // windows per test-fold program (all equal)
}

// setupTimes are the set-up phase durations of one set-up.
type setupTimes struct {
	generate, train, craft, start, total time.Duration
}

// buildCorpus generates the quick-scale corpus for seed, trains the
// baseline on the victim fold and, when craft is set, crafts the
// evasive set: a proxy reverse-engineered from the baseline's labels
// on the attacker fold, then greedy injection against it.
func buildCorpus(seed uint64, craft bool, tr *tracer, parent uint64, times *setupTimes) (*corpus, error) {
	scale := experiments.Quick(seed)
	var (
		data  *dataset.Dataset
		split dataset.Split
		base  *hmd.HMD
		err   error
	)
	times.generate = tr.timed("dataset.generate", parent, func(uint64) {
		if data, err = dataset.Generate(scale.Dataset); err == nil {
			split, err = data.ThreeFold(0)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	times.train = tr.timed("hmd.train", parent, func(uint64) {
		base, err = hmd.Train(data.Select(split.VictimTrain), hmd.Config{Seed: rng.DeriveSeed(seed, labelTrain, 0)})
	})
	if err != nil {
		return nil, fmt.Errorf("training baseline: %w", err)
	}
	c := &corpus{seed: seed, test: data.Select(split.Test), base: base}
	for i, p := range c.test {
		c.items = append(c.items, item{id: fmt.Sprintf("t%03d", i), windows: p.Windows, malware: p.IsMalware()})
		if c.windows == 0 {
			c.windows = len(p.Windows)
		}
	}
	c.nTest = len(c.items)
	if !craft {
		return c, nil
	}
	times.craft = tr.timed("attack.craft", parent, func(id uint64) {
		var proxy *attack.Proxy
		tr.timed("attack.reverse_engineer", id, func(uint64) {
			proxy, err = attack.ReverseEngineer(base, data.Select(split.AttackerTrain), attack.REConfig{
				Kind:   attack.ProxyMLP,
				Epochs: scale.ProxyEpochs,
				Seed:   rng.DeriveSeed(seed, labelProxy),
			})
		})
		if err != nil {
			return
		}
		targets := data.Select(data.MalwareOf(split.Test)[:evadeTargets])
		var res []attack.EvasionResult
		tr.timed("attack.evade_all", id, func(uint64) {
			res, err = attack.EvadeAll(proxy, targets, attack.EvasionConfig{})
		})
		for i, r := range res {
			c.items = append(c.items, item{id: fmt.Sprintf("e%02d", i), windows: r.Windows, malware: true, evasive: true})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("crafting evasive set: %w", err)
	}
	if len(c.items) == c.nTest {
		return nil, errors.New("crafting evasive set: no sample evaded the proxy")
	}
	return c, nil
}

// evasiveShare is the probability that a program slot of a request
// carries an evasive sample.
const evasiveShare = 0.25

// mixLen is how many distinct requests the seeded mix holds; the
// drivers cycle through it.
const mixLen = 1 << 15

// makeMix draws the request stream from seed: each request carries
// between 1 and maxProgs programs, each evasive with probability
// evasiveShare (when the corpus has an evasive set) and otherwise a
// uniformly drawn test-fold program.
func makeMix(c *corpus, maxProgs int) [][]int {
	r := rng.NewRand(c.seed, labelMix)
	nEvasive := len(c.items) - c.nTest
	out := make([][]int, mixLen)
	for k := range out {
		req := make([]int, 1+r.Intn(maxProgs))
		for j := range req {
			if nEvasive > 0 && r.Float64() < evasiveShare {
				req[j] = c.nTest + r.Intn(nEvasive)
			} else {
				req[j] = r.Intn(c.nTest)
			}
		}
		out[k] = req
	}
	return out
}

// schedRand is the seeded source of one open-loop phase's arrival
// times; phases are told apart by the request offset they start at.
func schedRand(seed uint64, offset int) *rand.Rand {
	return rng.NewRand(seed, labelSched, uint64(offset))
}

// server is an in-process serve.Server on loopback listeners.
type server struct {
	srv      *serve.Server
	httpAddr string
	wireAddr string // empty unless SHMDWIRE is served
	stopHTTP context.CancelFunc
	stopWire context.CancelFunc
	httpDone chan error
	wireDone chan error
}

// startServer builds the server and binds its listeners: HTTP always
// (detect, /metrics, /healthz), SHMDWIRE when withWire is set.
func startServer(base *hmd.HMD, cfg serve.Config, withWire bool, tr *tracer, parent uint64) (*server, error) {
	var (
		srv *serve.Server
		err error
	)
	tr.timed("serve.new", parent, func(uint64) { srv, err = serve.New(base, cfg) })
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, httpDone: make(chan error, 1), wireDone: make(chan error, 1)}
	var ln, wln net.Listener
	tr.timed("serve.listen", parent, func(uint64) {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return
		}
		if withWire {
			if wln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				ln.Close()
			}
		}
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.httpAddr = ln.Addr().String()
	var httpCtx context.Context
	httpCtx, s.stopHTTP = context.WithCancel(context.Background())
	go func() { s.httpDone <- srv.Serve(httpCtx, ln) }()
	if withWire {
		s.wireAddr = wln.Addr().String()
		var wireCtx context.Context
		wireCtx, s.stopWire = context.WithCancel(context.Background())
		go func() { s.wireDone <- srv.ServeWire(wireCtx, wln) }()
	}
	return s, nil
}

// stop drains SHMDWIRE first (its detects need the pool), then HTTP,
// whose shutdown closes the pool, and waits for both to return.
func (s *server) stop() error {
	var errs []error
	if s.stopWire != nil {
		s.stopWire()
		errs = append(errs, <-s.wireDone)
	}
	s.stopHTTP()
	errs = append(errs, <-s.httpDone)
	return errors.Join(errs...)
}
