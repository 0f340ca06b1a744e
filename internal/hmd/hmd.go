// Package hmd implements the baseline hardware malware detector the
// paper builds on: a FANN multi-layer perceptron over per-window
// execution features, with window-level scores aggregated into a
// program-level decision. RHMD (internal/rhmd) and Stochastic-HMD
// (internal/core) are both built from these detectors.
package hmd

import (
	"fmt"
	"runtime"
	"sync"

	"shmd/internal/dataset"
	"shmd/internal/fann"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/fxp"
	"shmd/internal/stats"
	"shmd/internal/trace"
)

// Decision is a program-level verdict.
type Decision struct {
	// Malware is the binary verdict.
	Malware bool
	// Score is the mean window score that produced it.
	Score float64
}

// Detector is the interface shared by the baseline HMD, RHMD, and
// Stochastic-HMD. It is also the black-box boundary of the threat
// model: the adversary can observe decisions, never weights.
type Detector interface {
	// ScoreWindows returns per-decision-window malware scores in
	// [0, 1] for a program trace.
	ScoreWindows(windows []trace.WindowCounts) []float64
	// DetectProgram aggregates window scores into a verdict.
	DetectProgram(windows []trace.WindowCounts) Decision
}

// Config configures a baseline HMD.
type Config struct {
	// FeatureSet selects the feature family (default F1).
	FeatureSet features.Set
	// Period is the detection period in base windows (default 1).
	Period int
	// Hidden is the hidden-layer width (default 32).
	Hidden int
	// Epochs bounds training (default 80).
	Epochs int
	// Threshold is the decision threshold on the mean window score
	// (default 0.5).
	Threshold float64
	// Seed drives weight initialization.
	Seed uint64
	// BenignOversample repeats benign training windows to counter the
	// 5:1 malware/benign imbalance of the corpus (default 3).
	BenignOversample int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = features.Period1
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 80
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.BenignOversample == 0 {
		c.BenignOversample = 3
	}
	return c
}

// HMD is a trained baseline detector. Inference runs on the
// fixed-point network (the deployment form); the float network is kept
// for serialization and for white-box uses inside the library.
type HMD struct {
	cfg   Config
	net   *fann.Network
	fixed *fann.FixedNetwork
	lanes laneScratch
}

// Train fits a baseline HMD on the training programs' window features,
// labelling every window with its program's class.
func Train(programs []dataset.TracedProgram, cfg Config) (*HMD, error) {
	cfg = cfg.withDefaults()
	dim, err := cfg.FeatureSet.Dim()
	if err != nil {
		return nil, err
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("hmd: no training programs")
	}
	if cfg.Hidden < 1 || cfg.Epochs < 1 || cfg.BenignOversample < 1 {
		return nil, fmt.Errorf("hmd: invalid config %+v", cfg)
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("hmd: threshold %v outside (0,1)", cfg.Threshold)
	}

	var samples []fann.TrainSample
	for _, p := range programs {
		vecs, err := features.Extract(p.Windows, cfg.FeatureSet, cfg.Period)
		if err != nil {
			return nil, fmt.Errorf("hmd: %s: %w", p.Program.Name, err)
		}
		target := []float64{0}
		repeats := 1
		if p.IsMalware() {
			target = []float64{1}
		} else {
			repeats = cfg.BenignOversample
		}
		for r := 0; r < repeats; r++ {
			for _, v := range vecs {
				samples = append(samples, fann.TrainSample{Input: v, Target: target})
			}
		}
	}

	net, err := fann.New(fann.Config{
		Layers: []int{dim, cfg.Hidden, 1},
		Hidden: fann.SigmoidSymmetric,
		Output: fann.Sigmoid,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := net.Train(samples, fann.TrainOptions{
		MaxEpochs:      cfg.Epochs,
		MinImprovement: 1e-6,
		Patience:       12,
	}); err != nil {
		return nil, err
	}
	return FromNetwork(net, cfg)
}

// FromNetwork wraps an already-trained network as an HMD (used by
// loaders and by RHMD's base-detector constructor).
func FromNetwork(net *fann.Network, cfg Config) (*HMD, error) {
	cfg = cfg.withDefaults()
	dim, err := cfg.FeatureSet.Dim()
	if err != nil {
		return nil, err
	}
	if net.NumInputs() != dim {
		return nil, fmt.Errorf("hmd: network takes %d inputs, feature set %v has %d",
			net.NumInputs(), cfg.FeatureSet, dim)
	}
	if net.NumOutputs() != 1 {
		return nil, fmt.Errorf("hmd: network has %d outputs, want 1", net.NumOutputs())
	}
	fixed, err := net.ToFixed(fxp.DefaultFormat)
	if err != nil {
		return nil, err
	}
	return &HMD{cfg: cfg, net: net, fixed: fixed}, nil
}

// Config returns the detector configuration (defaults resolved).
func (h *HMD) Config() Config { return h.cfg }

// WithFreshBuffers returns a shallow copy of the detector whose
// fixed-point network owns its own scratch buffers. Weights are
// shared read-only; use one copy per goroutine when evaluating in
// parallel.
func (h *HMD) WithFreshBuffers() *HMD {
	c := *h
	c.fixed = h.fixed.Clone()
	c.lanes = laneScratch{}
	return &c
}

// Network returns the underlying float network (for Save and
// inspection).
func (h *HMD) Network() *fann.Network { return h.net }

// Fixed returns the fixed-point deployment network.
func (h *HMD) Fixed() *fann.FixedNetwork { return h.fixed }

// ScoreWindowsUnit scores a trace through an arbitrary multiplier unit
// — fxp.Exact for the nominal detector, a faults.Injector for the
// undervolted one. This is the integration point internal/core uses.
//
// Units with a batch form (see batchForm) score every window as one
// lane of fann.RunBatch on unit lane 0 (see scoreLanes): the windows
// consume the unit's stream in window order exactly as one fann.Run
// per window would, so scores, fault streams and draw logs are
// bit-identical either way. Other units run through fann.Run.
func (h *HMD) ScoreWindowsUnit(u fxp.Unit, windows []trace.WindowCounts) []float64 {
	vecs, err := features.Extract(windows, h.cfg.FeatureSet, h.cfg.Period)
	if err != nil {
		// A trace too short for the detection period is a caller bug.
		panic(fmt.Sprintf("hmd: %v", err))
	}
	bu := batchForm(u)
	if bu == nil {
		scores := make([]float64, len(vecs))
		for i, v := range vecs {
			scores[i] = h.fixed.Run(u, v)[0]
		}
		return scores
	}
	return h.scoreLanes(bu, [][][]float64{vecs})
}

// laneScratch is the reusable packing state of scoreLanes.
type laneScratch struct {
	inputs [][]float64
	ids    []int
	out    []float64
}

// laneChunk is the most window lanes one fann.RunBatch call packs: 64
// matches the widest blocked-kernel arena (fxp.DotUncheckedBatch's
// stack arena in Exact.DotRowBatch) and is where the per-lane cost
// bottoms out on the inference bench.
const laneChunk = 64

// scoreLanes scores every window of every program in one planned pass
// per chunk: each (program j, window i) pair is its own packed lane,
// in program-major order, chunks of at most laneChunk lanes, on unit
// lane j. A program's windows therefore repeat its unit lane, so a
// span-planning unit draws the program's whole fault stream at once, in
// window order, and hands each window its own slice; a program split
// across chunks continues its stream in the next chunk. The returned
// scores are program-major, vecs[0]'s windows first.
func (h *HMD) scoreLanes(u fxp.BatchUnit, vecs [][][]float64) []float64 {
	total := 0
	for _, v := range vecs {
		total += len(v)
	}
	scores := make([]float64, 0, total)
	s := &h.lanes
	inputs, ids := s.inputs[:0], s.ids[:0]
	for j, v := range vecs {
		for _, x := range v {
			inputs = append(inputs, x)
			ids = append(ids, j)
			if len(inputs) == laneChunk {
				s.out = h.fixed.RunBatch(u, inputs, ids, s.out)
				scores = append(scores, s.out...)
				inputs, ids = inputs[:0], ids[:0]
			}
		}
	}
	if len(inputs) > 0 {
		s.out = h.fixed.RunBatch(u, inputs, ids, s.out)
		scores = append(scores, s.out...)
	}
	clear(inputs[:cap(inputs)]) // drop the callers' feature vectors
	s.inputs, s.ids = inputs[:0], ids[:0]
	return scores
}

// batchForm returns the lane-1 batch form of u, or nil when it has
// none: a faults.Injector scores through its one-lane view, and units
// that already implement fxp.BatchUnit (fxp.Exact) score directly.
// The reference and ablation units (BernoulliInjector, TruncatedUnit,
// the replay unit) have no batch form and keep the scalar pass.
func batchForm(u fxp.Unit) fxp.BatchUnit {
	switch u := u.(type) {
	case *faults.Injector:
		return u.BatchView()
	case fxp.BatchUnit:
		return u
	}
	return nil
}

// ScoreWindows implements Detector at nominal voltage.
func (h *HMD) ScoreWindows(windows []trace.WindowCounts) []float64 {
	return h.ScoreWindowsUnit(fxp.Exact{}, windows)
}

// DecideFromScores turns window scores into a program decision using
// the configured threshold on the mean score.
func (h *HMD) DecideFromScores(scores []float64) Decision {
	mean := stats.Mean(scores)
	return Decision{Malware: mean >= h.cfg.Threshold, Score: mean}
}

// DetectProgram implements Detector at nominal voltage.
func (h *HMD) DetectProgram(windows []trace.WindowCounts) Decision {
	return h.DecideFromScores(h.ScoreWindows(windows))
}

// DetectProgramUnit is DetectProgram through an arbitrary multiplier.
func (h *HMD) DetectProgramUnit(u fxp.Unit, windows []trace.WindowCounts) Decision {
	return h.DecideFromScores(h.ScoreWindowsUnit(u, windows))
}

var _ Detector = (*HMD)(nil)

// UnitDetector is a Detector view of an HMD through a fixed multiplier
// unit: fxp.Exact for the nominal path, a faults.Injector for an
// undervolted one. Each UnitDetector owns its scratch buffers, so one
// per goroutine is safe.
type UnitDetector struct {
	h *HMD
	u fxp.Unit
}

// WithUnit pairs a buffer-fresh copy of the detector with u.
func (h *HMD) WithUnit(u fxp.Unit) *UnitDetector {
	return &UnitDetector{h: h.WithFreshBuffers(), u: u}
}

// ScoreWindows implements Detector through the bound unit.
func (d *UnitDetector) ScoreWindows(windows []trace.WindowCounts) []float64 {
	return d.h.ScoreWindowsUnit(d.u, windows)
}

// DetectProgram implements Detector through the bound unit.
func (d *UnitDetector) DetectProgram(windows []trace.WindowCounts) Decision {
	return d.h.DetectProgramUnit(d.u, windows)
}

var _ Detector = (*UnitDetector)(nil)

// ProgramSharder is the optional interface a Detector implements to
// opt into program-sharded evaluation. DetectorForProgram returns an
// independent detector for evaluating program index idx, whose
// stochastic stream (if any) is derived deterministically from the
// parent's seed and idx — never from shared mutable RNG state — so a
// sharded evaluation's result depends only on the seed, not on worker
// count or shard order. Returning nil declines sharding for this call
// (evaluation falls back to the serial path).
type ProgramSharder interface {
	Detector
	DetectorForProgram(idx int) Detector
}

// DetectorForProgram implements ProgramSharder for the deterministic
// baseline: every program gets a buffer-fresh copy of the same
// detector.
func (h *HMD) DetectorForProgram(idx int) Detector {
	return h.WithFreshBuffers()
}

var _ ProgramSharder = (*HMD)(nil)

// Evaluate runs a detector over labelled programs and returns the
// confusion matrix of program-level decisions. Detectors implementing
// BatchSharder are evaluated in lane-batched groups fanned out over
// workers (every window of a batch one lane of a planned pass); detectors
// implementing only ProgramSharder are evaluated in parallel across
// single programs with per-program derived detectors. The result is
// identical for any worker count, including 1.
func Evaluate(d Detector, programs []dataset.TracedProgram) stats.Confusion {
	return EvaluateParallel(d, programs, 0)
}

// EvaluateParallel is Evaluate with an explicit worker count
// (workers <= 0 means GOMAXPROCS). Worker count affects wall-clock
// only, never the result.
func EvaluateParallel(d Detector, programs []dataset.TracedProgram, workers int) stats.Confusion {
	return EvaluateBatch(d, programs, DefaultEvalBatch, workers)
}

// defaultWorkers is the worker count used when callers pass <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// evaluateSharded fans program indices out over workers. Each program
// is scored by its own derived detector, so the verdicts — and hence
// the confusion matrix, whose accumulation is commutative — are a pure
// function of the parent detector's seed.
func evaluateSharded(sharder ProgramSharder, first Detector, programs []dataset.TracedProgram, workers int) stats.Confusion {
	if workers > len(programs) {
		workers = len(programs)
	}
	verdicts := make([]bool, len(programs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				det := first
				if idx != 0 {
					det = sharder.DetectorForProgram(idx)
				}
				verdicts[idx] = det.DetectProgram(programs[idx].Windows).Malware
			}
		}()
	}
	for idx := range programs {
		next <- idx
	}
	close(next)
	wg.Wait()
	var c stats.Confusion
	for i, p := range programs {
		c.Record(verdicts[i], p.IsMalware())
	}
	return c
}
