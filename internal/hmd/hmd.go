// Package hmd implements the baseline hardware malware detector the
// paper builds on: a FANN multi-layer perceptron over per-window
// execution features, with window-level scores aggregated into a
// program-level decision. RHMD (internal/rhmd) and Stochastic-HMD
// (internal/core) are both built from these detectors.
package hmd

import (
	"fmt"

	"shmd/internal/dataset"
	"shmd/internal/fann"
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

	samples, err := TrainingSamples(programs, cfg)
	if err != nil {
		return nil, err
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

// TrainingSamples builds the samples Train fits the network on: every
// window's feature vector, labelled with its program's class (1 for
// malware, 0 for benign), benign windows repeated cfg.BenignOversample
// times.
func TrainingSamples(programs []dataset.TracedProgram, cfg Config) ([]fann.TrainSample, error) {
	cfg = cfg.withDefaults()
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
	return samples, nil
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
// undervolted one, a faults.Replayer to re-execute a recorded draw
// log. This is the integration point internal/core uses.
//
// Every window is one lane of fann.RunBatch on unit lane 0 (see
// scoreLanes), at most 64 per pass: the windows consume the unit's
// stream in window order exactly as one fann.Run per window would, so
// scores, fault streams and draw logs are bit-identical either way.
func (h *HMD) ScoreWindowsUnit(u fxp.BatchUnit, windows []trace.WindowCounts) []float64 {
	return h.scoreLanes(u, make([]float64, 0, len(windows)/h.cfg.Period), windows)
}

// laneScratch is the reusable state of the detector's lane passes:
// scoreLanes' feature arena and packing, and DetectSetUnit's lane ids
// and window scores. Each detector copy owns its scratch
// (WithFreshBuffers), so a serving slot extracts and scores without
// allocating once its buffers have grown.
type laneScratch struct {
	// feat backs one chunk's feature vectors; vecs are their headers
	// in lane order, ids each vector's unit lane.
	feat   []float64
	vecs   [][]float64
	ids    []int
	out    []float64
	scores []float64
}

// laneChunk is the most window lanes one fann.RunBatch (or RunInputs)
// call packs: 64 matches the widest blocked-kernel arena
// (fxp.DotUncheckedBatch's stack arena in Exact.DotRowBatch) and is
// where the per-lane cost bottoms out on the inference bench.
const laneChunk = 64

// scoreLanes scores every decision window of every trace and appends
// the scores to dst, trace-major: each (trace j, window i) pair is one
// packed lane on unit lane j. Lanes are extracted into the scratch
// feature arena and scored laneChunk at a time, one planned pass of bu
// per chunk. A trace's windows repeat its unit lane, so a span-planning
// unit draws the trace's whole fault stream at once, in window order,
// and hands each window its own slice; a trace split across chunks
// continues its stream in the next chunk.
func (h *HMD) scoreLanes(bu fxp.BatchUnit, dst []float64, traces ...[]trace.WindowCounts) []float64 {
	s := &h.lanes
	period, dim := h.cfg.Period, h.fixed.NumInputs()
	if len(s.feat) < laneChunk*dim {
		s.feat = make([]float64, laneChunk*dim)
	}
	s.vecs, s.ids = s.vecs[:0], s.ids[:0]
	score := func() {
		s.out = h.fixed.RunBatch(bu, s.vecs, s.ids, s.out)
		dst = append(dst, s.out...)
		s.vecs, s.ids = s.vecs[:0], s.ids[:0]
	}
	for j, windows := range traces {
		n := len(windows) / period
		if n == 0 {
			// A trace too short for the detection period is a caller bug.
			panic(fmt.Sprintf("hmd: trace %d: %d windows, no complete window at period %d", j, len(windows), period))
		}
		for g := 0; g < n; {
			k := min(n-g, laneChunk-len(s.vecs))
			vecs, err := features.ExtractTo(s.vecs, s.feat[len(s.vecs)*dim:], windows[g*period:(g+k)*period], h.cfg.FeatureSet, period)
			if err != nil {
				panic(fmt.Sprintf("hmd: %v", err))
			}
			s.vecs = vecs
			for range k {
				s.ids = append(s.ids, j)
			}
			if g += k; len(s.vecs) == laneChunk {
				score()
			}
		}
	}
	if len(s.vecs) > 0 {
		score()
	}
	return dst
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

var _ Detector = (*HMD)(nil)
