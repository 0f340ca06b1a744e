package trace

import (
	"fmt"
	"math"
	"math/rand"

	"shmd/internal/isa"
	"shmd/internal/rng"
)

// Trace geometry defaults: 16 windows of 4096 instructions gives the
// ~64k-instruction executions the per-program decision aggregates, and
// lets the two RHMD detection periods (4096 and 8192) share one trace.
const (
	DefaultWindows    = 16
	DefaultWindowSize = 4096
	// StrideBuckets is the size of the memory-stride histogram.
	StrideBuckets = 8
)

// Behaviour-model calibration. These constants set how separable the
// synthetic classes are and how much behaviour varies between programs
// of a family and between windows of a program. They are tuned so the
// baseline HMD reaches the paper's ≈93% program-level accuracy regime
// with an MLP reverse-engineering effectiveness near 99% (Fig 3
// baseline bars).
const (
	familyTilt    = 1.1  // strength of a family's signature emphasis
	programJitter = 0.50 // per-program log-normal mixture jitter
	benignJitter  = 0.85 // benign corpus is a "wide variety" — more diverse
	windowJitter  = 0.32 // per-window log-normal mixture jitter
	phaseTiltVar  = 0.40 // how far a phase tilts from the program mean
)

// phase is one execution phase: an opcode mixture plus branch and
// memory behaviour.
type phase struct {
	mix       [isa.NumOpcodes]float64
	takenRate float64
	strideMix [StrideBuckets]float64
}

// Program is a deterministic synthetic program. Equal (class, index,
// corpus seed) triples produce byte-identical traces.
type Program struct {
	ID    int
	Name  string
	Class Class

	seed        uint64
	phases      []phase
	transitions [][]float64 // phase Markov chain, rows sum to 1
}

// WindowCounts is the raw per-window measurement the Pin-like tracer
// produces: per-opcode instruction counts plus the branch and memory
// side-channels the F2/F3 feature vectors summarize.
type WindowCounts struct {
	// Opcode counts per catalog entry; sums to the window size.
	Opcode [isa.NumOpcodes]int
	// Taken counts taken branches (out of the branch instructions
	// present in Opcode).
	Taken int
	// Stride histograms the load/store address deltas into buckets
	// (0 = sequential ... StrideBuckets-1 = random far).
	Stride [StrideBuckets]int
}

// Total returns the instruction count of the window.
func (w *WindowCounts) Total() int {
	total := 0
	for _, n := range w.Opcode {
		total += n
	}
	return total
}

// Branches returns the number of branch instructions in the window.
func (w *WindowCounts) Branches() int {
	total := 0
	for _, ins := range isa.Catalog() {
		if ins.Branch {
			total += w.Opcode[ins.Opcode]
		}
	}
	return total
}

// MemOps returns the number of load/store instructions in the window.
func (w *WindowCounts) MemOps() int {
	total := 0
	for _, ins := range isa.Catalog() {
		if ins.Load || ins.Store {
			total += w.Opcode[ins.Opcode]
		}
	}
	return total
}

// baseMixture is the background opcode usage shared by all programs: a
// Zipf-flavoured profile over the catalog with the usual suspects
// (mov/add/cmp/jcc/push/pop) dominating, as in any x86 profile.
func baseMixture() [isa.NumOpcodes]float64 {
	var mix [isa.NumOpcodes]float64
	weight := func(mnemonic string, w float64) {
		ins, err := isa.ByMnemonic(mnemonic)
		if err != nil {
			panic(err)
		}
		mix[ins.Opcode] = w
	}
	// Dominant general-purpose profile.
	weight("mov", 24)
	weight("push", 7)
	weight("pop", 6)
	weight("add", 7)
	weight("sub", 4)
	weight("cmp", 8)
	weight("test", 4)
	weight("jcc", 10)
	weight("jmp", 3)
	weight("call", 3.5)
	weight("ret", 3.5)
	weight("lea", 4)
	weight("and", 1.8)
	weight("or", 1.4)
	weight("xor", 2.5)
	weight("shl", 1.0)
	weight("shr", 1.0)
	weight("movzx", 1.6)
	weight("inc", 1.2)
	weight("nop", 1.5)
	weight("imul", 0.8)
	// Everything else gets a small floor so no opcode has zero
	// probability (features stay dense).
	for i := range mix {
		if mix[i] == 0 {
			mix[i] = 0.15
		}
	}
	return normalize(mix)
}

// familySignature returns the opcode emphasis of a class: the
// behavioural signature that makes the family detectable. Weights are
// multiplicative tilts applied on top of the base mixture.
func familySignature(c Class) map[string]float64 {
	switch c {
	case Benign:
		// Benign corpus: browsers, editors, system tools, benchmarks —
		// mild emphasis on FP/SIMD and address arithmetic.
		return map[string]float64{
			"fadd": 1.8, "fmul": 1.8, "fld": 1.8, "mulps": 1.6,
			"movdqa": 1.6, "lea": 1.3, "paddd": 1.4,
		}
	case Backdoor:
		// Remote-shell behaviour: system calls, I/O waits, dispatch.
		return map[string]float64{
			"syscall": 6, "in": 5, "out": 5, "int": 4, "hlt": 3,
			"jmp": 1.6, "cmp": 1.3,
		}
	case Rogue:
		// Fake-AV UI churn: heavy call/ret and stack traffic.
		return map[string]float64{
			"call": 2.2, "ret": 2.2, "push": 1.8, "pop": 1.8,
			"movsreg": 3, "pushf": 3,
		}
	case PasswordStealer:
		// Memory scanning for credentials: string scans and loads.
		return map[string]float64{
			"scas": 8, "cmps": 7, "lods": 6,
			"movzx": 2, "xlat": 4, "bt": 2.5,
		}
	case Trojan:
		// Packed/encrypted payloads: crypto arithmetic.
		return map[string]float64{
			"xor": 3.5, "rol": 6, "shl": 2.5, "shr": 2.5,
			"mul": 5, "imul": 3, "not": 4, "bswap": 5,
		}
	case Worm:
		// Self-replication: bulk copies and network/system calls.
		return map[string]float64{
			"movs": 8, "stos": 7, "syscall": 4, "out": 4,
			"rdrand": 5,
		}
	default:
		return nil
	}
}

// normalize scales a mixture to sum to 1.
func normalize(mix [isa.NumOpcodes]float64) [isa.NumOpcodes]float64 {
	total := 0.0
	for _, w := range mix {
		total += w
	}
	if total == 0 {
		panic("trace: zero mixture")
	}
	for i := range mix {
		mix[i] /= total
	}
	return mix
}

// jitterMixture applies log-normal multiplicative noise with the given
// sigma and renormalizes.
func jitterMixture(mix [isa.NumOpcodes]float64, sigma float64, r *rand.Rand) [isa.NumOpcodes]float64 {
	for i := range mix {
		mix[i] *= math.Exp(sigma * r.NormFloat64())
	}
	return normalize(mix)
}

// NewProgram synthesizes program #index of a class under a corpus
// seed. The construction is deterministic.
func NewProgram(c Class, index int, corpusSeed uint64) (*Program, error) {
	if c < 0 || int(c) >= NumClasses {
		return nil, fmt.Errorf("trace: invalid class %d", int(c))
	}
	if index < 0 {
		return nil, fmt.Errorf("trace: negative program index %d", index)
	}
	seed := rng.DeriveSeed(corpusSeed, uint64(c)+1, uint64(index)+1)
	r := rng.NewRand(seed, 0x9009)

	// Program mean mixture: base, tilted by the family signature, then
	// per-program jitter.
	mean := baseMixture()
	for mnemonic, tilt := range familySignature(c) {
		ins, err := isa.ByMnemonic(mnemonic)
		if err != nil {
			continue // signature names not in the catalog are ignored
		}
		mean[ins.Opcode] *= math.Pow(tilt, familyTilt)
	}
	mean = normalize(mean)
	sigma := programJitter
	if c == Benign {
		sigma = benignJitter
	}
	mean = jitterMixture(mean, sigma, r)

	// Phases: 2..4 tilts of the program mean with distinct branch and
	// memory behaviour.
	nPhases := 2 + r.Intn(3)
	p := &Program{
		ID:    index,
		Name:  fmt.Sprintf("%s-%04d", c, index),
		Class: c,
		seed:  seed,
	}
	for i := 0; i < nPhases; i++ {
		ph := phase{
			mix:       jitterMixture(mean, phaseTiltVar, r),
			takenRate: 0.35 + 0.4*r.Float64(),
		}
		locality := r.Float64() // 0 = random access, 1 = sequential
		total := 0.0
		for b := 0; b < StrideBuckets; b++ {
			// Geometric decay toward far strides, steeper when local.
			ph.strideMix[b] = math.Exp(-float64(b) * (0.3 + 2.2*locality))
			total += ph.strideMix[b]
		}
		for b := range ph.strideMix {
			ph.strideMix[b] /= total
		}
		p.phases = append(p.phases, ph)
	}

	// Markov transitions: sticky diagonal with random escape mass.
	p.transitions = make([][]float64, nPhases)
	for i := range p.transitions {
		row := make([]float64, nPhases)
		stay := 0.55 + 0.3*r.Float64()
		if nPhases == 1 {
			stay = 1
		}
		row[i] = stay
		rest := 1 - stay
		for j := range row {
			if j != i {
				row[j] = rest / float64(nPhases-1)
			}
		}
		p.transitions[i] = row
	}
	return p, nil
}

// IsMalware reports the program's label.
func (p *Program) IsMalware() bool { return p.Class.IsMalware() }
