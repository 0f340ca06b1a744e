// Package features turns raw per-window trace measurements into the
// feature vectors HMDs consume.
//
// Three feature-vector families are implemented, matching the RHMD
// construction space the paper evaluates against (RHMD-2F/3F randomize
// across feature vectors, 2F2P/3F2P additionally across detection
// periods):
//
//	F1 — instruction-frequency features: the per-opcode execution
//	     frequencies over a window (the paper's primary features,
//	     "frequency of executed instruction categories");
//	F2 — memory-reference features: load/store densities and the
//	     stride-locality histogram;
//	F3 — architectural features: branch, call, and category-level
//	     execution behaviour.
//
// A detection period aggregates consecutive base windows before
// extraction, giving the 2P constructions their second observation
// granularity.
package features

import (
	"fmt"
	"math"

	"shmd/internal/isa"
	"shmd/internal/trace"
)

// Set selects a feature-vector family.
type Set int

// The feature families.
const (
	SetInstrFreq  Set = iota // F1
	SetMemory                // F2
	SetArchEvents            // F3

	// NumSets counts the families.
	NumSets = int(SetArchEvents) + 1
)

// Feature-vector widths.
const (
	DimInstrFreq  = isa.NumOpcodes
	DimMemory     = 16
	DimArchEvents = 16
)

// String implements fmt.Stringer.
func (s Set) String() string {
	switch s {
	case SetInstrFreq:
		return "F1-instruction-frequency"
	case SetMemory:
		return "F2-memory-reference"
	case SetArchEvents:
		return "F3-architectural-events"
	default:
		return fmt.Sprintf("set(%d)", int(s))
	}
}

// Dim returns the vector width of a family.
func (s Set) Dim() (int, error) {
	switch s {
	case SetInstrFreq:
		return DimInstrFreq, nil
	case SetMemory:
		return DimMemory, nil
	case SetArchEvents:
		return DimArchEvents, nil
	default:
		return 0, fmt.Errorf("features: unknown set %d", int(s))
	}
}

// Detection periods: the number of base windows one decision window
// aggregates. Period 1 observes trace.DefaultWindowSize instructions,
// period 2 twice that — the two periods of RHMD-xF2P.
const (
	Period1 = 1
	Period2 = 2
)

// aggregate sets *agg to the sum of group's windows.
func aggregate(agg *trace.WindowCounts, group []trace.WindowCounts) {
	*agg = trace.WindowCounts{}
	for k := range group {
		w := &group[k]
		for op := range agg.Opcode {
			agg.Opcode[op] += w.Opcode[op]
		}
		agg.Taken += w.Taken
		for b := range agg.Stride {
			agg.Stride[b] += w.Stride[b]
		}
	}
}

// Extract computes one feature vector per aggregated window. At period
// 1 the windows are read in place; longer periods aggregate one group
// at a time. All vectors share one backing array (each capped at its
// own length, so appending to one never reaches the next).
func Extract(windows []trace.WindowCounts, s Set, period int) ([][]float64, error) {
	return ExtractTo(nil, nil, windows, s, period)
}

// ExtractTo is Extract into caller-owned storage: it appends the
// vectors to out, carving them in order from the front of backing
// (allocated afresh when it holds fewer than len(windows)/period
// vectors), and returns the extended out. Reusing out and backing
// across calls extracts without allocating.
func ExtractTo(out [][]float64, backing []float64, windows []trace.WindowCounts, s Set, period int) ([][]float64, error) {
	dim, err := s.Dim()
	if err != nil {
		return nil, err
	}
	if period < 1 {
		return nil, fmt.Errorf("features: period %d < 1", period)
	}
	n := len(windows) / period
	if n == 0 {
		return nil, fmt.Errorf("features: no complete windows at period %d", period)
	}
	if len(backing) < n*dim {
		backing = make([]float64, n*dim)
	}
	if cap(out)-len(out) < n {
		out = append(make([][]float64, 0, len(out)+n), out...)
	}
	var agg trace.WindowCounts
	for i := 0; i < n; i++ {
		w := &windows[i]
		if period > 1 {
			aggregate(&agg, windows[i*period:(i+1)*period])
			w = &agg
		}
		v := backing[i*dim : (i+1)*dim : (i+1)*dim]
		clear(v)
		fill(v, w, s)
		out = append(out, v)
	}
	return out, nil
}

// fill writes w's feature vector of family s into the zeroed out.
func fill(out []float64, w *trace.WindowCounts, s Set) {
	switch s {
	case SetInstrFreq:
		instrFreq(out, w)
	case SetMemory:
		memoryFeatures(out, w)
	case SetArchEvents:
		archFeatures(out, w)
	}
}

// instrFreq is F1: normalized per-opcode frequencies.
func instrFreq(out []float64, w *trace.WindowCounts) {
	total := float64(w.Total())
	if total == 0 {
		return
	}
	for op, n := range w.Opcode {
		out[op] = float64(n) / total
	}
}

// memoryFeatures is F2.
func memoryFeatures(out []float64, w *trace.WindowCounts) {
	total := float64(w.Total())
	if total == 0 {
		return
	}
	loads, stores, memOps, stringOps, stackOps := 0, 0, 0, 0, 0
	for _, ins := range isa.Catalog() {
		n := w.Opcode[ins.Opcode]
		if ins.Load {
			loads += n
		}
		if ins.Store {
			stores += n
		}
		if ins.Load || ins.Store {
			// Counted once even for load+store instructions (xchg,
			// movs), matching trace.WindowCounts.MemOps and keeping
			// the density a true fraction of the window.
			memOps += n
		}
		if ins.Category == isa.CatString {
			stringOps += n
		}
		switch ins.Mnemonic {
		case "push", "pop", "pushf":
			stackOps += n
		}
	}
	out[0] = float64(loads) / total
	out[1] = float64(stores) / total
	out[2] = float64(memOps) / total
	if memOps > 0 {
		out[3] = float64(loads) / float64(memOps)
	}
	// Stride-locality histogram over memory operations (8 buckets).
	strideTotal := 0
	for _, n := range w.Stride {
		strideTotal += n
	}
	entropy := 0.0
	meanBucket := 0.0
	for b, n := range w.Stride {
		if strideTotal > 0 {
			p := float64(n) / float64(strideTotal)
			out[4+b] = p
			if p > 0 {
				entropy -= p * math.Log2(p)
			}
			meanBucket += p * float64(b)
		}
	}
	out[12] = entropy / 3 // normalized by log2(8)
	out[13] = meanBucket / float64(trace.StrideBuckets-1)
	out[14] = float64(stringOps) / total
	out[15] = float64(stackOps) / total
}

// archFeatures is F3.
func archFeatures(out []float64, w *trace.WindowCounts) {
	total := float64(w.Total())
	if total == 0 {
		return
	}
	var branches, cond, calls, rets, muls int
	var byCat [isa.NumCategories]int
	for _, ins := range isa.Catalog() {
		n := w.Opcode[ins.Opcode]
		byCat[ins.Category] += n
		if ins.Branch {
			branches += n
		}
		if ins.Cond {
			cond += n
		}
		if ins.Call {
			calls += n
		}
		if ins.Ret {
			rets += n
		}
		if ins.Mul {
			muls += n
		}
	}
	out[0] = float64(branches) / total
	if branches > 0 {
		out[1] = float64(w.Taken) / float64(branches)
	}
	out[2] = float64(cond) / total
	out[3] = float64(calls) / total
	out[4] = float64(rets) / total
	if calls+rets > 0 {
		out[5] = float64(calls-rets) / float64(calls+rets)
	}
	out[6] = float64(byCat[isa.CatSystem]+byCat[isa.CatIO]) / total
	out[7] = float64(muls) / total
	out[8] = float64(byCat[isa.CatSIMD]) / total
	out[9] = float64(byCat[isa.CatX87FPU]) / total
	out[10] = float64(byCat[isa.CatString]) / total
	out[11] = float64(byCat[isa.CatDataTransfer]) / total
	out[12] = float64(byCat[isa.CatLogical]) / total
	out[13] = float64(byCat[isa.CatShiftRotate]) / total
	out[14] = float64(byCat[isa.CatBitByte]+byCat[isa.CatFlagControl]) / total
	out[15] = float64(byCat[isa.CatMisc]+byCat[isa.CatSegmentRegister]+byCat[isa.CatDecimalArith]+byCat[isa.CatRandomNumber]) / total
}

// Concat extracts several feature sets and concatenates them per
// window — the view a reverse-engineering attacker uses against RHMD
// ("we reverse-engineer each RHMD construction using all the feature
// vectors used in the construction").
func Concat(windows []trace.WindowCounts, sets []Set, period int) ([][]float64, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("features: no sets to concatenate")
	}
	var parts [][][]float64
	for _, s := range sets {
		p, err := Extract(windows, s, period)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	n := len(parts[0])
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		var row []float64
		for _, p := range parts {
			row = append(row, p[i]...)
		}
		out[i] = row
	}
	return out, nil
}
