package trace

import (
	"fmt"
	"math"

	"shmd/internal/rng"
)

// Trace replays the program deterministically and returns per-window
// instruction counts — the measurement the paper's Pin tool produces.
// Each call with the same geometry returns identical data (Section IV:
// feature collection is deterministic; the paper verified the same
// trace appears in every run).
//
// windows is the number of observation windows and windowSize the
// instructions per window.
func (p *Program) Trace(windows, windowSize int) ([]WindowCounts, error) {
	if windows < 1 || windowSize < 16 {
		return nil, fmt.Errorf("trace: invalid geometry %d windows × %d", windows, windowSize)
	}
	r := rng.NewRand(p.seed, 0x7ace)
	out := make([]WindowCounts, windows)
	phaseIdx := r.Intn(len(p.phases))
	for w := range out {
		ph := p.phases[phaseIdx]

		// Per-window behaviour: the phase mixture with window jitter.
		mix := jitterMixture(ph.mix, windowJitter, r)
		counts := apportion(mix[:], windowSize, r)
		copy(out[w].Opcode[:], counts)

		// Branch outcomes.
		branches := out[w].Branches()
		taken := int(math.Round(float64(branches) * clamp01(ph.takenRate+0.05*r.NormFloat64())))
		if taken > branches {
			taken = branches
		}
		if taken < 0 {
			taken = 0
		}
		out[w].Taken = taken

		// Memory strides over the window's load/store instructions.
		memOps := out[w].MemOps()
		var strideMix [StrideBuckets]float64
		total := 0.0
		for b := range strideMix {
			strideMix[b] = ph.strideMix[b] * math.Exp(0.15*r.NormFloat64())
			total += strideMix[b]
		}
		for b := range strideMix {
			strideMix[b] /= total
		}
		strides := apportion(strideMix[:], memOps, r)
		copy(out[w].Stride[:], strides)

		// Advance the phase Markov chain once per window.
		phaseIdx = stepMarkov(p.transitions[phaseIdx], r.Float64())
	}
	return out, nil
}

// clamp01 bounds x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// stepMarkov picks the next state from a transition row given a
// uniform draw.
func stepMarkov(row []float64, u float64) int {
	acc := 0.0
	for i, p := range row {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(row) - 1
}

// apportion distributes total integer counts across a probability
// mixture, preserving the exact total: floor allocation first, then the
// remainder goes to the entries with the largest fractional parts
// (deterministic given the jittered mixture; r breaks exact ties by
// perturbing negligibly).
func apportion(mix []float64, total int, r interface{ Float64() float64 }) []int {
	counts := make([]int, len(mix))
	if total <= 0 {
		return counts
	}
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, len(mix))
	allocated := 0
	for i, p := range mix {
		exact := p * float64(total)
		counts[i] = int(exact)
		allocated += counts[i]
		fracs[i] = frac{idx: i, f: exact - float64(counts[i]) + 1e-9*r.Float64()}
	}
	// Selection of the (total - allocated) largest fractional parts.
	remaining := total - allocated
	for n := 0; n < remaining; n++ {
		best := -1
		for i := range fracs {
			if fracs[i].f >= 0 && (best < 0 || fracs[i].f > fracs[best].f) {
				best = i
			}
		}
		counts[fracs[best].idx]++
		fracs[best].f = -1
	}
	return counts
}
