package features

import (
	"math"
	"testing"
	"testing/quick"

	"shmd/internal/isa"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// randomWindow builds an arbitrary but internally-consistent window
// from fuzz inputs.
func randomWindow(seed uint64, size int) trace.WindowCounts {
	r := rng.NewRand(seed, 0x71)
	var w trace.WindowCounts
	remaining := size
	for op := 0; op < isa.NumOpcodes-1 && remaining > 0; op++ {
		n := r.Intn(remaining + 1)
		w.Opcode[op] = n
		remaining -= n
	}
	w.Opcode[isa.NumOpcodes-1] = remaining
	branches := w.Branches()
	if branches > 0 {
		w.Taken = r.Intn(branches + 1)
	}
	mem := w.MemOps()
	left := mem
	for b := 0; b < trace.StrideBuckets-1 && left > 0; b++ {
		n := r.Intn(left + 1)
		w.Stride[b] = n
		left -= n
	}
	w.Stride[trace.StrideBuckets-1] = left
	return w
}

// Property: every feature family yields finite values in [0, 1] ranges
// appropriate to frequencies, for arbitrary windows.
func TestFeatureRangesProperty(t *testing.T) {
	check := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw%8192) + 64
		w := randomWindow(seed, size)
		for _, s := range []Set{SetInstrFreq, SetMemory, SetArchEvents} {
			for _, x := range fromWindow(w, s) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
				if x < -1.0001 || x > 1.0001 { // call/ret balance may be negative
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: injection preserves every original count (payload intact)
// and adds exactly the injected totals.
func TestInjectPreservesPayloadProperty(t *testing.T) {
	check := func(seed uint64, injRaw [8]uint8) bool {
		w := randomWindow(seed, 2048)
		inj := make([]int, isa.NumOpcodes)
		injected := 0
		for i, v := range injRaw {
			inj[i*7%isa.NumOpcodes] += int(v)
			injected += int(v)
		}
		out, err := Inject(w, inj)
		if err != nil {
			return false
		}
		for op := range w.Opcode {
			if out.Opcode[op] < w.Opcode[op] {
				return false
			}
		}
		return out.Total() == w.Total()+injected
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: aggregation at any period preserves the total instruction
// count of the complete groups.
func TestAggregatePreservesTotalsProperty(t *testing.T) {
	check := func(seed uint64, periodRaw uint8, nRaw uint8) bool {
		period := int(periodRaw%4) + 1
		n := int(nRaw%12) + period
		windows := make([]trace.WindowCounts, n)
		total := 0
		for i := range windows {
			windows[i] = randomWindow(seed+uint64(i), 512)
		}
		groups := n / period
		for i := 0; i < groups*period; i++ {
			total += windows[i].Total()
		}
		agg, err := aggregateAll(windows, period)
		if err != nil {
			return false
		}
		got := 0
		for _, g := range agg {
			got += g.Total()
		}
		return got == total && len(agg) == groups
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: the F1 vector always sums to 1 for non-empty windows.
func TestInstrFreqSumProperty(t *testing.T) {
	check := func(seed uint64) bool {
		w := randomWindow(seed, 1024)
		sum := 0.0
		for _, x := range fromWindow(w, SetInstrFreq) {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
