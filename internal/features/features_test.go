package features

import (
	"math"
	"testing"

	"shmd/internal/isa"
	"shmd/internal/trace"
)

func testWindows(t *testing.T, class trace.Class, windows int) []trace.WindowCounts {
	t.Helper()
	p, err := trace.NewProgram(class, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := p.Trace(windows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestSetDims(t *testing.T) {
	cases := []struct {
		set  Set
		want int
	}{
		{SetInstrFreq, isa.NumOpcodes},
		{SetMemory, 16},
		{SetArchEvents, 16},
	}
	for _, tc := range cases {
		got, err := tc.set.Dim()
		if err != nil || got != tc.want {
			t.Errorf("%v dim = %d err=%v", tc.set, got, err)
		}
	}
	if _, err := Set(9).Dim(); err == nil {
		t.Error("unknown set must error")
	}
}

func TestSetString(t *testing.T) {
	for _, s := range []Set{SetInstrFreq, SetMemory, SetArchEvents} {
		if s.String() == "" {
			t.Errorf("set %d has empty name", s)
		}
	}
	if Set(9).String() != "set(9)" {
		t.Errorf("unknown set name = %q", Set(9).String())
	}
}

func TestExtractShapes(t *testing.T) {
	ws := testWindows(t, trace.Benign, 8)
	for _, s := range []Set{SetInstrFreq, SetMemory, SetArchEvents} {
		vecs, err := Extract(ws, s, Period1)
		if err != nil {
			t.Fatal(err)
		}
		dim, _ := s.Dim()
		if len(vecs) != 8 {
			t.Errorf("%v: %d vectors, want 8", s, len(vecs))
		}
		for i, v := range vecs {
			if len(v) != dim {
				t.Errorf("%v window %d: dim %d, want %d", s, i, len(v), dim)
			}
			for j, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("%v window %d feature %d = %v", s, i, j, x)
				}
			}
		}
	}
}

func TestInstrFreqSumsToOne(t *testing.T) {
	ws := testWindows(t, trace.Trojan, 4)
	vecs, err := Extract(ws, SetInstrFreq, Period1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		sum := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative frequency in window %d", i)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("window %d frequencies sum to %v", i, sum)
		}
	}
}

func TestAggregatePeriod2(t *testing.T) {
	ws := testWindows(t, trace.Benign, 8)
	agg, err := aggregateAll(ws, Period2)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 4 {
		t.Fatalf("period-2 windows = %d, want 4", len(agg))
	}
	for g := range agg {
		if agg[g].Total() != ws[2*g].Total()+ws[2*g+1].Total() {
			t.Errorf("group %d total mismatch", g)
		}
		if agg[g].Taken != ws[2*g].Taken+ws[2*g+1].Taken {
			t.Errorf("group %d taken mismatch", g)
		}
	}
	// Odd trailing window is dropped.
	agg, err = aggregateAll(ws[:7], Period2)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 3 {
		t.Errorf("7 windows at period 2 = %d groups, want 3", len(agg))
	}
}

func TestAggregateValidation(t *testing.T) {
	ws := testWindows(t, trace.Benign, 2)
	if _, err := aggregateAll(ws, 0); err == nil {
		t.Error("period 0 must error")
	}
	if _, err := Extract(ws, SetInstrFreq, 4); err == nil {
		t.Error("period larger than trace must error (no complete windows)")
	}
	// Period 1 returns a copy, not an alias.
	cp, _ := aggregateAll(ws, 1)
	cp[0].Taken = -999
	if ws[0].Taken == -999 {
		t.Error("aggregateAll(period 1) must copy")
	}
}

func TestFeatureDistributionsDifferByClass(t *testing.T) {
	// The mean F1 vectors of benign and trojan programs must differ
	// measurably; otherwise no detector can work.
	mean := func(class trace.Class) []float64 {
		out := make([]float64, isa.NumOpcodes)
		n := 0
		for i := 0; i < 20; i++ {
			p, err := trace.NewProgram(class, i, 13)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := p.Trace(4, 4096)
			if err != nil {
				t.Fatal(err)
			}
			vecs, err := Extract(ws, SetInstrFreq, Period1)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vecs {
				for j, x := range v {
					out[j] += x
				}
				n++
			}
		}
		for j := range out {
			out[j] /= float64(n)
		}
		return out
	}
	benign := mean(trace.Benign)
	trojan := mean(trace.Trojan)
	l1 := 0.0
	for j := range benign {
		l1 += math.Abs(benign[j] - trojan[j])
	}
	if l1 < 0.05 {
		t.Errorf("benign/trojan mean L1 distance = %v, classes indistinguishable", l1)
	}
}

func TestInject(t *testing.T) {
	ws := testWindows(t, trace.Worm, 2)
	inj := make([]int, isa.NumOpcodes)
	nop, _ := isa.ByMnemonic("nop")
	mov, _ := isa.ByMnemonic("mov")
	jcc, _ := isa.ByMnemonic("jcc")
	inj[nop.Opcode] = 100
	inj[mov.Opcode] = 50
	inj[jcc.Opcode] = 40

	out, err := Inject(ws[0], inj)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total() != ws[0].Total()+190 {
		t.Errorf("total = %d, want +190", out.Total())
	}
	if out.Opcode[nop.Opcode] != ws[0].Opcode[nop.Opcode]+100 {
		t.Error("nop count not updated")
	}
	// mov is a load: stride bucket 0 grows by 50.
	if out.Stride[0] != ws[0].Stride[0]+50 {
		t.Errorf("stride[0] = %d, want +50", out.Stride[0])
	}
	// jcc is conditional: taken grows by 40 * rate.
	if want := ws[0].Taken + int(40*InjectedTakenRate); out.Taken != want {
		t.Errorf("taken = %d, want %d", out.Taken, want)
	}
	// Original is untouched.
	if ws[0].Opcode[nop.Opcode] == out.Opcode[nop.Opcode] {
		t.Error("Inject must not mutate its input")
	}
}

func TestInjectValidation(t *testing.T) {
	ws := testWindows(t, trace.Worm, 1)
	if _, err := Inject(ws[0], make([]int, 3)); err == nil {
		t.Error("wrong-length injection must error")
	}
	neg := make([]int, isa.NumOpcodes)
	neg[0] = -1
	if _, err := Inject(ws[0], neg); err == nil {
		t.Error("negative injection (removal) must error")
	}
}

func TestInjectAll(t *testing.T) {
	ws := testWindows(t, trace.Worm, 4)
	inj := make([]int, isa.NumOpcodes)
	inj[0] = 10
	out, err := InjectAll(ws, inj)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ws) {
		t.Fatalf("window count changed: %d", len(out))
	}
	for i := range out {
		if out[i].Total() != ws[i].Total()+10 {
			t.Errorf("window %d not injected", i)
		}
	}
}

func TestInjectionShiftsFeatures(t *testing.T) {
	// Injection dilutes the original distribution: the injected
	// opcode's frequency rises, everything else falls.
	ws := testWindows(t, trace.PasswordStealer, 1)
	scas, _ := isa.ByMnemonic("scas")
	nop, _ := isa.ByMnemonic("nop")
	inj := make([]int, isa.NumOpcodes)
	inj[nop.Opcode] = 2000

	before := fromWindow(ws[0], SetInstrFreq)
	after, err := Inject(ws[0], inj)
	if err != nil {
		t.Fatal(err)
	}
	afterVec := fromWindow(after, SetInstrFreq)
	if afterVec[nop.Opcode] <= before[nop.Opcode] {
		t.Error("injected opcode frequency must rise")
	}
	if afterVec[scas.Opcode] >= before[scas.Opcode] {
		t.Error("signature opcode frequency must be diluted")
	}
}

func TestOverhead(t *testing.T) {
	inj := make([]int, isa.NumOpcodes)
	inj[0] = 1024
	inj[5] = 1024
	if got := Overhead(inj, 4096); got != 0.5 {
		t.Errorf("overhead = %v, want 0.5", got)
	}
	if Overhead(inj, 0) != 0 {
		t.Error("zero window size must give 0")
	}
}

func TestConcat(t *testing.T) {
	ws := testWindows(t, trace.Benign, 4)
	vecs, err := Concat(ws, []Set{SetInstrFreq, SetMemory, SetArchEvents}, Period1)
	if err != nil {
		t.Fatal(err)
	}
	want := isa.NumOpcodes + 16 + 16
	for _, v := range vecs {
		if len(v) != want {
			t.Fatalf("concat dim = %d, want %d", len(v), want)
		}
	}
	if _, err := Concat(ws, nil, Period1); err == nil {
		t.Error("empty set list must error")
	}
}

func TestZeroWindowFeatures(t *testing.T) {
	// An all-zero window yields all-zero features, not NaNs.
	var w trace.WindowCounts
	for _, s := range []Set{SetInstrFreq, SetMemory, SetArchEvents} {
		for i, x := range fromWindow(w, s) {
			if x != 0 {
				t.Errorf("%v feature %d = %v for empty window", s, i, x)
			}
		}
	}
}
