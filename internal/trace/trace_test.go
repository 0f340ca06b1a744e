package trace

import (
	"math"
	"testing"

	"shmd/internal/isa"
)

func TestClassNames(t *testing.T) {
	if Benign.String() != "benign" || Worm.String() != "worm" {
		t.Error("class names wrong")
	}
	if Class(42).String() != "class(42)" {
		t.Errorf("unknown class name = %q", Class(42).String())
	}
	if Benign.IsMalware() {
		t.Error("benign must not be malware")
	}
	for _, c := range MalwareFamilies() {
		if !c.IsMalware() {
			t.Errorf("%v must be malware", c)
		}
	}
	if len(MalwareFamilies()) != NumMalwareFamilies {
		t.Errorf("family count = %d", len(MalwareFamilies()))
	}
}

func TestParseClass(t *testing.T) {
	c, err := ParseClass("trojan")
	if err != nil || c != Trojan {
		t.Errorf("ParseClass(trojan) = %v, %v", c, err)
	}
	if _, err := ParseClass("virus"); err == nil {
		t.Error("unknown class must error")
	}
}

func TestNewProgramValidation(t *testing.T) {
	if _, err := NewProgram(Class(99), 0, 1); err == nil {
		t.Error("invalid class must error")
	}
	if _, err := NewProgram(Benign, -1, 1); err == nil {
		t.Error("negative index must error")
	}
}

func TestProgramDeterminism(t *testing.T) {
	a, err := NewProgram(Trojan, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProgram(Trojan, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := a.Trace(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Trace(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for w := range ta {
		if ta[w] != tb[w] {
			t.Fatalf("window %d differs between identical programs", w)
		}
	}
	// Re-tracing the same program is also deterministic.
	ta2, _ := a.Trace(4, 1024)
	for w := range ta {
		if ta[w] != ta2[w] {
			t.Fatalf("window %d differs between traces of one program", w)
		}
	}
}

func TestProgramsDiffer(t *testing.T) {
	a, _ := NewProgram(Trojan, 1, 42)
	b, _ := NewProgram(Trojan, 2, 42)
	c, _ := NewProgram(Trojan, 1, 43)
	ta, _ := a.Trace(1, 1024)
	tb, _ := b.Trace(1, 1024)
	tc, _ := c.Trace(1, 1024)
	if ta[0] == tb[0] {
		t.Error("different indices must give different traces")
	}
	if ta[0] == tc[0] {
		t.Error("different corpus seeds must give different traces")
	}
}

func TestTraceGeometry(t *testing.T) {
	p, _ := NewProgram(Benign, 0, 1)
	if _, err := p.Trace(0, 1024); err == nil {
		t.Error("zero windows must error")
	}
	if _, err := p.Trace(4, 1); err == nil {
		t.Error("tiny window must error")
	}
	ws, err := p.Trace(5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 5 {
		t.Fatalf("window count = %d", len(ws))
	}
	for i, w := range ws {
		if w.Total() != 2048 {
			t.Errorf("window %d total = %d, want 2048", i, w.Total())
		}
	}
}

func TestWindowInternalConsistency(t *testing.T) {
	p, _ := NewProgram(Backdoor, 3, 9)
	ws, err := p.Trace(8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		branches := w.Branches()
		if w.Taken < 0 || w.Taken > branches {
			t.Errorf("window %d: taken %d outside [0, %d]", i, w.Taken, branches)
		}
		memOps := w.MemOps()
		strideTotal := 0
		for _, n := range w.Stride {
			if n < 0 {
				t.Errorf("window %d: negative stride count", i)
			}
			strideTotal += n
		}
		if strideTotal != memOps {
			t.Errorf("window %d: stride total %d != mem ops %d", i, strideTotal, memOps)
		}
		for op, n := range w.Opcode {
			if n < 0 {
				t.Errorf("window %d opcode %d negative count", i, op)
			}
		}
	}
}

func TestFamilySignaturesShowInTraces(t *testing.T) {
	// Averaged over programs, each malware family must over-express
	// its signature opcodes relative to benign — otherwise there is
	// nothing for an HMD to detect.
	meanFreq := func(c Class, mnemonic string) float64 {
		ins, err := isa.ByMnemonic(mnemonic)
		if err != nil {
			t.Fatal(err)
		}
		total, n := 0.0, 0
		for i := 0; i < 30; i++ {
			p, err := NewProgram(c, i, 7)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := p.Trace(4, 4096)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				total += float64(w.Opcode[ins.Opcode]) / float64(w.Total())
				n++
			}
		}
		return total / float64(n)
	}
	cases := []struct {
		class    Class
		mnemonic string
	}{
		{Backdoor, "syscall"},
		{PasswordStealer, "scas"},
		{Trojan, "rol"},
		{Worm, "movs"},
	}
	for _, tc := range cases {
		mal := meanFreq(tc.class, tc.mnemonic)
		ben := meanFreq(Benign, tc.mnemonic)
		if mal <= ben {
			t.Errorf("%v should over-express %s: %v vs benign %v", tc.class, tc.mnemonic, mal, ben)
		}
	}
}

func TestWithinFamilyDiversity(t *testing.T) {
	// Two programs of a family must not be near-duplicates.
	a, _ := NewProgram(Rogue, 0, 5)
	b, _ := NewProgram(Rogue, 1, 5)
	wa, _ := a.Trace(1, 8192)
	wb, _ := b.Trace(1, 8192)
	dist := 0.0
	for op := range wa[0].Opcode {
		d := float64(wa[0].Opcode[op]-wb[0].Opcode[op]) / 8192
		dist += math.Abs(d)
	}
	if dist < 0.05 {
		t.Errorf("within-family L1 distance = %v, suspiciously identical", dist)
	}
}

func TestApportionPreservesTotal(t *testing.T) {
	p, _ := NewProgram(Benign, 0, 2)
	for _, total := range []int{16, 100, 4096, 65536} {
		ws, err := p.Trace(1, total)
		if err != nil {
			t.Fatal(err)
		}
		if ws[0].Total() != total {
			t.Errorf("total %d preserved as %d", total, ws[0].Total())
		}
	}
}

func TestProgramMetadata(t *testing.T) {
	p, _ := NewProgram(PasswordStealer, 12, 1)
	if p.Name != "password-stealer-0012" {
		t.Errorf("name = %q", p.Name)
	}
	if !p.IsMalware() {
		t.Error("password stealer must be malware")
	}
	if n := len(p.phases); n < 2 || n > 4 {
		t.Errorf("phases = %d, want 2..4", n)
	}
}
