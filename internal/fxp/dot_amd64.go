package fxp

// On amd64 the unchecked batch MAC has an AVX2 kernel (dot_amd64.s),
// chosen once at init when the CPU has AVX2 and the OS saves the YMM
// registers; every other CPU keeps DotUncheckedBatchGo.
var useAVX2 = hasAVX2()

func init() {
	if useAVX2 {
		macKernel = "avx2"
	}
}

// dotUncheckedBatchSIMD runs the AVX2 kernel when the CPU selected it
// and reports whether it did.
func dotUncheckedBatchSIMD(w, xs []Value, stride int, accs []int64) bool {
	if !useAVX2 {
		return false
	}
	dotUncheckedBatchAVX2(w, xs, stride, accs)
	return true
}

// hasAVX2 reports CPUID.7.0:EBX.AVX2 with the AVX and OSXSAVE bits of
// CPUID.1:ECX set and XCR0 enabling both the XMM and YMM state.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotUncheckedBatchAVX2 is DotUncheckedBatch's AVX2 kernel. It reads
// lane j's row at xs[j*stride:j*stride+len(w)] without bounds checks,
// so it must only be reached through DotUncheckedBatch.
//
//go:noescape
func dotUncheckedBatchAVX2(w, xs []Value, stride int, accs []int64)
