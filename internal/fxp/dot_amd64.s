#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotUncheckedBatchAVX2(w, xs []Value, stride int, accs []int64)
//
// Lanes run four at a time: every VPMOVSXDQ of four weights feeds four
// lanes' VPMULDQ/VPADDQ, each lane keeping four int64 partial sums in
// its own Y register. The n%4 tail is scalar; leftover lanes (k%4) run
// the same loop with one accumulator. DotUncheckedBatch has checked
// that every lane's row lies inside xs.
//
// Registers: SI w, CX n, DI lane base, DX stride in bytes, R9 accs,
// R8 lanes left, BX n&^3, AX element index, R10-R12 lanes 1-3.
TEXT ·dotUncheckedBatchAVX2(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ xs_base+24(FP), DI
	MOVQ stride+48(FP), DX
	SHLQ $2, DX
	MOVQ accs_base+56(FP), R9
	MOVQ accs_len+64(FP), R8

block4:
	CMPQ R8, $4
	JLT  lane1
	MOVQ CX, BX
	ANDQ $-4, BX
	LEAQ (DI)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX

loop4:
	CMPQ AX, BX
	JGE  reduce4
	VPMOVSXDQ (SI)(AX*4), Y4
	VPMOVSXDQ (DI)(AX*4), Y5
	VPMOVSXDQ (R10)(AX*4), Y6
	VPMOVSXDQ (R11)(AX*4), Y7
	VPMOVSXDQ (R12)(AX*4), Y8
	VPMULDQ   Y4, Y5, Y5
	VPMULDQ   Y4, Y6, Y6
	VPMULDQ   Y4, Y7, Y7
	VPMULDQ   Y4, Y8, Y8
	VPADDQ    Y5, Y0, Y0
	VPADDQ    Y6, Y1, Y1
	VPADDQ    Y7, Y2, Y2
	VPADDQ    Y8, Y3, Y3
	ADDQ      $4, AX
	JMP       loop4

reduce4:
	// Transpose-add the four lanes' partial sums into one register,
	// lane j's total in qword j, and store them to accs[0:4].
	VPUNPCKLQDQ Y1, Y0, Y5
	VPUNPCKHQDQ Y1, Y0, Y6
	VPADDQ      Y6, Y5, Y5
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPADDQ      Y7, Y6, Y6
	VPERM2I128  $0x20, Y6, Y5, Y7
	VPERM2I128  $0x31, Y6, Y5, Y8
	VPADDQ      Y8, Y7, Y7
	VMOVDQU     Y7, (R9)

tail4:
	CMPQ    AX, CX
	JGE     next4
	MOVLQSX (SI)(AX*4), BX
	MOVLQSX (DI)(AX*4), R13
	IMULQ   BX, R13
	ADDQ    R13, (R9)
	MOVLQSX (R10)(AX*4), R13
	IMULQ   BX, R13
	ADDQ    R13, 8(R9)
	MOVLQSX (R11)(AX*4), R13
	IMULQ   BX, R13
	ADDQ    R13, 16(R9)
	MOVLQSX (R12)(AX*4), R13
	IMULQ   BX, R13
	ADDQ    R13, 24(R9)
	INCQ    AX
	JMP     tail4

next4:
	LEAQ (R12)(DX*1), DI
	ADDQ $32, R9
	SUBQ $4, R8
	JMP  block4

lane1:
	TESTQ R8, R8
	JLE   done
	MOVQ  CX, BX
	ANDQ  $-4, BX
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX

loop1:
	CMPQ      AX, BX
	JGE       reduce1
	VPMOVSXDQ (SI)(AX*4), Y4
	VPMOVSXDQ (DI)(AX*4), Y5
	VPMULDQ   Y4, Y5, Y5
	VPADDQ    Y5, Y0, Y0
	ADDQ      $4, AX
	JMP       loop1

reduce1:
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, R13

tail1:
	CMPQ    AX, CX
	JGE     store1
	MOVLQSX (SI)(AX*4), BX
	MOVLQSX (DI)(AX*4), R10
	IMULQ   BX, R10
	ADDQ    R10, R13
	INCQ    AX
	JMP     tail1

store1:
	MOVQ R13, (R9)
	ADDQ $8, R9
	ADDQ DX, DI
	DECQ R8
	JMP  lane1

done:
	VZEROUPPER
	RET
