// Package isa models the Intel-SDM instruction taxonomy the paper's
// feature collection is built on: "The extracted features are based on
// the frequency of executed instruction categories; based on Intel's
// sub-grouping of instructions, e.g., binary arithmetic, control
// transfer, and system instructions sub-groups."
//
// The catalog enumerates 64 representative mnemonics across the
// sub-groups of SDM Volume 1 Chapter 5, each annotated with the memory
// and control-flow behaviour the Pin-like tracer and the feature
// extractors need. 64 mnemonics is also the input width of the HMD.
package isa

import "fmt"

// Category is an Intel SDM instruction sub-group.
type Category int

// The sub-groups of SDM Vol. 1 Ch. 5 (general-purpose groups first).
const (
	CatDataTransfer Category = iota
	CatBinaryArith
	CatDecimalArith
	CatLogical
	CatShiftRotate
	CatBitByte
	CatControlTransfer
	CatString
	CatIO
	CatFlagControl
	CatSegmentRegister
	CatMisc
	CatX87FPU
	CatSIMD
	CatSystem
	CatRandomNumber

	// NumCategories is the number of sub-groups.
	NumCategories = int(CatRandomNumber) + 1
)

// categoryNames indexes Category.String.
var categoryNames = [NumCategories]string{
	"data-transfer", "binary-arithmetic", "decimal-arithmetic", "logical",
	"shift-rotate", "bit-byte", "control-transfer", "string", "io",
	"flag-control", "segment-register", "misc", "x87-fpu", "simd",
	"system", "random-number",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < 0 || int(c) >= NumCategories {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Instruction describes one catalog entry.
type Instruction struct {
	// Opcode is the catalog index, the position in feature vectors.
	Opcode int
	// Mnemonic is the assembly name.
	Mnemonic string
	// Category is the SDM sub-group.
	Category Category
	// Load/Store mark typical memory behaviour.
	Load, Store bool
	// Branch marks control transfers; Cond marks conditional ones.
	Branch, Cond bool
	// Call/Ret mark procedure linkage.
	Call, Ret bool
	// Mul marks instructions that exercise the multiplier array — the
	// unit undervolting faults (Section II: only multiplications
	// faulted).
	Mul bool
}

// catalog is the fixed 64-entry instruction set. Order is part of the
// feature-vector contract; append-only.
var catalog = []Instruction{
	// Data transfer (8).
	{Mnemonic: "mov", Category: CatDataTransfer, Load: true},
	{Mnemonic: "movzx", Category: CatDataTransfer, Load: true},
	{Mnemonic: "movsx", Category: CatDataTransfer, Load: true},
	{Mnemonic: "push", Category: CatDataTransfer, Store: true},
	{Mnemonic: "pop", Category: CatDataTransfer, Load: true},
	{Mnemonic: "xchg", Category: CatDataTransfer, Load: true, Store: true},
	{Mnemonic: "cmovcc", Category: CatDataTransfer, Load: true},
	{Mnemonic: "bswap", Category: CatDataTransfer},
	// Binary arithmetic (8).
	{Mnemonic: "add", Category: CatBinaryArith},
	{Mnemonic: "sub", Category: CatBinaryArith},
	{Mnemonic: "adc", Category: CatBinaryArith},
	{Mnemonic: "imul", Category: CatBinaryArith, Mul: true},
	{Mnemonic: "mul", Category: CatBinaryArith, Mul: true},
	{Mnemonic: "idiv", Category: CatBinaryArith},
	{Mnemonic: "inc", Category: CatBinaryArith},
	{Mnemonic: "cmp", Category: CatBinaryArith},
	// Decimal arithmetic (1).
	{Mnemonic: "daa", Category: CatDecimalArith},
	// Logical (4).
	{Mnemonic: "and", Category: CatLogical},
	{Mnemonic: "or", Category: CatLogical},
	{Mnemonic: "xor", Category: CatLogical},
	{Mnemonic: "not", Category: CatLogical},
	// Shift and rotate (4).
	{Mnemonic: "shl", Category: CatShiftRotate},
	{Mnemonic: "shr", Category: CatShiftRotate},
	{Mnemonic: "sar", Category: CatShiftRotate},
	{Mnemonic: "rol", Category: CatShiftRotate},
	// Bit and byte (4).
	{Mnemonic: "bt", Category: CatBitByte},
	{Mnemonic: "bts", Category: CatBitByte},
	{Mnemonic: "setcc", Category: CatBitByte},
	{Mnemonic: "test", Category: CatBitByte},
	// Control transfer (8).
	{Mnemonic: "jmp", Category: CatControlTransfer, Branch: true},
	{Mnemonic: "jcc", Category: CatControlTransfer, Branch: true, Cond: true},
	{Mnemonic: "call", Category: CatControlTransfer, Branch: true, Call: true, Store: true},
	{Mnemonic: "ret", Category: CatControlTransfer, Branch: true, Ret: true, Load: true},
	{Mnemonic: "loop", Category: CatControlTransfer, Branch: true, Cond: true},
	{Mnemonic: "jecxz", Category: CatControlTransfer, Branch: true, Cond: true},
	{Mnemonic: "int", Category: CatControlTransfer, Branch: true},
	{Mnemonic: "iret", Category: CatControlTransfer, Branch: true, Ret: true, Load: true},
	// String (5).
	{Mnemonic: "movs", Category: CatString, Load: true, Store: true},
	{Mnemonic: "cmps", Category: CatString, Load: true},
	{Mnemonic: "scas", Category: CatString, Load: true},
	{Mnemonic: "lods", Category: CatString, Load: true},
	{Mnemonic: "stos", Category: CatString, Store: true},
	// I/O (2).
	{Mnemonic: "in", Category: CatIO, Load: true},
	{Mnemonic: "out", Category: CatIO, Store: true},
	// Flag control (2).
	{Mnemonic: "stc", Category: CatFlagControl},
	{Mnemonic: "pushf", Category: CatFlagControl, Store: true},
	// Segment register (1).
	{Mnemonic: "movsreg", Category: CatSegmentRegister},
	// Miscellaneous (4).
	{Mnemonic: "lea", Category: CatMisc},
	{Mnemonic: "nop", Category: CatMisc},
	{Mnemonic: "cpuid", Category: CatMisc},
	{Mnemonic: "xlat", Category: CatMisc, Load: true},
	// x87 FPU (3).
	{Mnemonic: "fadd", Category: CatX87FPU},
	{Mnemonic: "fmul", Category: CatX87FPU, Mul: true},
	{Mnemonic: "fld", Category: CatX87FPU, Load: true},
	// SIMD (5).
	{Mnemonic: "movdqa", Category: CatSIMD, Load: true},
	{Mnemonic: "pxor", Category: CatSIMD},
	{Mnemonic: "paddd", Category: CatSIMD},
	{Mnemonic: "pmulld", Category: CatSIMD, Mul: true},
	{Mnemonic: "mulps", Category: CatSIMD, Mul: true},
	// System (4).
	{Mnemonic: "syscall", Category: CatSystem, Branch: true, Call: true},
	{Mnemonic: "rdmsr", Category: CatSystem},
	{Mnemonic: "wrmsr", Category: CatSystem},
	{Mnemonic: "hlt", Category: CatSystem},
	// Random number (1).
	{Mnemonic: "rdrand", Category: CatRandomNumber},
}

// NumOpcodes is the catalog size and the width of the F1 feature
// vector.
const NumOpcodes = 64

// byMnemonic indexes the catalog by name.
var byMnemonic map[string]int

func init() {
	if len(catalog) != NumOpcodes {
		panic(fmt.Sprintf("isa: catalog has %d entries, want %d", len(catalog), NumOpcodes))
	}
	byMnemonic = make(map[string]int, NumOpcodes)
	for i := range catalog {
		catalog[i].Opcode = i
		if _, dup := byMnemonic[catalog[i].Mnemonic]; dup {
			panic("isa: duplicate mnemonic " + catalog[i].Mnemonic)
		}
		byMnemonic[catalog[i].Mnemonic] = i
	}
}

// Catalog returns the full instruction table (shared, read-only).
func Catalog() []Instruction { return catalog }

// ByMnemonic looks an instruction up by name.
func ByMnemonic(name string) (Instruction, error) {
	i, ok := byMnemonic[name]
	if !ok {
		return Instruction{}, fmt.Errorf("isa: unknown mnemonic %q", name)
	}
	return catalog[i], nil
}
