package isa

import "testing"

func TestCatalogSize(t *testing.T) {
	if len(Catalog()) != NumOpcodes {
		t.Fatalf("catalog size = %d, want %d", len(Catalog()), NumOpcodes)
	}
}

func TestOpcodesAreSequential(t *testing.T) {
	for i, ins := range Catalog() {
		if ins.Opcode != i {
			t.Errorf("entry %d has Opcode %d", i, ins.Opcode)
		}
	}
}

func TestEveryCategoryRepresented(t *testing.T) {
	var n [NumCategories]int
	for _, ins := range Catalog() {
		n[ins.Category]++
	}
	for c := Category(0); int(c) < NumCategories; c++ {
		if n[c] == 0 {
			t.Errorf("category %v has no instructions", c)
		}
	}
}

func TestByMnemonic(t *testing.T) {
	ins, err := ByMnemonic("imul")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Category != CatBinaryArith || !ins.Mul {
		t.Errorf("imul = %+v", ins)
	}
	if _, err := ByMnemonic("bogus"); err == nil {
		t.Error("unknown mnemonic must error")
	}
}

func TestFlagConsistency(t *testing.T) {
	for _, ins := range Catalog() {
		if ins.Cond && !ins.Branch {
			t.Errorf("%s: conditional but not a branch", ins.Mnemonic)
		}
		if (ins.Call || ins.Ret) && !ins.Branch {
			t.Errorf("%s: call/ret but not a branch", ins.Mnemonic)
		}
		if ins.Branch && ins.Category != CatControlTransfer && ins.Category != CatSystem {
			t.Errorf("%s: branch outside control-transfer/system (%v)", ins.Mnemonic, ins.Category)
		}
		if ins.Mul {
			switch ins.Category {
			case CatBinaryArith, CatX87FPU, CatSIMD:
			default:
				t.Errorf("%s: multiplier use in unexpected category %v", ins.Mnemonic, ins.Category)
			}
		}
	}
}

func TestMultiplierInstructionsExist(t *testing.T) {
	// The undervolting fault model needs multiplier-using instructions
	// in the stream.
	muls := 0
	for _, ins := range Catalog() {
		if ins.Mul {
			muls++
		}
	}
	if muls < 3 {
		t.Errorf("only %d multiplier instructions in catalog", muls)
	}
}

func TestCategoryString(t *testing.T) {
	if CatBinaryArith.String() != "binary-arithmetic" {
		t.Errorf("name = %q", CatBinaryArith.String())
	}
	if Category(99).String() != "category(99)" {
		t.Errorf("unknown name = %q", Category(99).String())
	}
}
