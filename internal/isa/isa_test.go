package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: ADDI, Rd: 31, Rs1: 0, Imm: -1},
		{Op: LI, Rd: 5, Imm: 1 << 30},
		{Op: LI, Rd: 5, Imm: -(1 << 30)},
		{Op: LD, Rd: 7, Rs1: 2, Imm: 8160},
		{Op: ST, Rs1: 2, Rs2: 9, Imm: -8},
		{Op: BEQ, Rs1: 4, Rs2: 5, Imm: -1024},
		{Op: JAL, Rd: 1, Imm: 4096},
		{Op: FENCE},
		{Op: ICBI, Rs1: 24},
		{Op: DCBI, Rs1: 25, Imm: 64},
		{Op: HWBAR, Imm: 3},
		{Op: SC, Rd: 6, Rs1: 4, Rs2: 5},
		{Op: FADD, Rd: 0, Rs1: 1, Rs2: 2},
		{Op: HALT},
	}
	for _, in := range cases {
		got := Decode(Encode(in))
		if got != in {
			t.Errorf("round trip %v: got %v", in, got)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{
			Op:  Opcode(op % uint8(numOpcodes)),
			Rd:  rd & 31,
			Rs1: rs1 & 31,
			Rs2: rs2 & 31,
			Imm: imm,
		}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeUnknownOpcodeIsBAD(t *testing.T) {
	w := uint64(0xFF) << 56
	if got := Decode(w).Op; got != BAD {
		t.Fatalf("opcode 0xFF decoded to %v, want BAD", got)
	}
	if Decode(0).Op != BAD {
		t.Fatal("all-zero word should decode to BAD")
	}
}

func TestInfoTables(t *testing.T) {
	if op, ok := ByName("bad"); ok {
		t.Errorf(`ByName("bad") = %v; BAD must not assemble`, op)
	}
	for op := Opcode(1); op < numOpcodes; op++ {
		inf := Lookup(op)
		if inf.Name == "" {
			t.Errorf("opcode %d has no Info entry", op)
		}
		if inf.Class < ClassALU || inf.Class > ClassOther {
			t.Errorf("%s: class %d is not one the pipeline has a unit or a serializing path for", inf.Name, inf.Class)
		}
		if inf.WritesRd && inf.WritesFd {
			t.Errorf("%s writes both register files", inf.Name)
		}
		// The form names exactly the registers the flags say the opcode
		// uses, each once; an m operand is rs1.
		has := func(letters string) bool { return strings.ContainsAny(inf.Form, letters) }
		if has("d") != (inf.WritesRd || inf.WritesFd) ||
			has("sm") != (inf.ReadsR1 || inf.ReadsF1) ||
			has("t") != (inf.ReadsR2 || inf.ReadsF2) ||
			inf.ReadsR1 && inf.ReadsF1 || inf.ReadsR2 && inf.ReadsF2 {
			t.Errorf("%s: form %q disagrees with its register flags %+v", inf.Name, inf.Form, inf)
		}
		for _, c := range inf.Form {
			if strings.Count(inf.Form, string(c)) != 1 || !strings.ContainsRune("dstimL", c) || c == 'm' && has("s") {
				t.Errorf("%s: form %q repeats a register or has letter %q", inf.Name, inf.Form, c)
			}
		}
		if got, ok := ByName(inf.Name); !ok || got != op {
			t.Errorf("ByName(%q) = %v, %v; want %v", inf.Name, got, ok, op)
		}
		switch inf.Class {
		case ClassLoad, ClassStore:
			// The core checks alignment with addr & (size-1).
			if inf.MemBytes == 0 || inf.MemBytes&(inf.MemBytes-1) != 0 {
				t.Errorf("%s is a memory op whose size %d is not a power of two", inf.Name, inf.MemBytes)
			}
		default:
			if inf.MemBytes != 0 {
				t.Errorf("%s is not a memory op but has size %d", inf.Name, inf.MemBytes)
			}
		}
	}
}

func TestParseIntReg(t *testing.T) {
	cases := map[string]uint8{
		"zero": 0, "ra": 1, "sp": 2, "x0": 0, "x31": 31,
		"a0": 10, "t0": 4, "s0": 18, "t6": 30, "t7": 31, "s11": 29,
	}
	for in, want := range cases {
		got, err := ParseIntReg(in)
		if err != nil || got != want {
			t.Errorf("ParseIntReg(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"x32", "x-1", "f0", "q7", "x07", ""} {
		if _, err := ParseIntReg(bad); err == nil {
			t.Errorf("ParseIntReg(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestParseFPReg(t *testing.T) {
	if r, err := ParseFPReg("f31"); err != nil || r != 31 {
		t.Fatalf("f31: %d, %v", r, err)
	}
	for _, bad := range []string{"f32", "x0", "f", "f01"} {
		if _, err := ParseFPReg(bad); err == nil {
			t.Errorf("ParseFPReg(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestIntRegNameRoundTrip(t *testing.T) {
	for i := uint8(0); i < NumIntRegs; i++ {
		name := IntRegName(i)
		got, err := ParseIntReg(name)
		if err != nil || got != i {
			t.Errorf("IntRegName(%d) = %q does not parse back (%d, %v)", i, name, got, err)
		}
	}
}

func TestDisassembleStrings(t *testing.T) {
	cases := map[string]Inst{
		"add x1, x2, x3":   {Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		"li x5, -7":        {Op: LI, Rd: 5, Imm: -7},
		"ld x7, 16(x2)":    {Op: LD, Rd: 7, Rs1: 2, Imm: 16},
		"st x9, -8(x2)":    {Op: ST, Rs1: 2, Rs2: 9, Imm: -8},
		"beq x4, x5, -16":  {Op: BEQ, Rs1: 4, Rs2: 5, Imm: -16},
		"fence":            {Op: FENCE},
		"icbi 0(x24)":      {Op: ICBI, Rs1: 24},
		"hwbar 3":          {Op: HWBAR, Imm: 3},
		"fadd f1, f2, f3":  {Op: FADD, Rd: 1, Rs1: 2, Rs2: 3},
		"jalr x5, -24(x7)": {Op: JALR, Rd: 5, Rs1: 7, Imm: -24},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", in.Op, got, want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !(Inst{Op: LD}).IsMem() || !(Inst{Op: ST}).IsMem() || !(Inst{Op: SC}).IsMem() {
		t.Fatal("loads/stores must be memory ops")
	}
	if (Inst{Op: ICBI}).IsMem() {
		t.Fatal("cache ops are not data memory ops")
	}
	if !(Inst{Op: BEQ}).IsCtrl() || !(Inst{Op: JAL}).IsCtrl() {
		t.Fatal("branches and jumps are control")
	}
	if (Inst{Op: ADD}).IsCtrl() {
		t.Fatal("ADD is not control")
	}
}
