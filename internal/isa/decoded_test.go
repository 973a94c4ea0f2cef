package isa

import "testing"

// TestPredecodeMatchesDecode checks, for every opcode at several register
// and immediate encodings, that Predecode agrees field by field with the
// reference pair (Decode, Lookup) and the dispatch rules the pipeline used
// to recompute per fetch.
func TestPredecodeMatchesDecode(t *testing.T) {
	cases := []Inst{}
	for op := Opcode(0); op < numOpcodes+3; op++ {
		cases = append(cases,
			Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 16},
			Inst{Op: op, Rd: 0, Rs1: 0, Rs2: 31, Imm: -8},
			Inst{Op: op, Rd: 31, Rs1: 31, Rs2: 0, Imm: 0},
		)
	}
	for _, in := range cases {
		w := Encode(in)
		d := Predecode(w)
		if d.In != Decode(w) {
			t.Fatalf("%v: Predecode.In = %+v, Decode = %+v", in, d.In, Decode(w))
		}
		info := Lookup(d.In.Op)
		if d.Class != info.Class || d.MemBytes != info.MemBytes {
			t.Fatalf("%v: class and size %v, %d; Info has %v, %d", in, d.Class, d.MemBytes, info.Class, info.MemBytes)
		}
		// Destination rule: integer rd unless x0, else fp rd, else none.
		wantDest := int8(-1)
		switch {
		case info.WritesRd && d.In.Rd != 0:
			wantDest = int8(d.In.Rd)
		case info.WritesFd:
			wantDest = 32 + int8(d.In.Rd)
		}
		if d.Dest != wantDest {
			t.Fatalf("%v: Dest = %d, want %d", in, d.Dest, wantDest)
		}
		// Source slots mirror the Reads* flags.
		wantSrc0 := int8(-1)
		if info.ReadsR1 {
			wantSrc0 = int8(d.In.Rs1)
		} else if info.ReadsF1 {
			wantSrc0 = 32 + int8(d.In.Rs1)
		}
		wantSrc1 := int8(-1)
		if info.ReadsR2 {
			wantSrc1 = int8(d.In.Rs2)
		} else if info.ReadsF2 {
			wantSrc1 = 32 + int8(d.In.Rs2)
		}
		if d.Src0 != wantSrc0 || d.Src1 != wantSrc1 {
			t.Fatalf("%v: sources = (%d, %d), want (%d, %d)", in, d.Src0, d.Src1, wantSrc0, wantSrc1)
		}
		wantSer := info.Class == ClassFence || info.Class == ClassIFlush ||
			info.Class == ClassHWBar || info.Class == ClassHalt
		if d.Ser != wantSer {
			t.Fatalf("%v: Ser = %v, want %v", in, d.Ser, wantSer)
		}
		wantMem := info.Class == ClassLoad || info.Class == ClassStore || info.Class == ClassCacheOp
		if d.Mem != wantMem {
			t.Fatalf("%v: Mem = %v, want %v", in, d.Mem, wantMem)
		}
	}
}

// TestPredecodeZeroWord pins the untranslated-memory contract: an all-zero
// word predecodes to BAD, which the pipeline raises as an illegal
// instruction at commit.
func TestPredecodeZeroWord(t *testing.T) {
	d := Predecode(0)
	if d.In.Op != BAD {
		t.Fatalf("zero word predecodes to %v, want BAD", d.In.Op)
	}
	if d.Ser || d.Mem || d.Dest != -1 {
		t.Fatalf("BAD record has unexpected bindings: %+v", d)
	}
}
