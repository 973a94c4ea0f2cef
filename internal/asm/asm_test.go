package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
)

const textBase = 0x10000
const dataBase = 0x100000

func decodeAt(t *testing.T, p *Program, addr uint64) isa.Inst {
	t.Helper()
	for _, seg := range p.Segments {
		if addr >= seg.Addr && addr+8 <= seg.Addr+uint64(len(seg.Data)) {
			return isa.Decode(binary.LittleEndian.Uint64(seg.Data[addr-seg.Addr:]))
		}
	}
	t.Fatalf("address %#x not in any segment", addr)
	return isa.Inst{}
}

func TestBuilderBranchFixups(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.Label("start")
	b.ADDI(5, 5, 1)  // 0x10000
	b.BNEZ(5, "end") // 0x10008 -> 0x10018: +16
	b.J("start")     // 0x10010 -> 0x10000: -16
	b.Label("end")
	b.HALT()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in := decodeAt(t, p, textBase+8); in.Imm != 16 {
		t.Errorf("forward branch imm = %d, want 16", in.Imm)
	}
	if in := decodeAt(t, p, textBase+16); in.Imm != -16 {
		t.Errorf("backward jump imm = %d, want -16", in.Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.J("nowhere")
	_, err := b.Build()
	if want := `asm: undefined label "nowhere" (referenced at 0x10000)`; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
	// Past a label, the site is rendered as Program.Locate renders it.
	b = NewBuilder(textBase, dataBase)
	b.Label("outer")
	b.NOP()
	b.Label("inner")
	b.NOP()
	b.BEQZ(4, "nowhere")
	_, err = b.Build()
	if want := `asm: undefined label "nowhere" (referenced at inner+1)`; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.Label("x")
	b.NOP()
	b.Label("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Fatalf("expected redefinition error, got %v", err)
	}
}

func TestBuilderLIRange(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.LI(1, 1<<31) // out of int32 range
	if _, err := b.Build(); err == nil {
		t.Fatal("expected LI range error")
	}
}

func TestBuilderAlignText(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.NOP()
	b.AlignText(256)
	if b.PC()%256 != 0 {
		t.Fatalf("PC %#x not 256-aligned", b.PC())
	}
	b.Label("aligned")
	b.HALT()
	p := b.MustBuild()
	if p.MustSymbol("aligned")%256 != 0 {
		t.Fatal("aligned symbol not aligned")
	}
}

func TestBuilderDataEmission(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.HALT()
	b.DataLabel("a")
	b.Quad(0x1122334455667788)
	b.AlignData(64)
	b.DataLabel("bb")
	b.Double(1.5)
	b.Half(0x8001)
	b.Space(3)
	b.Bytes([]byte{9})
	p := b.MustBuild()
	if p.MustSymbol("a") != dataBase {
		t.Fatalf("a at %#x", p.MustSymbol("a"))
	}
	if p.MustSymbol("bb")%64 != 0 {
		t.Fatal("bb not aligned")
	}
	seg := p.Segments[1]
	if binary.LittleEndian.Uint64(seg.Data) != 0x1122334455667788 {
		t.Fatal("quad value wrong")
	}
}

func TestAssembleFullProgram(t *testing.T) {
	src := `
	.entry main
helper:
	add a2, a2, a2
	ret
main:
	li a2, 21
	call helper
	out a2
	halt
	.data
	.align 8
val:
	.quad 42
	`
	p, err := Assemble(src, textBase, dataBase)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.MustSymbol("main") {
		t.Fatalf("entry %#x, want main %#x", p.Entry, p.MustSymbol("main"))
	}
	if _, ok := p.Symbol("val"); !ok {
		t.Fatal("missing data symbol")
	}
}

// TestAssembleAllForms assembles every form the assembler accepts; the
// assembled bytes are pinned by internal/barrier's TestAssembledBytesGolden.
func TestAssembleAllForms(t *testing.T) {
	src, err := os.ReadFile("testdata/allforms.s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(string(src), textBase, dataBase); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus x1, x2",
		"add x1, x2",
		"ld x1, x2",
		"li x1, zork",
		"addi q1, x2, 3",
		".align -1",
		".equ x",
		"add x1, x2, x3 extra",
		".data\n.byte 1, 2",
		// Every form checks its operand count.
		"fence x1",
		"nop 5",
		"halt a, b",
		"iflush 3",
		"ret ra",
		"ld x1, 0(x2) extra",
		// Every immediate and memory offset must fit in 32 bits signed.
		"addi x1, x2, 0x100000000",
		"addi x1, x2, 0xffffffffffffffff",
		"ld x1, 0x100000000(x2)",
		"sw x1, -0x80000001(x2)",
		"hwbar 0x100000000",
		"li x1, 0x80000000",
		// A text alignment must be a whole number of instructions.
		"nop\n.align 12",
		// An empty branch target is an undefined label, not displacement 0.
		"beq t0, t1, ",
	}
	for _, src := range cases {
		if _, err := Assemble(src, textBase, dataBase); err == nil {
			t.Errorf("Assemble(%q) unexpectedly succeeded", src)
		}
	}
}

// TestFormRoundTrip: for every opcode in isa's table, an instruction with
// the fields its form names disassembles to text that assembles back to the
// same word. An L operand's displacement becomes a label that far back.
func TestFormRoundTrip(t *testing.T) {
	for op := isa.BAD + 1; isa.Lookup(op) != isa.Lookup(isa.BAD); op++ {
		inf := isa.Lookup(op)
		in := isa.Inst{Op: op}
		for _, c := range inf.Form {
			switch c {
			case 'd':
				in.Rd = 31
			case 's':
				in.Rs1 = 17
			case 't':
				in.Rs2 = 9
			case 'i':
				in.Imm = math.MinInt32
			case 'm':
				in.Rs1, in.Imm = 30, math.MaxInt32
			case 'L':
				in.Imm = -2 * isa.WordBytes
			}
		}
		text := in.String()
		if strings.Contains(inf.Form, "L") {
			text = strings.TrimSuffix(text, fmt.Sprint(in.Imm)) + "target"
		}
		p, err := Assemble("target:\n\tnop\n\tnop\n\t"+text, textBase, dataBase)
		if err != nil {
			t.Errorf("%s: %q does not assemble: %v", inf.Name, text, err)
			continue
		}
		if got := binary.LittleEndian.Uint64(p.Segments[0].Data[2*isa.WordBytes:]); got != isa.Encode(in) {
			t.Errorf("%s: %q assembles to %#x, want %#x (%v)", inf.Name, text, got, isa.Encode(in), isa.Decode(got))
		}
	}
}

// TestAlignText: .align in .text pads with nops, as Builder.AlignText does.
func TestAlignText(t *testing.T) {
	p, err := Assemble("nop\n.align 64\nl: nop", textBase, dataBase)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Segments[0].Data) / isa.WordBytes; got != 9 {
		t.Fatalf("%d instructions, want 9", got)
	}
	if in := decodeAt(t, p, textBase+8); in.Op != isa.NOP {
		t.Fatalf("padding is %v, want nop", in)
	}
	if l := p.MustSymbol("l"); l != textBase+64 {
		t.Fatalf("l at %#x, want %#x", l, textBase+64)
	}
}

func TestAssembleComments(t *testing.T) {
	src := `
	# full line comment
	li t0, 1   # trailing comment
	li t1, 2   // other comment style
	halt
	`
	p, err := Assemble(src, textBase, dataBase)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Segments[0].Data) / 8; got != 3 {
		t.Fatalf("got %d instructions, want 3", got)
	}
}

func TestStatement(t *testing.T) {
	cases := map[string]string{
		"\tbarrier   # arrive":     "barrier",
		"barrier // arrive":        "barrier",
		"l: ld t0, 0(t1) # x // y": "l: ld t0, 0(t1)",
		"  // only a comment":      "",
		"\t":                       "",
	}
	for line, want := range cases {
		if got := Statement(line); got != want {
			t.Errorf("Statement(%q) = %q, want %q", line, got, want)
		}
	}
}

func TestDisassembleListing(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	b.Label("e")
	b.LI(4, 7)
	b.HALT()
	p := b.MustBuild()
	if s := p.Disassemble(textBase, 2); !strings.Contains(s, "li") || !strings.Contains(s, "halt") {
		t.Fatalf("disassembly missing content: %q", s)
	}
	if l := p.Listing(); !strings.Contains(l, "e") {
		t.Fatalf("listing missing symbol: %q", l)
	}
}

func TestLineAssemblerInterleaving(t *testing.T) {
	b := NewBuilder(textBase, dataBase)
	la := NewLineAssembler(b)
	if err := la.Line("  li t0, 5"); err != nil {
		t.Fatal(err)
	}
	// Programmatic emission interleaved with text.
	b.ADDI(4, 4, 1)
	if err := la.Line("out t0"); err != nil {
		t.Fatal(err)
	}
	if err := la.Line(".data"); err != nil {
		t.Fatal(err)
	}
	if err := la.Line("v: .quad 9"); err != nil {
		t.Fatal(err)
	}
	// Instructions are rejected while in the data section.
	if err := la.Line("add x1, x2, x3"); err == nil {
		t.Fatal("instruction accepted in .data section")
	}
	if err := la.Line(".text"); err != nil {
		t.Fatal(err)
	}
	if err := la.Line("halt"); err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Symbol("v"); !ok {
		t.Fatal("data label lost")
	}
	if got := len(p.Segments[0].Data) / 8; got != 4 {
		t.Fatalf("%d instructions, want 4", got)
	}
}

// TestDirectiveSizeCaps: a .space or .align that would grow a segment past
// its cap (text up to the data base, data up to maxData) is a line-attributed
// error, found before anything is allocated; text may still grow right up
// to the data base.
func TestDirectiveSizeCaps(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{".data\n.space 0x4000000000000000", "line 2: "},
		{".data\n.quad 1\n.space 0x3fffff9", "line 3: "},
		{".data\n.quad 1\n.align 0x40000000", "line 3: "},
		{"nop\n.align 0x40000000", "line 2: "},
		{"nop\n.align 0x200000", "line 2: "},
		{"nop\n.align 0x4000000000000000", "line 2: "},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Assemble(tc.src, textBase, dataBase)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Assemble(%q) = %v, want an error starting %q", tc.src, err, tc.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("Assemble(%q) allocated %d bytes before failing", tc.src, n)
		}
	}
	// Up to the cap: text may end at the data base.
	p, err := Assemble(fmt.Sprintf("nop\n.align %#x", dataBase), textBase, dataBase)
	if err != nil {
		t.Fatal(err)
	}
	if end := p.Segments[0].Addr + uint64(len(p.Segments[0].Data)); end != dataBase {
		t.Errorf("text ends at %#x, want the data base %#x", end, uint64(dataBase))
	}
}
