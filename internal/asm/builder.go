package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
)

// ErrUndefinedLabel is wrapped by Build errors for branches, LA references
// and entry symbols that name a label never defined.
var ErrUndefinedLabel = errors.New("asm: undefined label")

// Builder assembles a program incrementally. Code generators call the
// mnemonic helpers; labels may be referenced before they are defined and are
// resolved at Build time.
//
// The zero Builder is not usable; call NewBuilder.
type Builder struct {
	textBase uint64
	insts    []isa.Inst
	fixups   []fixup

	dataBase uint64
	data     []byte

	symbols map[string]uint64
	defined map[string]bool
	marks   []LabelMark
	nextLbl int
	entry   string
	err     error
}

type fixup struct {
	index int    // instruction index
	label string // target label
	kind  fixKind
}

type fixKind int

const (
	fixBranch fixKind = iota // imm = label - instAddr (byte displacement)
	fixAbs                   // imm = absolute address of label (LI / la)
)

// NewBuilder returns a Builder whose text segment starts at textBase and
// whose data segment starts at dataBase.
func NewBuilder(textBase, dataBase uint64) *Builder {
	if textBase%isa.WordBytes != 0 {
		panic("asm: text base must be instruction aligned")
	}
	return &Builder{
		textBase: textBase,
		dataBase: dataBase,
		symbols:  make(map[string]uint64),
		defined:  make(map[string]bool),
	}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return b.textBase + uint64(len(b.insts))*isa.WordBytes }

// setErr records the first error encountered.
func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines name at the current PC.
func (b *Builder) Label(name string) {
	b.marks = append(b.marks, LabelMark{Addr: b.PC(), Name: name})
	b.define(name, b.PC())
}

// NewLabel returns a fresh unique label name (not yet defined).
func (b *Builder) NewLabel(hint string) string {
	b.nextLbl++
	return fmt.Sprintf(".L%s%d", hint, b.nextLbl)
}

// SetEntry selects the program entry symbol. Defaults to the text base.
func (b *Builder) SetEntry(name string) { b.entry = name }

func (b *Builder) define(name string, addr uint64) {
	if b.defined[name] {
		b.setErr(fmt.Errorf("asm: symbol %q redefined", name))
		return
	}
	b.defined[name] = true
	b.symbols[name] = addr
}

// Equ defines name as a constant/address without emitting anything.
func (b *Builder) Equ(name string, value uint64) { b.define(name, value) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

// EmitRef appends an instruction whose immediate refers to a label.
func (b *Builder) EmitRef(in isa.Inst, label string, kind fixKind) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label, kind: kind})
	b.insts = append(b.insts, in)
}

// AlignText pads the text segment with NOPs to an n-byte boundary (n must
// be a multiple of the instruction size).
func (b *Builder) AlignText(n int) {
	if n%isa.WordBytes != 0 {
		b.setErr(fmt.Errorf("asm: text alignment %d not instruction-sized", n))
		return
	}
	for b.PC()%uint64(n) != 0 {
		b.Emit(isa.Inst{Op: isa.NOP})
	}
}

// --- data segment -----------------------------------------------------

// DataPC returns the address of the next data byte.
func (b *Builder) DataPC() uint64 { return b.dataBase + uint64(len(b.data)) }

// AlignData pads the data segment to a multiple of n bytes.
func (b *Builder) AlignData(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// DataLabel defines name at the current data position.
func (b *Builder) DataLabel(name string) { b.define(name, b.DataPC()) }

// Quad appends 64-bit little-endian values to the data segment.
func (b *Builder) Quad(vs ...uint64) {
	for _, v := range vs {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		b.data = append(b.data, buf[:]...)
	}
}

// Double appends float64 values to the data segment.
func (b *Builder) Double(vs ...float64) {
	for _, v := range vs {
		b.Quad(math.Float64bits(v))
	}
}

// Half appends 16-bit little-endian values to the data segment.
func (b *Builder) Half(vs ...uint16) {
	for _, v := range vs {
		b.data = append(b.data, byte(v), byte(v>>8))
	}
}

// Space appends n zero bytes.
func (b *Builder) Space(n int) { b.data = append(b.data, make([]byte, n)...) }

// Bytes appends raw bytes.
func (b *Builder) Bytes(p []byte) { b.data = append(b.data, p...) }

// --- integer ALU --------------------------------------------------------

func (b *Builder) r3(op isa.Opcode, rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) imm2(op isa.Opcode, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

func (b *Builder) ADD(rd, rs1, rs2 uint8)  { b.r3(isa.ADD, rd, rs1, rs2) }
func (b *Builder) SUB(rd, rs1, rs2 uint8)  { b.r3(isa.SUB, rd, rs1, rs2) }
func (b *Builder) MUL(rd, rs1, rs2 uint8)  { b.r3(isa.MUL, rd, rs1, rs2) }
func (b *Builder) DIV(rd, rs1, rs2 uint8)  { b.r3(isa.DIV, rd, rs1, rs2) }
func (b *Builder) REM(rd, rs1, rs2 uint8)  { b.r3(isa.REM, rd, rs1, rs2) }
func (b *Builder) AND(rd, rs1, rs2 uint8)  { b.r3(isa.AND, rd, rs1, rs2) }
func (b *Builder) OR(rd, rs1, rs2 uint8)   { b.r3(isa.OR, rd, rs1, rs2) }
func (b *Builder) XOR(rd, rs1, rs2 uint8)  { b.r3(isa.XOR, rd, rs1, rs2) }
func (b *Builder) SLL(rd, rs1, rs2 uint8)  { b.r3(isa.SLL, rd, rs1, rs2) }
func (b *Builder) SRL(rd, rs1, rs2 uint8)  { b.r3(isa.SRL, rd, rs1, rs2) }
func (b *Builder) SRA(rd, rs1, rs2 uint8)  { b.r3(isa.SRA, rd, rs1, rs2) }
func (b *Builder) SLT(rd, rs1, rs2 uint8)  { b.r3(isa.SLT, rd, rs1, rs2) }
func (b *Builder) SLTU(rd, rs1, rs2 uint8) { b.r3(isa.SLTU, rd, rs1, rs2) }

func (b *Builder) ADDI(rd, rs1 uint8, imm int32) { b.imm2(isa.ADDI, rd, rs1, imm) }
func (b *Builder) ANDI(rd, rs1 uint8, imm int32) { b.imm2(isa.ANDI, rd, rs1, imm) }
func (b *Builder) ORI(rd, rs1 uint8, imm int32)  { b.imm2(isa.ORI, rd, rs1, imm) }
func (b *Builder) XORI(rd, rs1 uint8, imm int32) { b.imm2(isa.XORI, rd, rs1, imm) }
func (b *Builder) SLLI(rd, rs1 uint8, imm int32) { b.imm2(isa.SLLI, rd, rs1, imm) }
func (b *Builder) SRLI(rd, rs1 uint8, imm int32) { b.imm2(isa.SRLI, rd, rs1, imm) }
func (b *Builder) SRAI(rd, rs1 uint8, imm int32) { b.imm2(isa.SRAI, rd, rs1, imm) }
func (b *Builder) SLTI(rd, rs1 uint8, imm int32) { b.imm2(isa.SLTI, rd, rs1, imm) }

// LI loads a constant that must fit in a signed 32-bit immediate.
func (b *Builder) LI(rd uint8, v int64) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		b.setErr(fmt.Errorf("asm: LI constant %d out of 32-bit range", v))
		v = 0
	}
	b.Emit(isa.Inst{Op: isa.LI, Rd: rd, Imm: int32(v)})
}

// LA loads the absolute address of a label (resolved at Build).
func (b *Builder) LA(rd uint8, label string) {
	b.EmitRef(isa.Inst{Op: isa.LI, Rd: rd}, label, fixAbs)
}

// MV copies rs1 into rd.
func (b *Builder) MV(rd, rs1 uint8) { b.ADDI(rd, rs1, 0) }

// --- floating point -----------------------------------------------------

func (b *Builder) FADD(fd, fs1, fs2 uint8) { b.r3(isa.FADD, fd, fs1, fs2) }
func (b *Builder) FSUB(fd, fs1, fs2 uint8) { b.r3(isa.FSUB, fd, fs1, fs2) }
func (b *Builder) FMUL(fd, fs1, fs2 uint8) { b.r3(isa.FMUL, fd, fs1, fs2) }
func (b *Builder) FDIV(fd, fs1, fs2 uint8) { b.r3(isa.FDIV, fd, fs1, fs2) }
func (b *Builder) FNEG(fd, fs1 uint8)      { b.r3(isa.FNEG, fd, fs1, 0) }
func (b *Builder) FABS(fd, fs1 uint8)      { b.r3(isa.FABS, fd, fs1, 0) }
func (b *Builder) FMOV(fd, fs1 uint8)      { b.r3(isa.FMOV, fd, fs1, 0) }
func (b *Builder) FEQ(rd, fs1, fs2 uint8)  { b.r3(isa.FEQ, rd, fs1, fs2) }
func (b *Builder) FLT(rd, fs1, fs2 uint8)  { b.r3(isa.FLT, rd, fs1, fs2) }
func (b *Builder) FLE(rd, fs1, fs2 uint8)  { b.r3(isa.FLE, rd, fs1, fs2) }
func (b *Builder) ITOF(fd, rs1 uint8)      { b.r3(isa.ITOF, fd, rs1, 0) }
func (b *Builder) FTOI(rd, fs1 uint8)      { b.r3(isa.FTOI, rd, fs1, 0) }

// --- memory ---------------------------------------------------------------

func (b *Builder) load(op isa.Opcode, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

func (b *Builder) store(op isa.Opcode, rs2, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm})
}

func (b *Builder) LD(rd, rs1 uint8, imm int32)  { b.load(isa.LD, rd, rs1, imm) }
func (b *Builder) LW(rd, rs1 uint8, imm int32)  { b.load(isa.LW, rd, rs1, imm) }
func (b *Builder) LH(rd, rs1 uint8, imm int32)  { b.load(isa.LH, rd, rs1, imm) }
func (b *Builder) FLD(fd, rs1 uint8, imm int32) { b.load(isa.FLD, fd, rs1, imm) }
func (b *Builder) LL(rd, rs1 uint8, imm int32)  { b.load(isa.LL, rd, rs1, imm) }
func (b *Builder) ST(rs2, rs1 uint8, imm int32) { b.store(isa.ST, rs2, rs1, imm) }
func (b *Builder) SW(rs2, rs1 uint8, imm int32) { b.store(isa.SW, rs2, rs1, imm) }
func (b *Builder) SH(rs2, rs1 uint8, imm int32) { b.store(isa.SH, rs2, rs1, imm) }
func (b *Builder) FST(fs2, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.FST, Rs1: rs1, Rs2: fs2, Imm: imm})
}

// SC is store-conditional: rd receives 1 on success, 0 on failure.
func (b *Builder) SC(rd, rs2, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.SC, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// --- control --------------------------------------------------------------

func (b *Builder) branch(op isa.Opcode, rs1, rs2 uint8, label string) {
	b.EmitRef(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, label, fixBranch)
}

func (b *Builder) BEQ(rs1, rs2 uint8, label string)  { b.branch(isa.BEQ, rs1, rs2, label) }
func (b *Builder) BNE(rs1, rs2 uint8, label string)  { b.branch(isa.BNE, rs1, rs2, label) }
func (b *Builder) BLT(rs1, rs2 uint8, label string)  { b.branch(isa.BLT, rs1, rs2, label) }
func (b *Builder) BGE(rs1, rs2 uint8, label string)  { b.branch(isa.BGE, rs1, rs2, label) }
func (b *Builder) BLTU(rs1, rs2 uint8, label string) { b.branch(isa.BLTU, rs1, rs2, label) }
func (b *Builder) BGEU(rs1, rs2 uint8, label string) { b.branch(isa.BGEU, rs1, rs2, label) }
func (b *Builder) BEQZ(rs1 uint8, label string)      { b.BEQ(rs1, isa.RegZero, label) }
func (b *Builder) BNEZ(rs1 uint8, label string)      { b.BNE(rs1, isa.RegZero, label) }
func (b *Builder) BGT(rs1, rs2 uint8, label string)  { b.BLT(rs2, rs1, label) }
func (b *Builder) BLE(rs1, rs2 uint8, label string)  { b.BGE(rs2, rs1, label) }

// JAL jumps to label, writing the return address to rd.
func (b *Builder) JAL(rd uint8, label string) {
	b.EmitRef(isa.Inst{Op: isa.JAL, Rd: rd}, label, fixBranch)
}

// J is an unconditional jump.
func (b *Builder) J(label string) { b.JAL(isa.RegZero, label) }

// CALL jumps to label, linking through ra.
func (b *Builder) CALL(label string) { b.JAL(isa.RegRA, label) }

// JALR jumps to rs1+imm, writing the return address to rd.
func (b *Builder) JALR(rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: rs1, Imm: imm})
}

// RET returns through ra.
func (b *Builder) RET() { b.JALR(isa.RegZero, isa.RegRA, 0) }

// --- synchronization --------------------------------------------------

func (b *Builder) FENCE()  { b.Emit(isa.Inst{Op: isa.FENCE}) }
func (b *Builder) IFLUSH() { b.Emit(isa.Inst{Op: isa.IFLUSH}) }
func (b *Builder) ICBI(rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.ICBI, Rs1: rs1, Imm: imm})
}
func (b *Builder) DCBI(rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.DCBI, Rs1: rs1, Imm: imm})
}
func (b *Builder) HWBAR(id int32) { b.Emit(isa.Inst{Op: isa.HWBAR, Imm: id}) }

func (b *Builder) NOP()        { b.Emit(isa.Inst{Op: isa.NOP}) }
func (b *Builder) HALT()       { b.Emit(isa.Inst{Op: isa.HALT}) }
func (b *Builder) OUT(r uint8) { b.Emit(isa.Inst{Op: isa.OUT, Rs1: r}) }

// --- build ---------------------------------------------------------------

// Build resolves fixups and returns the linked program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		addr, ok := b.symbols[f.label]
		instAddr := b.textBase + uint64(f.index)*isa.WordBytes
		if !ok {
			// b.marks are appended in PC order, so already sorted as Locate needs.
			site := (&Program{Marks: b.marks}).Locate(instAddr)
			return nil, fmt.Errorf("%w %q (referenced at %s)", ErrUndefinedLabel, f.label, site)
		}
		switch f.kind {
		case fixBranch:
			disp := int64(addr) - int64(instAddr)
			if disp < math.MinInt32 || disp > math.MaxInt32 {
				return nil, fmt.Errorf("asm: branch to %q out of range", f.label)
			}
			b.insts[f.index].Imm = int32(disp)
		case fixAbs:
			if addr > math.MaxInt32 {
				return nil, fmt.Errorf("asm: address of %q does not fit LI immediate", f.label)
			}
			b.insts[f.index].Imm = int32(addr)
		}
	}

	text := make([]byte, len(b.insts)*isa.WordBytes)
	for i, in := range b.insts {
		binary.LittleEndian.PutUint64(text[i*isa.WordBytes:], isa.Encode(in))
	}

	p := &Program{
		Entry:   b.textBase,
		Symbols: make(map[string]uint64, len(b.symbols)),
	}
	for k, v := range b.symbols {
		p.Symbols[k] = v
	}
	if b.entry != "" {
		e, ok := b.symbols[b.entry]
		if !ok {
			return nil, fmt.Errorf("%w %q (entry symbol)", ErrUndefinedLabel, b.entry)
		}
		p.Entry = e
	}
	p.Marks = append(p.Marks, b.marks...)
	if len(text) > 0 {
		p.Segments = append(p.Segments, Segment{Addr: b.textBase, Data: text})
	}
	if len(b.data) > 0 {
		p.Segments = append(p.Segments, Segment{Addr: b.dataBase, Data: b.data})
	}
	return p, nil
}

// MustBuild is Build that panics on error, for code generators whose inputs
// are controlled by this repository.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
