// Package isa defines SRISC, the simulated RISC instruction set executed by
// the CMP cores in this repository.
//
// SRISC is deliberately Alpha/RISC-V-flavoured: 32 64-bit integer registers
// (x0 hardwired to zero), 32 float64 registers, and fixed-width 64-bit
// instruction words so that a 64-byte cache line holds exactly eight
// instructions. On top of the usual ALU/memory/branch repertoire it provides
// the synchronization primitives the paper's barrier sequences require:
//
//   - LL/SC     load-linked / store-conditional (Alpha ldq_l / stq_c)
//   - FENCE    full memory fence (Alpha mb, PowerPC sync/dsync)
//   - IFLUSH   discard fetched/prefetched instructions (PowerPC isync)
//   - ICBI     invalidate the instruction-cache line holding an address
//   - DCBI     write back (if dirty) and invalidate a data-cache line
//   - HWBAR    dedicated-barrier-network arrival (the Beckmann/
//     Polychronopoulos baseline; not used by barrier filters)
//
// Instruction word layout (big to little):
//
//	[63:56] opcode   [55:51] rd   [50:46] rs1   [45:41] rs2
//	[40:32] reserved [31:0]  imm (two's-complement int32)
package isa

import "fmt"

// WordBytes is the size of one instruction word in memory.
const WordBytes = 8

// NumIntRegs and NumFPRegs give the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Opcode identifies an SRISC instruction.
type Opcode uint8

// Integer register-register ALU operations.
const (
	BAD Opcode = iota // zero word decodes to an illegal instruction

	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Integer register-immediate ALU operations (imm sign-extended).
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LI // rd = signext(imm32)

	// Floating point (float64) operations on f registers.
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FMOV
	FEQ // rd(int) = fs1 == fs2
	FLT // rd(int) = fs1 <  fs2
	FLE // rd(int) = fs1 <= fs2
	ITOF
	FTOI

	// Memory. Effective address is rs1 + signext(imm).
	LD  // 64-bit integer load
	LW  // 32-bit load, sign-extended
	LH  // 16-bit load, sign-extended
	ST  // 64-bit store of rs2
	SW  // 32-bit store of rs2
	SH  // 16-bit store of rs2
	FLD // float64 load into fd
	FST // float64 store of fs2
	LL  // load-linked 64-bit
	SC  // store-conditional 64-bit: rd = 1 on success, 0 on failure

	// Control. Branch/jump displacements are in bytes relative to the
	// branch's own address.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL  // rd = return address; pc += imm
	JALR // rd = return address; pc = rs1 + imm

	// Synchronization and cache control.
	FENCE  // order: all prior memory operations complete first
	IFLUSH // discard fetch buffer / prefetched instructions, refetch
	ICBI   // invalidate I-cache line at rs1+imm, propagate below L1
	DCBI   // writeback+invalidate D-cache line at rs1+imm, propagate
	HWBAR  // dedicated barrier network arrival; imm = barrier id

	// Miscellaneous.
	NOP
	HALT
	OUT // append rs1's value to the core's console (debug/examples)

	numOpcodes
)

// Class groups opcodes by the pipeline resources they use.
type Class int

const (
	ClassALU     Class = iota // 1-cycle integer
	ClassMul                  // integer multiply
	ClassDiv                  // integer divide / remainder
	ClassFPAdd                // FP add/sub/compare/convert/move
	ClassFPMul                // FP multiply
	ClassFPDiv                // FP divide
	ClassLoad                 // memory read
	ClassStore                // memory write
	ClassCacheOp              // ICBI / DCBI
	ClassBranch               // conditional branch
	ClassJump                 // JAL / JALR
	ClassFence                // FENCE
	ClassIFlush               // IFLUSH
	ClassHWBar                // HWBAR
	ClassHalt                 // HALT
	ClassOther                // NOP, OUT
)

// Info describes the static properties of one opcode.
//
// Form is the operand syntax, one letter per operand in source order; the
// disassembler prints it and the text assembler parses it:
//
//	d  rd          s  rs1          t  rs2
//	i  imm         m  imm(rs1)     L  label: imm is its PC-relative displacement
//
// A d, s or t operand is an FP register where the flags say the opcode
// writes fd or reads fs1 or fs2 (see FPOperand), an integer register
// otherwise; the base of m is always an integer register.
type Info struct {
	Name     string
	Form     string
	Class    Class
	ReadsR1  bool // reads integer rs1
	ReadsR2  bool // reads integer rs2
	ReadsF1  bool // reads fp rs1
	ReadsF2  bool // reads fp rs2
	WritesRd bool // writes integer rd
	WritesFd bool // writes fp rd
	MemBytes int  // memory access size (loads/stores)
}

var infos = [numOpcodes]Info{
	BAD: {Name: "bad", Form: "", Class: ClassOther},

	ADD:  {Name: "add", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SUB:  {Name: "sub", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	MUL:  {Name: "mul", Form: "dst", Class: ClassMul, ReadsR1: true, ReadsR2: true, WritesRd: true},
	DIV:  {Name: "div", Form: "dst", Class: ClassDiv, ReadsR1: true, ReadsR2: true, WritesRd: true},
	REM:  {Name: "rem", Form: "dst", Class: ClassDiv, ReadsR1: true, ReadsR2: true, WritesRd: true},
	AND:  {Name: "and", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	OR:   {Name: "or", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	XOR:  {Name: "xor", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SLL:  {Name: "sll", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SRL:  {Name: "srl", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SRA:  {Name: "sra", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SLT:  {Name: "slt", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},
	SLTU: {Name: "sltu", Form: "dst", Class: ClassALU, ReadsR1: true, ReadsR2: true, WritesRd: true},

	ADDI: {Name: "addi", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	ANDI: {Name: "andi", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	ORI:  {Name: "ori", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	XORI: {Name: "xori", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	SLLI: {Name: "slli", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	SRLI: {Name: "srli", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	SRAI: {Name: "srai", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	SLTI: {Name: "slti", Form: "dsi", Class: ClassALU, ReadsR1: true, WritesRd: true},
	LI:   {Name: "li", Form: "di", Class: ClassALU, WritesRd: true},

	FADD: {Name: "fadd", Form: "dst", Class: ClassFPAdd, ReadsF1: true, ReadsF2: true, WritesFd: true},
	FSUB: {Name: "fsub", Form: "dst", Class: ClassFPAdd, ReadsF1: true, ReadsF2: true, WritesFd: true},
	FMUL: {Name: "fmul", Form: "dst", Class: ClassFPMul, ReadsF1: true, ReadsF2: true, WritesFd: true},
	FDIV: {Name: "fdiv", Form: "dst", Class: ClassFPDiv, ReadsF1: true, ReadsF2: true, WritesFd: true},
	FNEG: {Name: "fneg", Form: "ds", Class: ClassFPAdd, ReadsF1: true, WritesFd: true},
	FABS: {Name: "fabs", Form: "ds", Class: ClassFPAdd, ReadsF1: true, WritesFd: true},
	FMOV: {Name: "fmov", Form: "ds", Class: ClassFPAdd, ReadsF1: true, WritesFd: true},
	FEQ:  {Name: "feq", Form: "dst", Class: ClassFPAdd, ReadsF1: true, ReadsF2: true, WritesRd: true},
	FLT:  {Name: "flt", Form: "dst", Class: ClassFPAdd, ReadsF1: true, ReadsF2: true, WritesRd: true},
	FLE:  {Name: "fle", Form: "dst", Class: ClassFPAdd, ReadsF1: true, ReadsF2: true, WritesRd: true},
	ITOF: {Name: "itof", Form: "ds", Class: ClassFPAdd, ReadsR1: true, WritesFd: true},
	FTOI: {Name: "ftoi", Form: "ds", Class: ClassFPAdd, ReadsF1: true, WritesRd: true},

	LD:  {Name: "ld", Form: "dm", Class: ClassLoad, ReadsR1: true, WritesRd: true, MemBytes: 8},
	LW:  {Name: "lw", Form: "dm", Class: ClassLoad, ReadsR1: true, WritesRd: true, MemBytes: 4},
	LH:  {Name: "lh", Form: "dm", Class: ClassLoad, ReadsR1: true, WritesRd: true, MemBytes: 2},
	ST:  {Name: "st", Form: "tm", Class: ClassStore, ReadsR1: true, ReadsR2: true, MemBytes: 8},
	SW:  {Name: "sw", Form: "tm", Class: ClassStore, ReadsR1: true, ReadsR2: true, MemBytes: 4},
	SH:  {Name: "sh", Form: "tm", Class: ClassStore, ReadsR1: true, ReadsR2: true, MemBytes: 2},
	FLD: {Name: "fld", Form: "dm", Class: ClassLoad, ReadsR1: true, WritesFd: true, MemBytes: 8},
	FST: {Name: "fst", Form: "tm", Class: ClassStore, ReadsR1: true, ReadsF2: true, MemBytes: 8},
	LL:  {Name: "ll", Form: "dm", Class: ClassLoad, ReadsR1: true, WritesRd: true, MemBytes: 8},
	SC:  {Name: "sc", Form: "dtm", Class: ClassStore, ReadsR1: true, ReadsR2: true, WritesRd: true, MemBytes: 8},

	BEQ:  {Name: "beq", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	BNE:  {Name: "bne", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	BLT:  {Name: "blt", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	BGE:  {Name: "bge", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	BLTU: {Name: "bltu", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	BGEU: {Name: "bgeu", Form: "stL", Class: ClassBranch, ReadsR1: true, ReadsR2: true},
	JAL:  {Name: "jal", Form: "dL", Class: ClassJump, WritesRd: true},
	JALR: {Name: "jalr", Form: "dm", Class: ClassJump, ReadsR1: true, WritesRd: true},

	FENCE:  {Name: "fence", Form: "", Class: ClassFence},
	IFLUSH: {Name: "iflush", Form: "", Class: ClassIFlush},
	ICBI:   {Name: "icbi", Form: "m", Class: ClassCacheOp, ReadsR1: true},
	DCBI:   {Name: "dcbi", Form: "m", Class: ClassCacheOp, ReadsR1: true},
	HWBAR:  {Name: "hwbar", Form: "i", Class: ClassHWBar},

	NOP:  {Name: "nop", Form: "", Class: ClassOther},
	HALT: {Name: "halt", Form: "", Class: ClassHalt},
	OUT:  {Name: "out", Form: "s", Class: ClassOther, ReadsR1: true},
}

// Lookup returns the Info for op. Unknown opcodes report as BAD.
func Lookup(op Opcode) Info {
	if int(op) >= len(infos) {
		return infos[BAD]
	}
	return infos[op]
}

// String returns the mnemonic for op.
func (op Opcode) String() string { return Lookup(op).Name }

// ByName returns the opcode whose mnemonic is name. BAD has no mnemonic.
func ByName(name string) (Opcode, bool) {
	for op := BAD + 1; op < numOpcodes; op++ {
		if infos[op].Name == name {
			return op, true
		}
	}
	return BAD, false
}

// FPOperand reports whether the register operand that form letter c names
// ('d', 's' or 't') is an FP register.
func (inf Info) FPOperand(c byte) bool {
	switch c {
	case 'd':
		return inf.WritesFd
	case 's':
		return inf.ReadsF1
	case 't':
		return inf.ReadsF2
	}
	return false
}

// Inst is one decoded SRISC instruction.
type Inst struct {
	Op  Opcode
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Encode packs the instruction into its 64-bit memory representation.
func Encode(in Inst) uint64 {
	return uint64(in.Op)<<56 |
		uint64(in.Rd&31)<<51 |
		uint64(in.Rs1&31)<<46 |
		uint64(in.Rs2&31)<<41 |
		uint64(uint32(in.Imm))
}

// Decode unpacks a 64-bit word. Unknown opcode bits decode to BAD, which the
// pipeline raises as an illegal-instruction fault at commit.
func Decode(w uint64) Inst {
	in := Inst{
		Op:  Opcode(w >> 56),
		Rd:  uint8(w>>51) & 31,
		Rs1: uint8(w>>46) & 31,
		Rs2: uint8(w>>41) & 31,
		Imm: int32(uint32(w)),
	}
	if in.Op >= numOpcodes {
		in.Op = BAD
	}
	return in
}

// IsMem reports whether the instruction reads or writes data memory
// (including LL/SC but not cache-control ops).
func (in Inst) IsMem() bool {
	c := Lookup(in.Op).Class
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether the instruction reads data memory (LD/LW/LH/FLD/LL).
func (in Inst) IsLoad() bool { return Lookup(in.Op).Class == ClassLoad }

// IsStore reports whether the instruction writes data memory
// (ST/SW/SH/FST/SC).
func (in Inst) IsStore() bool { return Lookup(in.Op).Class == ClassStore }

// IsInval reports whether the instruction invalidates a cache line (the
// barrier-filter arrival/exit signals ICBI and DCBI).
func (in Inst) IsInval() bool { return in.Op == ICBI || in.Op == DCBI }

// IsCondBranch reports whether the instruction is a conditional branch.
func (in Inst) IsCondBranch() bool { return Lookup(in.Op).Class == ClassBranch }

// BranchTarget returns the statically known control target of a branch or
// JAL at address pc. It reports false for non-control instructions and for
// JALR (whose target is a register value).
func (in Inst) BranchTarget(pc uint64) (uint64, bool) {
	switch Lookup(in.Op).Class {
	case ClassBranch:
		return pc + uint64(int64(in.Imm)), true
	case ClassJump:
		if in.Op == JAL {
			return pc + uint64(int64(in.Imm)), true
		}
	}
	return 0, false
}

// UsesInt returns a bitmask of the integer registers the instruction reads.
func (in Inst) UsesInt() uint32 {
	inf := Lookup(in.Op)
	var m uint32
	if inf.ReadsR1 {
		m |= 1 << (in.Rs1 & 31)
	}
	if inf.ReadsR2 {
		m |= 1 << (in.Rs2 & 31)
	}
	return m
}

// UsesFP returns a bitmask of the FP registers the instruction reads.
func (in Inst) UsesFP() uint32 {
	inf := Lookup(in.Op)
	var m uint32
	if inf.ReadsF1 {
		m |= 1 << (in.Rs1 & 31)
	}
	if inf.ReadsF2 {
		m |= 1 << (in.Rs2 & 31)
	}
	return m
}

// DefInt returns the integer register the instruction defines. Writes to x0
// are discarded by the hardware and report as no definition.
func (in Inst) DefInt() (uint8, bool) {
	if Lookup(in.Op).WritesRd && in.Rd != RegZero {
		return in.Rd, true
	}
	return 0, false
}

// DefFP returns the FP register the instruction defines.
func (in Inst) DefFP() (uint8, bool) {
	if Lookup(in.Op).WritesFd {
		return in.Rd, true
	}
	return 0, false
}

// IsCtrl reports whether the instruction can redirect the PC.
func (in Inst) IsCtrl() bool {
	c := Lookup(in.Op).Class
	return c == ClassBranch || c == ClassJump
}

// String disassembles the instruction in the syntax the text assembler
// reads, except that an L operand prints as its displacement.
func (in Inst) String() string {
	inf := Lookup(in.Op)
	reg := func(c byte, r uint8) string {
		if inf.FPOperand(c) {
			return fmt.Sprintf("f%d", r)
		}
		return fmt.Sprintf("x%d", r)
	}
	s, sep := inf.Name, " "
	for i := 0; i < len(inf.Form); i++ {
		s += sep
		sep = ", "
		switch c := inf.Form[i]; c {
		case 'd':
			s += reg(c, in.Rd)
		case 's':
			s += reg(c, in.Rs1)
		case 't':
			s += reg(c, in.Rs2)
		case 'i':
			s += fmt.Sprint(in.Imm)
		case 'm':
			s += fmt.Sprintf("%d(x%d)", in.Imm, in.Rs1)
		case 'L':
			s += fmt.Sprintf("%+d", in.Imm)
		}
	}
	return s
}
