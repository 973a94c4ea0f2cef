package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble translates SRISC assembly text into a Program.
//
// Syntax, one statement per line:
//
//	label:                     define a label at the current position
//	mnemonic op1, op2, ...     instruction (see below)
//	.text | .data              switch section
//	.align N                   pad the current section to N-byte alignment
//	                           (.text pads with nop; N a multiple of 8)
//	                           without growing text past the data base
//	                           or data past 64 MiB
//	.quad v, ...               emit 64-bit values (data section)
//	.double v, ...             emit float64 values
//	.space N                   emit N zero data bytes, up to 64 MiB of data
//	.equ name, value           define a constant
//	.entry name                select the entry symbol
//	# ... or // ...            comment
//
// An instruction's operands are those its isa.Info.Form names: registers,
// 32-bit immediates, memory operands written imm(reg) or (reg), and labels
// as branch and jump targets. Besides isa's opcodes the assembler accepts
// the pseudo-instructions in pseudos: `la rd, sym` loads the address of a
// symbol, `mv`, `beqz`, `bnez`, `bgt`, `ble`, `j`, `call` and `ret` are
// the usual shorthands.
func Assemble(src string, textBase, dataBase uint64) (*Program, error) {
	b := NewBuilder(textBase, dataBase)
	la := NewLineAssembler(b)
	for lineno, raw := range strings.Split(src, "\n") {
		if err := la.Line(raw); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno+1, err)
		}
	}
	return b.Build()
}

// LineAssembler feeds assembly text to a Builder one line at a time,
// tracking the current section. It lets callers interleave textual assembly
// with programmatic emission (cmd/cmpsim expands a `barrier`
// pseudo-instruction this way).
type LineAssembler struct {
	b       *Builder
	section string
}

// NewLineAssembler wraps a builder, starting in the .text section.
func NewLineAssembler(b *Builder) *LineAssembler {
	return &LineAssembler{b: b, section: ".text"}
}

// Line assembles one source line (labels, directive or instruction).
func (la *LineAssembler) Line(raw string) error {
	line := Statement(raw)
	if line == "" {
		return nil
	}
	// Labels, possibly several on one line before an instruction.
	for {
		i := strings.Index(line, ":")
		if i < 0 {
			break
		}
		head := strings.TrimSpace(line[:i])
		if head == "" || strings.ContainsAny(head, " \t,()") {
			break
		}
		if la.section == ".text" {
			la.b.Label(head)
		} else {
			la.b.DataLabel(head)
		}
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}
	return assembleStmt(la.b, &la.section, line)
}

// MustAssemble panics on error; for tests and examples with fixed sources.
func MustAssemble(src string, textBase, dataBase uint64) *Program {
	p, err := Assemble(src, textBase, dataBase)
	if err != nil {
		panic(err)
	}
	return p
}

// Statement returns what a source line holds without its comment (from
// `#` or `//` to the end of the line) and surrounding space.
func Statement(line string) string {
	line, _, _ = strings.Cut(line, "#")
	line, _, _ = strings.Cut(line, "//")
	return strings.TrimSpace(line)
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func assembleStmt(b *Builder, section *string, line string) error {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnem = strings.ToLower(mnem)
	ops := splitOperands(rest)

	if strings.HasPrefix(mnem, ".") {
		return assembleDirective(b, section, mnem, ops)
	}
	if *section != ".text" {
		return fmt.Errorf("instruction %q outside .text", mnem)
	}
	return assembleInst(b, mnem, ops)
}

func assembleDirective(b *Builder, section *string, mnem string, ops []string) error {
	switch mnem {
	case ".text", ".data":
		*section = mnem
		return nil
	case ".align":
		if len(ops) != 1 {
			return fmt.Errorf(".align wants 1 operand")
		}
		n, err := parseInt(ops[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad .align operand %q", ops[0])
		}
		if *section == ".data" {
			if err := checkData(mnem, ops[0], alignUp(uint64(len(b.data)), uint64(n))); err != nil {
				return err
			}
			b.AlignData(int(n))
		} else {
			if end := alignUp(b.PC(), uint64(n)); end > textLimit(b) {
				return fmt.Errorf(".align %s would grow text to %#x, past %#x", ops[0], end, textLimit(b))
			}
			b.AlignText(int(n))
		}
		return nil
	case ".quad":
		for _, o := range ops {
			v, err := parseInt(o)
			if err != nil {
				return err
			}
			b.Quad(uint64(v))
		}
		return nil
	case ".double":
		for _, o := range ops {
			f, err := strconv.ParseFloat(o, 64)
			if err != nil {
				return err
			}
			b.Double(f)
		}
		return nil
	case ".space":
		if len(ops) != 1 {
			return fmt.Errorf(".space wants 1 operand")
		}
		n, err := parseInt(ops[0])
		if err != nil || n < 0 {
			return fmt.Errorf("bad .space operand %q", ops[0])
		}
		if err := checkData(mnem, ops[0], uint64(len(b.data))+uint64(n)); err != nil {
			return err
		}
		b.Space(int(n))
		return nil
	case ".equ":
		if len(ops) != 2 {
			return fmt.Errorf(".equ wants name, value")
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return err
		}
		b.Equ(ops[0], uint64(v))
		return nil
	case ".entry":
		if len(ops) != 1 {
			return fmt.Errorf(".entry wants 1 operand")
		}
		b.SetEntry(ops[0])
		return nil
	}
	return fmt.Errorf("unknown directive %q", mnem)
}

// maxData (64 MiB) is the most data a source may lay out with .space and
// .align: a directive that would grow the data segment past it is rejected
// before anything is allocated. The text segment may grow up to the data
// base (when the data lies above it), or by as much.
const maxData = 64 << 20

// alignUp rounds v up to a multiple of n (n > 0; no overflow for v, n below
// 2^63).
func alignUp(v, n uint64) uint64 { return (v + n - 1) / n * n }

// checkData rejects a directive that would grow the data segment to size
// bytes, past maxData.
func checkData(mnem, op string, size uint64) error {
	if size > maxData {
		return fmt.Errorf("%s %s would grow data to %d bytes, past %d", mnem, op, size, maxData)
	}
	return nil
}

// textLimit is the address the text segment may not grow past.
func textLimit(b *Builder) uint64 {
	if b.dataBase > b.textBase {
		return b.dataBase
	}
	return b.textBase + maxData
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// parseImm parses an instruction immediate, which must fit in 32 bits
// signed. parseInt wraps modulo 2^64 (0xffffffffffffffff is -1), so a value
// whose sign differs from the literal's is out of range too.
func parseImm(s string) (int32, error) {
	v, err := parseInt(s)
	if err != nil {
		return 0, err
	}
	neg := strings.HasPrefix(strings.TrimSpace(s), "-")
	if v != int64(int32(v)) || v < 0 && !neg || v > 0 && neg {
		return 0, fmt.Errorf("immediate %s out of 32-bit range", s)
	}
	return int32(v), nil
}

// parseMem parses "imm(reg)" or "(reg)".
func parseMem(s string) (uint8, int32, error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open || close != len(s)-1 {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	reg, err := isa.ParseIntReg(strings.TrimSpace(s[open+1 : close]))
	if err != nil {
		return 0, 0, err
	}
	var imm int32
	if immStr := strings.TrimSpace(s[:open]); immStr != "" {
		imm, err = parseImm(immStr)
	}
	return reg, imm, err
}

// parseOperands parses ops as inf.Form spells them into an instruction's
// fields, returning the label an L operand names.
func parseOperands(inf isa.Info, ops []string) (in isa.Inst, label string, err error) {
	if len(ops) != len(inf.Form) {
		return in, "", fmt.Errorf("%s wants %d operands, got %d", inf.Name, len(inf.Form), len(ops))
	}
	reg := func(c byte, s string) (uint8, error) {
		if inf.FPOperand(c) {
			return isa.ParseFPReg(s)
		}
		return isa.ParseIntReg(s)
	}
	for i, o := range ops {
		switch c := inf.Form[i]; c {
		case 'd':
			in.Rd, err = reg(c, o)
		case 's':
			in.Rs1, err = reg(c, o)
		case 't':
			in.Rs2, err = reg(c, o)
		case 'i':
			in.Imm, err = parseImm(o)
		case 'm':
			in.Rs1, in.Imm, err = parseMem(o)
		case 'L':
			label = o
		}
		if err != nil {
			return in, "", err
		}
	}
	return in, label, nil
}

// pseudos are the instructions isa's table does not hold: each is a form
// over integer registers and the Builder call it makes.
var pseudos = map[string]struct {
	form string
	emit func(b *Builder, in isa.Inst, label string)
}{
	"la":   {"dL", func(b *Builder, in isa.Inst, l string) { b.LA(in.Rd, l) }},
	"mv":   {"ds", func(b *Builder, in isa.Inst, _ string) { b.MV(in.Rd, in.Rs1) }},
	"beqz": {"sL", func(b *Builder, in isa.Inst, l string) { b.BEQZ(in.Rs1, l) }},
	"bnez": {"sL", func(b *Builder, in isa.Inst, l string) { b.BNEZ(in.Rs1, l) }},
	"bgt":  {"stL", func(b *Builder, in isa.Inst, l string) { b.BGT(in.Rs1, in.Rs2, l) }},
	"ble":  {"stL", func(b *Builder, in isa.Inst, l string) { b.BLE(in.Rs1, in.Rs2, l) }},
	"j":    {"L", func(b *Builder, _ isa.Inst, l string) { b.J(l) }},
	"call": {"L", func(b *Builder, _ isa.Inst, l string) { b.CALL(l) }},
	"ret":  {"", func(b *Builder, _ isa.Inst, _ string) { b.RET() }},
}

// assembleInst emits one instruction: a pseudo-instruction through its
// Builder call, an isa opcode as its form's fields, referring to its label
// if the form has one.
func assembleInst(b *Builder, mnem string, ops []string) error {
	if p, ok := pseudos[mnem]; ok {
		in, label, err := parseOperands(isa.Info{Name: mnem, Form: p.form}, ops)
		if err == nil {
			p.emit(b, in, label)
		}
		return err
	}
	op, ok := isa.ByName(mnem)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	inf := isa.Lookup(op)
	in, label, err := parseOperands(inf, ops)
	if err != nil {
		return err
	}
	in.Op = op
	if strings.Contains(inf.Form, "L") {
		b.EmitRef(in, label, fixBranch)
	} else {
		b.Emit(in)
	}
	return nil
}
