package vet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// unit is one program prepared for analysis: the decoded text segment plus
// the CFG and analysis results layered onto it.
type unit struct {
	p   *asm.Program
	opt Options

	base  uint64     // text segment base address
	insts []isa.Inst // decoded instruction stream

	// CFG, filled by buildCFG.
	succs     [][]int // per-instruction successor indexes
	reachable []bool
	roots     []int // entry + resolved stall-stub roots

	// Basic blocks of the reachable CFG in address order, rebuilt by
	// buildBlocks whenever the root set grows; bid[i] is the id of the
	// block headed at instruction i, -1 for every other instruction.
	blocks []block
	bid    []int32

	// The inferred filter regions (exact ICBI/DCBI targets) of the
	// converged states: they gate the stall-load check and the
	// store-to-arrival-line check.
	regions []regionRec

	// Phase slicing (phase.go): the canonical phase id of each reachable
	// instruction (-1 when unassigned), whether that phase contains a
	// stub-rooted path (its accesses conflict with every phase), and the
	// per-phase certificates.
	phase     []int
	phaseAny  []bool
	phaseInfo []PhaseInfo

	// stats counts fixpoint work for the convergence-bound tests and the
	// widened-domain cost guard (deterministic, unlike wall clock).
	stats struct {
		seeds  int // ascending state changes accepted at a block head
		widens int // changes that went through the widening operator
		visits int // ascending work-list pops

		// The narrowing post-pass accounts separately so the cost guard
		// can bound the ascending domain and the decreasing refinement
		// each on their own terms.
		narrowing bool // a narrow round is running (routes the counters)
		nseeds    int  // state changes accepted while re-growing resets
		nvisits   int  // narrowing work-list pops (both directions)
		narrows   int  // state decreases accepted by narrowOnce
	}

	// entryIdx is the instruction index of the program entry.
	entryIdx int
}

// newUnit locates and decodes the text segment (the segment containing the
// program entry). A program whose entry lies outside every segment, or is
// misaligned, is reported rather than analyzed.
func newUnit(p *asm.Program, opt Options) (*unit, []Diagnostic) {
	for _, seg := range p.Segments {
		if p.Entry < seg.Addr || p.Entry >= seg.Addr+uint64(len(seg.Data)) {
			continue
		}
		if (p.Entry-seg.Addr)%isa.WordBytes != 0 || seg.Addr%isa.WordBytes != 0 {
			return nil, []Diagnostic{{
				Code: CodeNoText, Addr: p.Entry, Pos: p.Locate(p.Entry),
				Msg: "entry is not instruction aligned",
			}}
		}
		u := &unit{p: p, opt: opt, base: seg.Addr}
		for off := 0; off+isa.WordBytes <= len(seg.Data); off += isa.WordBytes {
			u.insts = append(u.insts, isa.Decode(binary.LittleEndian.Uint64(seg.Data[off:])))
		}
		u.entryIdx = int((p.Entry - seg.Addr) / isa.WordBytes)
		if u.entryIdx >= len(u.insts) {
			break // entry in a segment too short to hold an instruction
		}
		return u, nil
	}
	return nil, []Diagnostic{{
		Code: CodeNoText, Addr: p.Entry, Pos: p.Locate(p.Entry),
		Msg: "program entry lies outside every loaded segment",
	}}
}

// addrOf returns the address of instruction index i.
func (u *unit) addrOf(i int) uint64 { return u.base + uint64(i)*isa.WordBytes }

// idxOf resolves a text address to an instruction index.
func (u *unit) idxOf(addr uint64) (int, bool) {
	if addr < u.base || (addr-u.base)%isa.WordBytes != 0 {
		return 0, false
	}
	i := int((addr - u.base) / isa.WordBytes)
	if i >= len(u.insts) {
		return 0, false
	}
	return i, true
}

// diag builds a diagnostic attributed to instruction index i.
func (u *unit) diag(code Code, i int, format string, args ...any) Diagnostic {
	addr := u.addrOf(i)
	return Diagnostic{
		Code: code, Addr: addr, Pos: u.p.Locate(addr), Phase: u.phaseAt(i),
		Msg: fmt.Sprintf(format, args...),
	}
}

// phaseAt returns instruction i's phase id, or -1 when phases have not been
// computed (structural passes) or the instruction has none.
func (u *unit) phaseAt(i int) int {
	if u.phase == nil || i < 0 || i >= len(u.phase) {
		return -1
	}
	return u.phase[i]
}

// locateAddr renders an arbitrary address with its nearest label, matching
// the wording core.Machine uses in deadlock reports ("0x10008(bar+1)"), so
// diagnostics about computed targets stay navigable.
func (u *unit) locateAddr(a uint64) string {
	if loc := u.p.Locate(a); loc != fmt.Sprintf("%#x", a) {
		return fmt.Sprintf("%#x(%s)", a, loc)
	}
	return fmt.Sprintf("%#x", a)
}
