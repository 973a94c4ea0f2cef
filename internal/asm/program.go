// Package asm builds SRISC programs. It provides two front-ends over the
// same machinery:
//
//   - Builder: a programmatic emitter with labels and pseudo-instructions,
//     used by the kernel and barrier code generators in this repository.
//   - Assemble: a small two-pass text assembler for hand-written programs
//     (examples, tests, cmd/srisc-as).
//
// The output of both is a Program: a set of memory segments plus a symbol
// table, ready to be loaded into the simulated machine's physical memory.
package asm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Segment is a contiguous chunk of initialized memory.
type Segment struct {
	Addr uint64
	Data []byte
}

// LabelMark records one text-segment label definition, attributing encoded
// instructions back to the build site that emitted them. Diagnostics (vet,
// runtime faults) use the marks to print "label+offset" instead of a bare
// PC.
type LabelMark struct {
	Addr uint64
	Name string
}

// Program is a fully linked SRISC program image.
type Program struct {
	Entry    uint64
	Segments []Segment
	Symbols  map[string]uint64
	// Marks lists text label definitions sorted by address (several labels
	// may share an address; the innermost — latest defined — sorts last).
	Marks []LabelMark
}

// Locate renders addr as "label+offset" using the innermost text label at
// or before addr, with the offset counted in instructions. Addresses before
// the first label render as bare hex.
func (p *Program) Locate(addr uint64) string {
	i := sort.Search(len(p.Marks), func(i int) bool { return p.Marks[i].Addr > addr })
	if i == 0 {
		return fmt.Sprintf("%#x", addr)
	}
	m := p.Marks[i-1]
	if off := (addr - m.Addr) / isa.WordBytes; off != 0 {
		return fmt.Sprintf("%s+%d", m.Name, off)
	}
	return m.Name
}

// Symbol returns the address of a defined symbol.
func (p *Program) Symbol(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol is Symbol that panics on missing symbols; used by test and
// harness code where a missing symbol is a programming error.
func (p *Program) MustSymbol(name string) uint64 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// Disassemble renders the text segment starting at addr for n instructions,
// for debugging.
func (p *Program) Disassemble(addr uint64, n int) string {
	var out strings.Builder
	for _, seg := range p.Segments {
		if addr < seg.Addr || addr >= seg.Addr+uint64(len(seg.Data)) {
			continue
		}
		off := addr - seg.Addr
		for i := 0; i < n && int(off)+8 <= len(seg.Data); i++ {
			w := binary.LittleEndian.Uint64(seg.Data[off:])
			fmt.Fprintf(&out, "%08x: %s\n", seg.Addr+off, isa.Decode(w))
			off += 8
		}
	}
	return out.String()
}

// sortedSymbols returns symbol names sorted by address (for listings).
func (p *Program) sortedSymbols() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Listing renders the symbol table, for debugging.
func (p *Program) Listing() string {
	out := fmt.Sprintf("entry %#x\n", p.Entry)
	for _, n := range p.sortedSymbols() {
		out += fmt.Sprintf("%10x  %s\n", p.Symbols[n], n)
	}
	return out
}
