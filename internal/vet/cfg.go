package vet

import (
	"slices"

	"repro/internal/isa"
)

// buildCFG computes per-instruction successor lists and entry reachability,
// reporting structural problems (undecodable reachable words, branches out
// of text, paths running off the end of text). Indirect stall-stub targets
// are resolved later by the protocol pass, which extends u.roots; dead-code
// reporting therefore runs last (checkDeadCode).
func (u *unit) buildCFG() []Diagnostic {
	u.succs = make([][]int, len(u.insts))
	badBranch := make([]bool, len(u.insts))
	badTarget := make([]uint64, len(u.insts))
	fallsOff := make([]bool, len(u.insts))
	for i, in := range u.insts {
		addr := u.addrOf(i)
		fall := func() {
			if i+1 < len(u.insts) {
				u.succs[i] = append(u.succs[i], i+1)
			} else {
				fallsOff[i] = true
			}
		}
		switch {
		case in.Op == isa.BAD:
			// Undecodable word: reported if reachable, never executed past.
		case in.Op == isa.HALT:
			// Terminator.
		case in.IsCondBranch():
			if t, ok := in.BranchTarget(addr); ok {
				if ti, ok := u.idxOf(t); ok {
					u.succs[i] = append(u.succs[i], ti)
				} else {
					badBranch[i], badTarget[i] = true, t
				}
			}
			fall()
		case in.Op == isa.JAL:
			t, _ := in.BranchTarget(addr)
			if ti, ok := u.idxOf(t); ok {
				u.succs[i] = append(u.succs[i], ti)
			} else {
				badBranch[i], badTarget[i] = true, t
			}
			if in.Rd == isa.RegRA {
				// A linked call: the callee returns to the fall-through.
				fall()
			}
		case in.Op == isa.JALR:
			if in.Rd == isa.RegRA {
				// Indirect call (the barrier-filter stall jump): control
				// resumes at the fall-through when the stub returns. The
				// protocol pass resolves the per-thread stub targets and
				// registers them as analysis roots.
				fall()
			}
			// rd=x0: a return (rs1=ra) or an unresolvable indirect jump —
			// a path terminator either way.
		default:
			fall()
		}
	}

	u.roots = []int{u.entryIdx}
	u.reachable = make([]bool, len(u.insts))
	u.mark(u.entryIdx)

	var ds []Diagnostic
	for i, in := range u.insts {
		if !u.reachable[i] {
			continue
		}
		if in.Op == isa.BAD {
			ds = append(ds, u.diag(CodeBadOpcode, i, "reachable word does not decode"))
		}
		if badBranch[i] {
			ds = append(ds, u.diag(CodeBadBranch, i,
				"%s targets %s, outside the text segment", in, u.locateAddr(badTarget[i])))
		}
		if fallsOff[i] {
			ds = append(ds, u.diag(CodeFallOffEnd, i, "execution can run past the end of the text segment without halt"))
		}
	}
	return ds
}

// mark extends u.reachable with everything reachable from instruction i.
// Reachability only grows, so a new root costs only what it newly reaches.
func (u *unit) mark(i int) {
	work := []int{i}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if !u.reachable[i] {
			u.reachable[i] = true
			work = append(work, u.succs[i]...)
		}
	}
}

// addRoot registers an additional analysis root (a resolved stall stub),
// extends reachability from it, and reports whether it was new.
func (u *unit) addRoot(i int) bool {
	if slices.Contains(u.roots, i) {
		return false
	}
	u.roots = append(u.roots, i)
	u.mark(i)
	return true
}

// block is one basic block: instructions head..end, entered only at head.
type block struct {
	head, end int
	root      bool // head is the entry or a stub root: seeded with entryState
}

// buildBlocks partitions the reachable instructions into basic blocks. A
// head is the entry, a root, or an instruction whose reachable in-edges
// are not exactly one plain fall-through from the instruction before it —
// a branch or jump target, the instruction after a branch, jump or HALT,
// a join. Every CFG cycle therefore passes through a head.
func (u *unit) buildBlocks() {
	if u.bid == nil {
		u.bid = make([]int32, len(u.insts))
	}
	// bid first holds each instruction's in-edge weight: a plain
	// fall-through from the instruction before counts 1, any other
	// reachable edge 2, and a root is marked 3. Weight 1 is a non-head.
	in := u.bid
	clear(in)
	for i, ok := range u.reachable {
		if !ok {
			continue
		}
		for _, sc := range u.succs[i] {
			if sc == i+1 && len(u.succs[i]) == 1 {
				in[sc] = min(in[sc]+1, 2)
			} else {
				in[sc] = 2
			}
		}
	}
	for _, r := range u.roots {
		in[r] = 3
	}
	u.blocks = u.blocks[:0]
	for i, w := range in {
		if !u.reachable[i] || w == 1 {
			u.bid[i] = -1
			continue
		}
		u.bid[i] = int32(len(u.blocks))
		u.blocks = append(u.blocks, block{head: i, root: w == 3})
	}
	for b := range u.blocks {
		i := u.blocks[b].head
		for len(u.succs[i]) == 1 && u.succs[i][0] == i+1 && u.bid[i+1] < 0 {
			i++
		}
		u.blocks[b].end = i
	}
}

// checkDeadCode reports reachable-from-nowhere instructions. NOP padding
// (alignment, stub spacing), undecodable words, and bare RETs are exempt —
// a lone RET is the ping-pong I-filter's whole stall stub, and its address
// reaches the stall jump through a register rotation the affine domain
// widens away, so it cannot be resolved as a root. Only the first
// instruction of each maximal dead run is reported to keep the output
// proportional to the number of problems, not their size.
func (u *unit) checkDeadCode() []Diagnostic {
	isRET := func(in isa.Inst) bool {
		return in.Op == isa.JALR && in.Rd == isa.RegZero && in.Rs1 == isa.RegRA && in.Imm == 0
	}
	var ds []Diagnostic
	inRun := false
	for i, in := range u.insts {
		if u.reachable[i] || in.Op == isa.NOP || in.Op == isa.BAD || isRET(in) {
			inRun = false
			continue
		}
		if !inRun {
			ds = append(ds, u.diag(CodeDeadCode, i, "unreachable instruction %s", in))
			inRun = true
		}
	}
	return ds
}
