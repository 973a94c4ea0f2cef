package barrier

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/isa"
)

// Hardware-lock code generation: the software half of the sync engine's
// lock primitive (internal/filter/lock.go). A lock gives each thread its
// own lock line L_t = base + tid*LockStride in core.LockRegion; the line
// index identifies the requester, exactly as the barrier filter's arrival
// lines do, so the lock reuses the ISA as-is — no new opcodes:
//
//	acquire:  fence; dcbi 0(L_t); ld t6, 0(L_t); fence
//	release:  fence; dcbi 0(L_t)
//
// The acquire's invalidation queues the thread at the bank's lock table
// (granted immediately when free); the load is starved until the grant;
// the fences order the critical section after the grant and before the
// release. Programs declare locks with DeclareLock, which defines
// "lock.<name>" symbols that Launch's InstallLocks scans to program the
// bank controllers — the same install-at-launch flow as barrier filters.

// LockStride separates consecutive threads' lock lines. A multiple of
// LineBytes*L2Banks for every supported geometry, so all of one lock's
// lines map to the same L2 bank and its table entry sees every request.
const LockStride = 4096

// lockSpan returns the address space one lock occupies (with a guard
// line's worth of slack between locks).
func lockSpan(nthreads int) uint64 { return uint64(nthreads+1) * LockStride }

// DeclareLock assigns lock index's line region for nthreads threads and
// defines the assembler symbols InstallLocks looks for. It returns the
// lock's base address (thread 0's line).
func DeclareLock(b *asm.Builder, name string, index, nthreads int) uint64 {
	base := uint64(core.LockRegion) + uint64(index)*lockSpan(nthreads)
	b.Equ("lock."+name, base)
	b.Equ("lock."+name+".stride", LockStride)
	b.Equ("lock."+name+".threads", uint64(nthreads))
	return base
}

// EmitLockAddr emits code computing rd = base + tid*LockStride — the
// calling thread's own lock line — using RegT7 as scratch. Emit once in
// setup; the address is loop-invariant.
func EmitLockAddr(b *asm.Builder, rd uint8, base uint64) {
	emitLI(b, RegT7, LockStride)
	b.MUL(RegT7, RegT7, isa.RegA0)
	emitLI(b, rd, base)
	b.ADD(rd, rd, RegT7)
}

// EmitLockAcquire emits the acquire sequence over the lock line in rs.
// Returns with the lock held: the load completes only when the bank's
// lock table grants the lock, and the trailing fence keeps the critical
// section behind it. Clobbers RegT6.
func EmitLockAcquire(b *asm.Builder, rs uint8) {
	b.FENCE()
	b.DCBI(rs, 0)
	b.LD(RegT6, rs, 0)
	b.FENCE()
}

// EmitLockRelease emits the release sequence over the lock line in rs:
// the fence drains the critical section's stores, then the invalidation
// signals the bank's lock table, which hands the lock to the next waiter.
func EmitLockRelease(b *asm.Builder, rs uint8) {
	b.FENCE()
	b.DCBI(rs, 0)
}

// InstallLocks scans prog's symbols for DeclareLock declarations and
// programs each into the bank controller its lines map to, mirroring how
// Generator.Install programs barrier filters. Installed locks inherit the
// machine's Strict/Timeout configuration. Installation is in sorted
// symbol order, so table layout is deterministic. An ErrNoCapacity from a
// full bank propagates to the caller — the spill-to-software decision is
// the OS's, not the loader's.
func InstallLocks(m *core.Machine, prog *asm.Program) ([]*filter.Lock, error) {
	var names []string
	for s := range prog.Symbols {
		if !strings.HasPrefix(s, "lock.") ||
			strings.HasSuffix(s, ".stride") || strings.HasSuffix(s, ".threads") {
			continue
		}
		names = append(names, s)
	}
	sort.Strings(names)
	var installed []*filter.Lock
	for _, s := range names {
		base := prog.Symbols[s]
		stride, ok := prog.Symbols[s+".stride"]
		if !ok {
			return installed, fmt.Errorf("barrier: lock symbol %q has no .stride", s)
		}
		threads, ok := prog.Symbols[s+".threads"]
		if !ok {
			return installed, fmt.Errorf("barrier: lock symbol %q has no .threads", s)
		}
		l := filter.NewLock(strings.TrimPrefix(s, "lock."), base, stride, int(threads))
		l.RegisterAll()
		if err := m.Install(l); err != nil {
			return installed, fmt.Errorf("barrier: installing lock %q: %w", l.Name, err)
		}
		installed = append(installed, l)
	}
	return installed, nil
}
