// Package osmodel implements the operating-system side of the barrier
// filter design (§3.3 of the paper): the barrier library that registers
// barriers with the hardware, assigns per-thread arrival and exit
// addresses (honouring the same-bank and thread-index-in-low-bits rules),
// falls back to a software barrier when no filter slot is available, swaps
// filters in and out for different thread groups, and supports
// descheduling a thread that is blocked at a barrier and rescheduling it
// on a different core (§3.3.3).
package osmodel

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/filter"
)

// Handle is what user code receives from Register: the granted mechanism
// (which is the software fallback when the hardware is exhausted) and its
// code generator.
type Handle struct {
	ID        int
	Requested barrier.Kind
	Granted   barrier.Kind
	Gen       barrier.Generator
	NThreads  int
	Bank      int // L2 bank hosting the filter(s); -1 for non-filter kinds

	registered map[int]bool
	swappedOut bool
}

// RegisterThread registers thread t with the barrier (§3.3.1). A thread
// entering the barrier before all threads have registered still stalls,
// because num-threads was fixed at creation; registration is what hands the
// thread its addresses.
func (h *Handle) RegisterThread(t int) error {
	if t < 0 || t >= h.NThreads {
		return fmt.Errorf("osmodel: thread %d out of range for barrier %d (%d threads)", t, h.ID, h.NThreads)
	}
	h.registered[t] = true
	return nil
}

// Complete reports whether every participant has registered.
func (h *Handle) Complete() bool { return len(h.registered) == h.NThreads }

// Addresses returns thread t's arrival and exit line addresses, available
// after the barrier hardware has been installed. Software and network
// barriers have no addresses.
func (h *Handle) Addresses(t int) (arrival, exit uint64, ok bool) {
	hw, isHW := h.Gen.(barrier.HardwareBarrier)
	if !isHW || !h.registered[t] {
		return 0, 0, false
	}
	fs := hw.Filters()
	if len(fs) == 0 || t >= h.NThreads {
		return 0, 0, false
	}
	return fs[0].ArrivalAddr(t), fs[0].ExitAddr(t), true
}

// Filters exposes the installed hardware filters (empty for software and
// network barriers).
func (h *Handle) Filters() []*filter.Filter {
	if hw, ok := h.Gen.(barrier.HardwareBarrier); ok {
		return hw.Filters()
	}
	return nil
}

// Manager is the OS barrier library for one machine. It tracks filter-slot
// budgets per L2 bank so that fallback decisions happen at registration
// time, before any code is generated — mirroring the paper's flow where a
// request "will receive a handle to a filter barrier if one is available".
type Manager struct {
	m           *core.Machine
	alloc       *barrier.Allocator
	nextID      int
	slotsFree   []int
	entriesFree []int // per-bank free table entries; -1 when unbounded
	handles     map[int]*Handle
	spills      uint64
}

// NewManager creates the barrier library for one machine.
func NewManager(m *core.Machine) *Manager {
	mgr := &Manager{
		m:       m,
		alloc:   barrier.NewAllocator(m.Cfg.Mem),
		handles: make(map[int]*Handle),
	}
	cap := m.Cfg.Mem.FilterCap
	for b := 0; b < m.Cfg.Mem.L2Banks; b++ {
		mgr.slotsFree = append(mgr.slotsFree, m.Cfg.FilterSlotsPerBank-m.Hooks[b].InUse())
		if cap > 0 {
			mgr.entriesFree = append(mgr.entriesFree, cap-m.Hooks[b].Entries())
		} else {
			mgr.entriesFree = append(mgr.entriesFree, -1)
		}
	}
	return mgr
}

// Allocator exposes the underlying address allocator.
func (mgr *Manager) Allocator() *barrier.Allocator { return mgr.alloc }

// Register creates a barrier of the requested kind for nthreads threads.
// Filter barriers are placed in an L2 bank with enough free filter slots
// (entry/exit barriers need one, ping-pong pairs need two) and enough free
// table entries (one per thread per filter); when every bank is full, the
// request is granted as the centralized software fallback (§3.3.1). A
// fallback forced by entry capacity — a bank had a free slot but not the
// entries — is counted as an overflow spill.
func (mgr *Manager) Register(kind barrier.Kind, nthreads int) (*Handle, error) {
	granted := kind
	bank := -1
	if need := barrier.SlotsNeeded(kind); need > 0 {
		entryNeed := need * nthreads
		entryStarved := false
		for b := range mgr.slotsFree {
			if mgr.slotsFree[b] < need {
				continue
			}
			if mgr.entriesFree[b] >= 0 && mgr.entriesFree[b] < entryNeed {
				entryStarved = true
				continue
			}
			bank = b
			break
		}
		if bank < 0 {
			granted = barrier.KindSWCentral
			if entryStarved {
				mgr.spills++
			}
		} else {
			mgr.slotsFree[bank] -= need
			if mgr.entriesFree[bank] >= 0 {
				mgr.entriesFree[bank] -= entryNeed
			}
		}
	}
	var gen barrier.Generator
	var err error
	if bank >= 0 {
		gen, err = barrier.NewAt(granted, nthreads, mgr.alloc, bank)
	} else {
		gen, err = barrier.New(granted, nthreads, mgr.alloc)
	}
	if err != nil {
		return nil, err
	}
	mgr.nextID++
	h := &Handle{
		ID:         mgr.nextID,
		Requested:  kind,
		Granted:    granted,
		Gen:        gen,
		NThreads:   nthreads,
		Bank:       bank,
		registered: make(map[int]bool),
	}
	mgr.handles[h.ID] = h
	return h, nil
}

// SwapOut removes a barrier's filters from the hardware so another
// application's barriers can use the slots (§3.3.3). The caller must not
// schedule the barrier's threads while it is swapped out: a barrier
// represents a co-schedulable group of threads.
func (mgr *Manager) SwapOut(h *Handle) {
	if h.swappedOut {
		return
	}
	for _, f := range h.Filters() {
		mgr.m.Remove(f)
	}
	mgr.refund(h)
	h.swappedOut = true
}

// refund returns a barrier's slots and entries to its bank's budget.
func (mgr *Manager) refund(h *Handle) {
	if h.Bank < 0 {
		return
	}
	need := barrier.SlotsNeeded(h.Granted)
	mgr.slotsFree[h.Bank] += need
	if mgr.entriesFree[h.Bank] >= 0 {
		mgr.entriesFree[h.Bank] += need * h.NThreads
	}
}

// SwapIn reinstalls a swapped-out barrier's filters, possibly failing if
// the slots have been taken.
func (mgr *Manager) SwapIn(h *Handle) error {
	if !h.swappedOut {
		return nil
	}
	need := barrier.SlotsNeeded(h.Granted)
	if h.Bank >= 0 && mgr.slotsFree[h.Bank] < need {
		return fmt.Errorf("osmodel: bank %d has no free filter slots to swap barrier %d back in", h.Bank, h.ID)
	}
	if h.Bank >= 0 && mgr.entriesFree[h.Bank] >= 0 && mgr.entriesFree[h.Bank] < need*h.NThreads {
		return fmt.Errorf("osmodel: bank %d has no free filter entries to swap barrier %d back in", h.Bank, h.ID)
	}
	for _, f := range h.Filters() {
		if err := mgr.m.Install(f); err != nil {
			return err
		}
	}
	if h.Bank >= 0 {
		mgr.slotsFree[h.Bank] -= need
		if mgr.entriesFree[h.Bank] >= 0 {
			mgr.entriesFree[h.Bank] -= need * h.NThreads
		}
	}
	h.swappedOut = false
	return nil
}

// Close releases a barrier handle and its hardware for good. Unlike
// SwapOut — which parks the filters for a later SwapIn — Close retires
// them: every entry is evicted and the tags stay behind in the bank's
// retired list, answering stale fills and invalidations with error-coded
// responses instead of silently ignoring them.
func (mgr *Manager) Close(h *Handle) {
	if !h.swappedOut {
		for _, f := range h.Filters() {
			mgr.m.Retire(f)
		}
		mgr.refund(h)
		h.swappedOut = true
	}
	delete(mgr.handles, h.ID)
}

// EvictThread deallocates thread t's entry in every filter of the barrier
// (OS-driven: teardown of one participant, or making room under capacity
// pressure). Later accesses through the stale entry get error-coded
// responses until ReprogramThread.
func (mgr *Manager) EvictThread(h *Handle, t int) error {
	for _, f := range h.Filters() {
		if err := f.EvictThread(t); err != nil {
			return err
		}
	}
	return nil
}

// ReprogramThread revalidates thread t's evicted entries so the thread can
// rejoin the barrier in the Waiting state.
func (mgr *Manager) ReprogramThread(h *Handle, t int) error {
	for _, f := range h.Filters() {
		if err := f.ReprogramThread(t); err != nil {
			return err
		}
	}
	return nil
}

// FreeSlots reports the free filter slots in each bank.
func (mgr *Manager) FreeSlots() []int {
	return append([]int(nil), mgr.slotsFree...)
}

// FreeEntries reports the free filter-table entries in each bank (-1 when
// the capacity is unbounded).
func (mgr *Manager) FreeEntries() []int {
	return append([]int(nil), mgr.entriesFree...)
}

// OverflowSpills counts registrations that fell back to the software
// barrier because of entry capacity (not slot) exhaustion.
func (mgr *Manager) OverflowSpills() uint64 { return mgr.spills }
