package core

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/sim"
)

// StatsReport gathers every component's counters into one registry, for
// printing or programmatic inspection after (or during) a run.
func (m *Machine) StatsReport() *sim.Stats {
	s := sim.NewStats()
	set := func(name string, v uint64) { *s.Counter(name) = v }

	var committed, cycles, mispredicts, fetchStalls, fenceStalls, loads, stores, scFails uint64
	for _, c := range m.Cores {
		committed += c.Committed
		cycles += c.Cycles
		mispredicts += c.Mispredicts
		fetchStalls += c.FetchMissStalls
		fenceStalls += c.FenceStalls
		loads += c.LoadsExecuted
		stores += c.StoresDrained
		scFails += c.SCFailures
	}
	set("core.cycles_total", cycles)
	set("core.instructions_committed", committed)
	set("core.branch_mispredicts", mispredicts)
	set("core.fetch_miss_stall_cycles", fetchStalls)
	set("core.fence_stall_cycles", fenceStalls)
	set("core.loads_executed", loads)
	set("core.stores_drained", stores)
	set("core.sc_failures", scFails)
	set("machine.wall_cycles", m.now)

	var dHits, dMisses, iHits, iMisses, mshrFull uint64
	for c := 0; c < m.Cfg.Cores; c++ {
		dHits += m.Sys.L1D[c].Hits
		dMisses += m.Sys.L1D[c].Misses
		iHits += m.Sys.L1I[c].Hits
		iMisses += m.Sys.L1I[c].Misses
		mshrFull += m.Sys.L1D[c].MSHRFull
	}
	set("l1d.hits", dHits)
	set("l1d.misses", dMisses)
	set("l1i.hits", iHits)
	set("l1i.misses", iMisses)
	set("l1d.mshr_full_retries", mshrFull)

	var l2Hits, l2Miss, invals, upgrades, wbs, parked, released, faults uint64
	for _, bk := range m.Sys.Banks {
		l2Hits += bk.Hits
		l2Miss += bk.MissesToL3
		invals += bk.Invals
		upgrades += bk.Upgrades
		wbs += bk.WBs
		parked += bk.Parked
		released += bk.Released
		faults += bk.Faults
	}
	set("l2.hits", l2Hits)
	set("l2.misses_to_l3", l2Miss)
	set("l2.invalidations_seen", invals)
	set("l2.upgrades", upgrades)
	set("l2.writebacks", wbs)
	set("filter.fills_parked", parked)
	set("filter.fills_released", released)
	set("filter.error_responses", faults)

	// The sync engine keeps one counter block per primitive, live or
	// retired; the report sums it per kind. Hardware-lock counters live in
	// their own sync.lock.* namespace so the filter.* keys stay
	// barrier-only (the bank-level fills_* counters above do include lock
	// traffic — they count at the hook, which cannot tell primitive kinds
	// apart; see DESIGN.md §15).
	var spills, acq, grants, rels uint64
	var bar, lk filter.Counters
	for _, h := range m.Hooks {
		spills += h.Spills
		for _, ps := range [2][]filter.Primitive{h.Hosted(), h.Retired()} {
			for _, p := range ps {
				switch x := p.(type) {
				case *filter.Filter:
					bar.Add(&x.Counters)
				case *filter.Lock:
					lk.Add(&x.Counters)
					acq += x.Acquires
					grants += x.Grants
					rels += x.Releases
				}
			}
		}
	}
	set("filter.timeout_releases", bar.Timeouts)
	set("filter.misuse_faults", bar.Errors)
	set("filter.overflow_spills", spills)
	set("filter.evict_errors", bar.EvictErrors)
	set("filter.desched_dropped_fills", bar.DroppedFills)
	set("sync.lock.acquires", acq)
	set("sync.lock.grants", grants)
	set("sync.lock.releases", rels)
	set("sync.lock.parked_fills", lk.ParkedFills)
	set("sync.lock.serviced_in_hold", lk.Serviced)
	set("sync.lock.timeout_releases", lk.Timeouts)
	set("sync.lock.misuse_faults", lk.Errors)
	set("sync.lock.evict_errors", lk.EvictErrors)
	set("sync.lock.desched_dropped_fills", lk.DroppedFills)

	set("l3.hits", m.Sys.L3Cache().Hits)
	set("l3.misses_to_dram", m.Sys.L3Cache().Misses)

	// The fabric reports its own counters under its kind's prefix (bus.*,
	// xbar.*, mesh.*), as of the current cycle; the bus keys and values
	// match the pre-fabric report byte for byte (pinned by the fabric golden
	// differential).
	m.Sys.FabricStats(m.now, set)

	set("hwnet.arrivals", m.Net.Arrivals)
	set("hwnet.releases", m.Net.Releases)

	// Translation-cache effectiveness, emitted only when the translator is
	// on. These are the host-side cache's own counters, not simulated
	// behaviour: the root differential driver's one comparison skips them.
	if m.trans != nil {
		set("translate.hits", m.trans.Hits)
		set("translate.misses", m.trans.Misses)
		set("translate.invalidations", m.trans.Invalidations)
	}
	return s
}

// IPC returns committed instructions per active core cycle.
func (m *Machine) IPC() float64 {
	var committed, cycles uint64
	for _, c := range m.Cores {
		committed += c.Committed
		cycles += c.Cycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(committed) / float64(cycles)
}

// String summarizes the machine configuration.
func (m *Machine) String() string {
	return fmt.Sprintf("CMP: %d cores, %d L2 banks, %dB lines, %d filter slots/bank",
		m.Cfg.Cores, m.Cfg.Mem.L2Banks, m.Cfg.Mem.LineBytes, m.Cfg.FilterSlotsPerBank)
}
