package core

import "fmt"

// CheckAwake compares the machine's awake set with a scan of its tickers,
// for use between runs: it must hold exactly the running fast cores and at
// least every running slow ticker (one that stops mid-run stays in), and no
// sleeper may still be owed cycles.
func (m *Machine) CheckAwake() error {
	for i, t := range m.tickers {
		got, want := m.awake[i>>6]&(1<<(i&63)) != 0, t.Running()
		if got != want && (m.fastCores[i] != nil || want) {
			return fmt.Errorf("cycle %d: physical core %d awake=%v, want %v", m.now, i, got, want)
		}
		if m.sleeping[i] {
			return fmt.Errorf("cycle %d: physical core %d still owed cycles from %d after the run returned", m.now, i, m.sleptAt[i])
		}
	}
	if m.sleepers != 0 {
		return fmt.Errorf("cycle %d: %d sleepers after the run returned", m.now, m.sleepers)
	}
	return nil
}

// SleepCounts returns how many periodic sleeps (quiesced ones aside) the
// machine has begun, how many sleepers its returning runs have brought up
// to date, and how many of those were spinning: a quiesced period commits
// nothing, so only a spinner's Skip moves Committed.
func (m *Machine) SleepCounts() (spins, settles, spun uint64) {
	return m.spinSleeps, m.settles, m.spinSettles
}

// CoreTicks returns how many core ticks the machine's awake set has run.
func (m *Machine) CoreTicks() uint64 { return m.ticks }

// MissScans returns how many times the cores' miss queues were scanned
// while non-empty (cpu.Core.MissScans: ticks only, Skip credits none).
func (m *Machine) MissScans() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.MissScans
	}
	return n
}
