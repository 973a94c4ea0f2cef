package core

import "fmt"

// CheckAwake compares the machine's awake set with a scan of its tickers,
// for use between runs: it must hold exactly the running, non-quiesced fast
// cores and every slow ticker, and no sleeper may still be owed cycles.
func (m *Machine) CheckAwake() error {
	for i := range m.tickers {
		c := m.fastCores[i]
		want := c == nil || c.Running() && !c.Quiesced()
		if got := m.awake[i>>6]&(1<<(i&63)) != 0; got != want {
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

// SpinCounts returns how many periodic sleeps the machine has begun and how
// many periodic sleepers its returning runs have brought up to date.
func (m *Machine) SpinCounts() (sleeps, settles uint64) { return m.spinSleeps, m.spinSettles }

// CoreTicks returns how many core ticks the machine's awake set has run.
func (m *Machine) CoreTicks() uint64 { return m.ticks }
