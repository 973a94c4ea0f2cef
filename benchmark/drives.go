package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/harness"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/simd"
)

// Layer drives time one layer from outside, through its public functions
// only. Each workload runs the drives of the layer it loads most; n is how
// many times a drive repeats (1 in -smoke).

// p10Of repeats fn n times and returns the p10 of its durations.
func p10Of(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return quantile(ds, 0.10), nil
}

// driveCPU: the 1-core sequential build of livermore2 with memory near idle
// (cpu.seq_ns_per_cycle), and the reference cell with the translation cache
// or the quiescent fast path off, over the default.
func driveCPU(n int, out map[string]float64) error {
	prog, err := kernels.NewLivermore2(1024, 4).BuildSeq()
	if err != nil {
		return fmt.Errorf("cpu drive: %w", err)
	}
	var cycles uint64
	seq, err := p10Of(n, func() (time.Duration, error) {
		m, err := core.NewMachineChecked(core.DefaultConfig(1))
		if err != nil {
			return 0, err
		}
		m.Load(prog)
		m.StartSPMD(prog.Entry, 1)
		t0 := time.Now()
		cycles, err = m.Run(maxCycles)
		return time.Since(t0), err
	})
	if err != nil {
		return fmt.Errorf("cpu drive: %w", err)
	}
	out["cpu.seq_ns_per_cycle"] = float64(seq) / float64(cycles)

	ref := func(k knobs) (time.Duration, error) {
		return p10Of(n, func() (time.Duration, error) {
			o, err := runSimCell(referenceCell, k, nil)
			return o.run, err
		})
	}
	base, err := ref(knobs{})
	if err != nil {
		return err
	}
	noTr, err := ref(knobs{noTranslate: true})
	if err != nil {
		return err
	}
	noFP, err := ref(knobs{noFastPath: true})
	if err != nil {
		return err
	}
	out["cpu.notranslate_ratio"] = float64(noTr) / float64(base)
	out["cpu.nofastpath_ratio"] = float64(noFP) / float64(base)
	return nil
}

// driveStorm is the 32-core fill storm of BenchmarkFabricThroughput, with no
// cores: a first round streams every line in from DRAM, the timed round has
// every core fetch its neighbour's lines out of warm L2 banks, so the fabric
// is the bottleneck.
func driveStorm(n int, out map[string]float64) error {
	const cores, linesPerCore = 32, 64
	for _, fab := range interconnect.Kinds {
		var drain uint64
		d, err := p10Of(n, func() (time.Duration, error) {
			cfg := mem.DefaultConfig(cores)
			cfg.Fabric = fab
			cfg.MSHRs = 32 // bandwidth-bound on the fabric, not latency-bound on bank round trips
			s := mem.NewSystem(cfg)
			addr := func(c, l int) uint64 { return uint64(0x10_0000 + (l*cores+c)*cfg.LineBytes) }
			now := uint64(0)
			storm := func(shift int) (uint64, error) {
				start := now
				left := make([]int, cores)
				for c := range left {
					left[c] = linesPerCore
				}
				for pending := cores * linesPerCore; pending > 0 || !s.Quiet(); now++ {
					for c := 0; c < cores; c++ {
						if left[c] > 0 && s.L1D[c].StartMiss(now, addr((c+shift)%cores, linesPerCore-left[c]), mem.GetS, false) {
							left[c]--
							pending--
						}
					}
					s.Tick(now)
					if now-start > 10_000_000 {
						return 0, fmt.Errorf("storm drive: %s never drained", fab)
					}
				}
				return now - start, nil
			}
			if _, err := storm(0); err != nil {
				return 0, err
			}
			t0 := time.Now()
			var err error
			drain, err = storm(1)
			return time.Since(t0), err
		})
		if err != nil {
			return err
		}
		out["mem.storm_ns_per_txn."+fab.String()] = float64(d) / (cores * linesPerCore)
		out["mem.storm_drain_cyc."+fab.String()] = float64(drain)
	}
	return nil
}

// driveFilter times the sync engine alone: one 64-thread barrier episode on
// a BankFilters table (arrival inval and fill per thread, drain the
// releases, exit invals), and one hardware-lock hand-off (acquire inval,
// parked fill, release inval, pop).
func driveFilter(n int, out map[string]float64) error {
	const threads, stride = 64, 256
	const arrival, exit, lockBase = core.BarrierRegion, core.BarrierRegion + 0x10_0000, core.LockRegion
	bf := filter.NewBankFilters(8)
	f := filter.New("drive", arrival, exit, stride, threads)
	f.RegisterAll()
	l := filter.NewLock("drive", lockBase, stride, threads)
	l.RegisterAll()
	if err := bf.Add(f); err != nil {
		return fmt.Errorf("filter drive: %w", err)
	}
	if err := bf.AddLock(l); err != nil {
		return fmt.Errorf("filter drive: %w", err)
	}
	now := uint64(0)
	fill := func(addr uint64, t int) mem.Txn { return mem.Txn{Kind: mem.GetS, Addr: addr, Core: t, ID: now} }
	drain := func(want int) error {
		for i := 0; i < want; i++ {
			if _, errFill, ok := bf.PopReleased(now); !ok || errFill {
				return fmt.Errorf("filter drive: release %d of %d missing (%s)", i, want, bf.LastError())
			}
		}
		if _, _, ok := bf.PopReleased(now); ok {
			return fmt.Errorf("filter drive: more than %d releases", want)
		}
		return nil
	}
	episode := func() error {
		fault := false
		parked := 0
		for t := 0; t < threads; t++ {
			now++
			fault = bf.OnInval(now, f.ArrivalAddr(t), t) || fault
			park, flt := bf.OnFill(now, fill(f.ArrivalAddr(t), t))
			fault = fault || flt
			if park {
				parked++
			}
		}
		if fault || parked != threads-1 {
			return fmt.Errorf("filter drive: episode parked %d fills, fault=%v (%s)", parked, fault, bf.LastError())
		}
		if err := drain(parked); err != nil {
			return err
		}
		for t := 0; t < threads; t++ {
			if bf.OnInval(now, f.ExitAddr(t), t) {
				return fmt.Errorf("filter drive: exit faulted (%s)", bf.LastError())
			}
		}
		return nil
	}
	handoffs := func() error {
		for t := 0; t < threads; t++ {
			now++
			if bf.OnInval(now, l.LineAddr(t), t) {
				return fmt.Errorf("filter drive: acquire faulted (%s)", bf.LastError())
			}
			if park, flt := bf.OnFill(now, fill(l.LineAddr(t), t)); flt || park != (t > 0) {
				return fmt.Errorf("filter drive: acquire fill of thread %d: park=%v fault=%v", t, park, flt)
			}
		}
		for t := 0; t < threads; t++ {
			now++
			if bf.OnInval(now, l.LineAddr(t), t) {
				return fmt.Errorf("filter drive: release faulted (%s)", bf.LastError())
			}
			want := 1
			if t == threads-1 {
				want = 0
			}
			if err := drain(want); err != nil {
				return err
			}
		}
		return nil
	}
	const batch = 200
	for _, drive := range []struct {
		name string
		fn   func() error
		per  float64 // what one call of fn covers
	}{{"filter.episode_ns", episode, 1}, {"filter.lock_handoff_ns", handoffs, threads}} {
		d, err := p10Of(n, func() (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if err := drive.fn(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		out[drive.name] = float64(d) / batch / drive.per
	}
	return nil
}

// driveService splits the service path's cost per cold cell: Normalize, raw
// simd.RunCell, what the server adds on top at one worker, and what the
// journal adds; then the harness's own fan-out on a quick Figure 4 at the
// given core counts.
func driveService(w *sweepInstance, spec simd.Spec, fig4Cores []int, n int, out map[string]float64) error {
	var sw *simd.Sweep
	d, err := p10Of(n, func() (time.Duration, error) {
		t0 := time.Now()
		var serr *simd.Error
		if sw, serr = simd.Normalize(spec, simd.DefaultLimits()); serr != nil {
			return 0, serr
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	out["simd.normalize_ms"] = ms(d)

	nCells := float64(len(sw.Cells))
	raw, err := p10Of(n, func() (time.Duration, error) {
		t0 := time.Now()
		for _, c := range sw.Cells {
			if res, err := simd.RunCell(context.Background(), c); err != nil || res.Status != harness.StatusOK {
				return 0, fmt.Errorf("service drive: raw RunCell %s: status %s: %v", c.Key, res.Status, err)
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	out["simd.runcell_ms"] = ms(raw) / nCells

	cold := func(workers int, journal bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			srv, err := newSweepServer(w.workDir, workers, journal)
			if err != nil {
				return 0, err
			}
			defer srv.close()
			rep, err := srv.post(spec, len(sw.Cells))
			return rep.wall, err
		}
	}
	one, err := p10Of(n, cold(1, true))
	if err != nil {
		return err
	}
	out["simd.overhead_ms_per_cell"] = ms(one-raw) / nCells
	with, err := p10Of(n, cold(w.workers, true))
	if err != nil {
		return err
	}
	without, err := p10Of(n, cold(w.workers, false))
	if err != nil {
		return err
	}
	out["simd.journal_ms_per_cell"] = ms(with-without) / nCells

	fig4 := func(workers int) (float64, error) {
		o := harness.QuickOptions()
		o.Verify = true
		o.Fig4Cores = fig4Cores
		o.Workers = workers
		t0 := time.Now()
		pts, err := harness.Fig4(o)
		if err != nil {
			return 0, fmt.Errorf("service drive: Fig4: %w", err)
		}
		return float64(len(pts)) / time.Since(t0).Seconds(), nil
	}
	w1, err := fig4(1)
	if err != nil {
		return err
	}
	w2, err := fig4(2)
	if err != nil {
		return err
	}
	out["harness.fig4_cells_per_s.w1"] = w1
	out["harness.fig4_cells_per_s.w2"] = w2
	out["harness.scaling_w2"] = w2 / w1
	return nil
}
