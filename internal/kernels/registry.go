package kernels

import (
	"fmt"
	"sort"
)

// registry maps kernel names to constructors taking the generic (n, loops)
// sizing knobs. Non-positive values select each kernel's default size, so
// callers (cmd/srvet, cmd/bench, tests) can enumerate every kernel without
// knowing per-kernel sizing rules. The sizes reach here from outside the
// program (a simd spec, a command line), so an entry whose kernel cannot be
// built at a size says so with an error; the typed constructors, called
// with sizes written in code, panic instead.
var registry = map[string]func(n, loops int) (Kernel, error){
	"livermore1": func(n, loops int) (Kernel, error) { return NewLivermore1(defInt(n, 64), defInt(loops, 2)), nil },
	"livermore2": func(n, loops int) (Kernel, error) {
		n = defInt(n, 64)
		if err := checkLivermore2N(n); err != nil {
			return nil, err
		}
		return NewLivermore2(n, defInt(loops, 1)), nil
	},
	"livermore3": func(n, loops int) (Kernel, error) { return NewLivermore3(defInt(n, 64), defInt(loops, 2)), nil },
	"livermore6": func(n, loops int) (Kernel, error) {
		n = defInt(n, 32)
		if err := checkOperands("livermore6", "an N×N matrix", n, n); err != nil {
			return nil, err
		}
		return NewLivermore6(n, defInt(loops, 1)), nil
	},
	"autcor": func(n, loops int) (Kernel, error) {
		n = defInt(n, 256)
		if err := checkAutcorN(n, 8); err != nil {
			return nil, err
		}
		return NewAutcor(n, 8, defInt(loops, 1)), nil
	},
	"viterbi":    func(n, loops int) (Kernel, error) { return NewViterbi(defInt(n, 48), defInt(loops, 1)), nil },
	"lockreduce": func(n, loops int) (Kernel, error) { return NewLockReduce(defInt(n, 64), defInt(loops, 2)), nil },
	"pipeline": func(n, loops int) (Kernel, error) {
		n, loops = defInt(n, 48), defInt(loops, 1)
		if err := checkOperands("pipeline", "n·loops items", n, loops); err != nil {
			return nil, err
		}
		return NewPipeline(n, loops), nil
	},
	"coarse": func(n, loops int) (Kernel, error) { return NewCoarseGrain(defInt(loops, 4), defInt(n, 64)), nil },
	"skewed": func(n, loops int) (Kernel, error) { return NewSkewed(defInt(n, 24), defInt(loops, 2)), nil },
	"microbench": func(n, loops int) (Kernel, error) {
		mb := NewMicrobench()
		mb.K = defInt(n, mb.K)
		mb.M = defInt(loops, mb.M)
		return mb, nil
	},
}

// maxOperands bounds the operand words of the two kernels whose data is not
// linear in one sizing knob. It admits the largest livermore6 any figure
// sweeps (Figure 10 ends at N = 1024) and keeps an arbitrary (n, loops) pair
// from asking for gigabytes of operands before any cycle budget applies.
const maxOperands = 1 << 20

// checkOperands reports a kernel whose a×b operand block is over
// maxOperands (a, b >= 1).
func checkOperands(kernel, what string, a, b int) error {
	if a > maxOperands/b {
		return fmt.Errorf("kernels: %s holds %s: %d × %d is over the %d-word bound", kernel, what, a, b, maxOperands)
	}
	return nil
}

func defInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Names lists every registered kernel, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs a kernel by registry name. n and loops size the workload;
// non-positive values pick the kernel's default. An unknown name, or a size
// the kernel cannot be built at, is an error.
func New(name string, n, loops int) (Kernel, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return mk(n, loops)
}
