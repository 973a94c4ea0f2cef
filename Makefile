GO ?= go

.PHONY: build test bench bench-run bench-check check chaos scale simd-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# bench-run writes the layer-attributed scoreboard (four workloads, both
# passes; see benchmark/README.md) to BENCH_$(PR).json. bench-check is the
# regression gate: it compares two such files, metric by metric, against the
# bounds in BENCHMARK.json and exits non-zero on a regression. Timings only
# mean something between runs taken close together on a quiet host.
#   make bench-run PR=13
#   make bench-check OLD=BENCH_12.json NEW=BENCH_13.json
PR ?= dev
bench-run:
	$(GO) run ./benchmark -out BENCH_$(PR).json

bench-check:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# check is the pre-merge gate: vet + build + tests + a race-detector run of
# the parallel experiment harness.
check:
	sh scripts/check.sh

# chaos runs the fault-injection tests of the root differential driver
# (every test named *Chaos*: the memoised chaos matrices and their
# Workers/NoFastPath/NoTranslate variants, the lock-kernel cells under
# forced lock evictions and holder preemption, the sanitizer's chaos
# attributions), the probe differential on every driver cell (tier-1 runs a
# subset; the full matrix sits behind the probematrix build tag), the
# awake-set oracle's software barriers under every standard injector (tier-1
# runs four, the rest sit behind the same tag; periodic sleep stays on under
# injection), its hw-net cells under the three preempting profiles (an
# HWBAR waiter sleeps until its release and is never preempted) and those
# four injectors at seeds 1-32 (256 twin pairs, so a divergence only some
# seeds provoke cannot hide behind the one seed a case's name gives) plus short
# fuzz smokes of the assembler (the
# surface the chaos kernels are built through), the static verifier (which
# must never panic on arbitrary programs), the translation-cache
# differential (arbitrary programs must retire identically with the
# frontend cache on and off), the filter FSM (arbitrary
# inval/fill/evict/reprogram sequences either follow Figure 3 or fault with
# attribution), the lock FSM (same contract for acquire/release/evict
# sequences: FIFO grants, single holder, error-coded eviction), simd's spec
# decoder + Normalize (arbitrary request bodies are a structured rejection or
# a well-formed sweep, never a panic), and the
# hbcheck differential smoke (the dynamic happens-before oracle must agree
# with srvet: shipped kernels replay race-free, misuse-corpus races are
# caught at runtime).
chaos:
	$(GO) test -run Chaos -count=1 -v .
	$(GO) test -tags probematrix -run TestProbeMatrix -count=1 .
	$(GO) test -tags probematrix -run 'TestAwakeSetOracleMatrix|TestAwakeSetOracleSeeds' -count=1 ./internal/core
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s -run '^$$' ./internal/asm
	$(GO) test -fuzz=FuzzVet -fuzztime=10s -run '^$$' ./internal/vet
	$(GO) test -fuzz=FuzzTranslateDiff -fuzztime=10s -run '^$$' ./internal/cpu
	$(GO) test -fuzz=FuzzFilterFSM -fuzztime=10s -run '^$$' ./internal/filter
	$(GO) test -fuzz=FuzzLockFSM -fuzztime=10s -run '^$$' ./internal/filter
	$(GO) test -fuzz=FuzzNormalize -fuzztime=10s -run '^$$' ./internal/simd
	$(GO) test -short -run TestHBCheck -count=1 ./internal/harness

# simd-smoke boots the simd simulation server, SIGTERMs one mid-sweep (exit
# 0, clean-prefix journal) and SIGKILLs another, and asserts each resumed
# sweep (and its journal) is byte-identical to an uninterrupted run, plus
# the cache and -nofastpath oracle checks.
simd-smoke:
	sh scripts/simd_smoke.sh

# scale is a ~30s smoke of the fabric-scaling sweep (cores x interconnect
# x barrier mechanism; ~38s of CPU, parallel across cells); the full
# 4..64-core run is `go run ./cmd/bench -exp scale` and takes minutes.
scale:
	$(GO) run ./cmd/bench -exp scale -scalecores 4,8,16

# loc prints non-test Go lines per package (wc -l over non-_test.go files):
# the number ROADMAP tracks and simplicity PRs quote before and after.
loc:
	sh scripts/loc.sh
