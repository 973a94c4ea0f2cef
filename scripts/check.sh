#!/bin/sh
# check.sh — the full pre-merge gate: formatting, static checks, build, the
# test suite (whose root package is the differential driver: every cell under
# every behaviour-invariant knob, the golden, chaos and sanitizer contracts),
# and race-detector passes over the concurrent packages.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...
go vet -tags probematrix . ./internal/core

echo "== go build =="
go build ./...

echo "== layering (the machine knows no checker by name: they attach) =="
layering="$(go list -deps ./internal/core | grep -Ex 'repro/internal/(sanitize|hbcheck)' || true)"
if [ -n "$layering" ]; then
	echo "internal/core depends on:" >&2
	echo "$layering" >&2
	exit 1
fi

echo "== go test =="
tier1_start=$(date +%s)
go test -count=1 ./...
tier1_wall=$(( $(date +%s) - tier1_start ))

echo "== srvet (static verifier: all kernels clean, a source file with its barriers expanded, misuse corpus fires; srisc-as assembles an example) =="
go run ./cmd/srvet -all -threads 8
go run ./cmd/srvet -all -threads 3
go run ./cmd/srvet -all -threads 32
go run ./cmd/srvet -all -threads 64
go run ./cmd/srvet -barrier filter-d -threads 8 examples/asm/reduce.s
go test -count=1 -run '^TestCorpus$' ./internal/vet
go run ./cmd/srisc-as examples/asm/hello.s >/dev/null

echo "== go test -race (parallel harness, typed cell sweeps and their journals, chaos attempt path and degradation policy, a HWBAR wait outlasting a preemption, verifier, the arbiter and the mesh against full scans of their rules, ring queue) =="
go test -race -run 'TestRunner|TestParallelFig4Deterministic|TestChaosAttemptDegradation|TestChaosPolicy|TestRunCells|TestJournal|TestHWBarPreemptIdentical' ./internal/harness
go test -race ./internal/vet ./internal/asm ./internal/hbcheck
go test -race ./internal/interconnect ./internal/mem ./internal/sim

echo "== hbcheck differential smoke (dynamic oracle agrees with srvet) =="
go test -short -run TestHBCheck -count=1 ./internal/harness

echo "== go test -race (sync engine: filter+lock tables, OS model, barrier install) =="
go test -race ./internal/filter ./internal/osmodel ./internal/barrier
go test -race -run 'TestCleanLockMachine|TestLock' ./internal/sanitize

echo "== go test -race (translation cache: one invalidation rule, the memory write hook; counters with an ICBI+IFLUSH refetch invalidating nothing, record immutability, fuzz seeds) =="
go test -race -run TestTranslate ./internal/cpu
go test -race -run FuzzTranslateDiff ./internal/cpu

echo "== go test -race (scheduler oracles: side lists, wake links and producer slots vs a scan of the window ring, every named slot live, and the miss-queue gate's claim; the pointer-free entry (TestEntryPointerFree), a Tick and a context switch allocating nothing (TestTickSteadyStateNoAlloc, which skips under -race and runs in the go test pass above), every fault text byte for byte (TestFaultTexts); a quiesced one-cycle sleep vs a ticked twin, a written SC outlasting a preemption, the SMT thread-select check counting no L1 hit and moving no LRU order (TestLongStalledIsNoAccess), awake set vs core scan and NoFastPath twin with and without fault injectors, HWBAR and filter waiters asleep, the miss-queue gate skipping (TestMissGateSkips), MSHR-starved and SMT cells pinned (TestMSHRRetryPinned), bank work gate) =="
go test -race -run 'TestSchedOracle|TestQuiesce|TestDescheduleKeepsWrittenSC|TestLongStalledIsNoAccess|TestEntryPointerFree|TestTickSteadyStateNoAlloc|TestFaultTexts' ./internal/cpu
go test -race -run 'TestAwakeSetOracle|TestHWBarWaitersSleep|TestMissGateSkips|TestMSHRRetryPinned|TestBankWorkOracle' ./internal/core

echo "== go test (differential driver: knobs x cells, golden v2, paper shape, chaos, sanitizer, probe) =="
go test -count=1 -run 'TestDifferential|TestPaperShape|Chaos|Sanitizer|Probe' .

echo "== go test (journal kill-resume and deadlines) =="
go test -run 'TestJournal|TestRunCells|TestCellDeadline' -count=1 ./internal/harness

echo "== go test -race (simd server: overload, cancel/resume, damaged journal, goroutine-leak cleanup) =="
go test -race -count=1 ./internal/simd

echo "== go test (FuzzNormalize seed corpus: hostile specs are structured 400s) =="
go test -run FuzzNormalize -count=1 ./internal/simd

echo "== simd smoke (boot, SIGTERM drain, kill -9 mid-sweep, resume byte-identical, cache oracle) =="
sh scripts/simd_smoke.sh

echo "== tier-1 wall time and non-test Go lines per package (informational; ROADMAP tracks them) =="
echo "time go test -count=1 ./...: ${tier1_wall}s"
# The delta against the previous commit, or the bare totals where there is
# none to compare with (a shallow CI clone).
if git rev-parse -q --verify 'HEAD~1^{commit}' >/dev/null 2>&1; then
	sh scripts/loc.sh HEAD~1
else
	sh scripts/loc.sh
fi

echo "ok"
