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

echo "== go test -race (parallel harness, typed cell sweeps and their journals, chaos attempt path, verifier, fabrics, ring queue) =="
go test -race -run 'TestRunner|TestParallelFig4Deterministic|TestChaosAttemptDegradation|TestRunCells|TestJournal' ./internal/harness
go test -race ./internal/vet ./internal/asm ./internal/hbcheck
go test -race ./internal/interconnect ./internal/mem ./internal/sim

echo "== hbcheck differential smoke (dynamic oracle agrees with srvet) =="
go test -short -run TestHBCheck -count=1 ./internal/harness

echo "== go test -race (sync engine: filter+lock tables, OS model, barrier fallback policy) =="
go test -race ./internal/filter ./internal/osmodel ./internal/barrier
go test -race -run 'TestCleanLockMachine|TestLock' ./internal/sanitize

echo "== go test -race (translation cache: counters, invalidation, record immutability, fuzz seeds) =="
go test -race -run TestTranslate ./internal/cpu
go test -race -run FuzzTranslateDiff ./internal/cpu

echo "== go test -race (scheduler oracles: side lists vs window scan, quiesce twins, a written SC outlasting a preemption, awake set vs core scan with and without fault injectors, bank work gate) =="
go test -race -run 'TestSchedOracle|TestQuiesce|TestDescheduleKeepsWrittenSC' ./internal/cpu
go test -race -run 'TestAwakeSetOracle|TestBankWorkOracle' ./internal/core

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
