#!/bin/sh
# simd_smoke.sh — end-to-end crash-resilience smoke for the simd server.
#
# Boots cmd/simd, runs a reference sweep to completion, then re-runs it on
# a fresh server that gets SIGKILLed mid-sweep, restarts the server over
# the same journal/cache directories, resubmits, and asserts that both the
# client-visible result bytes and the on-disk journal are byte-identical
# to the uninterrupted run's. A third server gets SIGTERM mid-sweep instead:
# it must cancel the sweep, exit 0 within seconds and leave a journal that
# is a clean prefix of the reference, which a restart completes to the same
# bytes. Finishes with the cache checks: an identical
# resubmission must serve from cache byte-identically, and a recompute
# pass with the simulator fast path and translation cache disabled must
# re-simulate to the same bytes (the content-addressed cache acting as a
# regression oracle).
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/simd-smoke.XXXXXX")"
SRV_PID=""
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$WORK/bin/" ./cmd/simd ./cmd/bench

# The smoke sweep: viterbi x three seeds x a fault-free and a chaos
# profile on the mesh fabric — six cells of a few hundred milliseconds
# each at one worker. The three fault-free cells share one simulation (a
# profile that injects nothing never reads its seed); the three
# spurious-fill cells still run one after another behind them, so the
# mid-sweep kill below reliably lands while cells are still running.
SPEC='{"kernels":["viterbi"],"n":96,"loops":8,"mechanisms":["filter-d"],"fabric":"mesh","threads":4,"seeds":[1,2,3],"chaos":["none","spurious-fill"],"max_cycles":100000000}'
CELLS=6

# boot <journal-dir> <cache-dir>: starts a server, sets SRV_PID and URL.
boot() {
	rm -f "$WORK/addr"
	"$WORK/bin/simd" -addr 127.0.0.1:0 -addrfile "$WORK/addr" \
		-workers 1 -journal "$1" -cache "$2" 2>>"$WORK/server.log" &
	SRV_PID=$!
	i=0
	while [ ! -f "$WORK/addr" ]; do
		i=$((i + 1))
		[ $i -gt 100 ] && { echo "server did not come up" >&2; exit 1; }
		sleep 0.1
	done
	URL="$(cat "$WORK/addr")"
}

stop() {
	kill "$1" 2>/dev/null || true
	wait "$1" 2>/dev/null || true
	SRV_PID=""
}

echo "== reference run (uninterrupted) =="
boot "$WORK/ref-journal" "$WORK/ref-cache"
"$WORK/bin/bench" -server "$URL" -spec "$SPEC" >"$WORK/ref.out" 2>"$WORK/ref.err"
stop "$SRV_PID"
[ "$(wc -l <"$WORK/ref.out")" -eq "$CELLS" ] || {
	echo "reference run produced $(wc -l <"$WORK/ref.out") results, want $CELLS" >&2
	cat "$WORK/ref.err" >&2
	exit 1
}
REF_JOURNAL="$(echo "$WORK"/ref-journal/*.jsonl)"
# With key and hash stripped, the three fault-free result lines are one line.
NONE='"key":"viterbi/filter-d/none/s'
COUNT="$(grep -c "$NONE" "$WORK/ref.out")"
DISTINCT="$(grep "$NONE" "$WORK/ref.out" | sed 's/^{"key":"[^"]*","hash":"[^"]*",//' | sort -u | wc -l)"
if [ "$COUNT" -ne 3 ] || [ "$DISTINCT" -ne 1 ]; then
	echo "want 3 fault-free results identical beyond key and hash, got $COUNT with $DISTINCT distinct:" >&2
	grep "$NONE" "$WORK/ref.out" >&2
	exit 1
fi

# submit_until_first_result <name>: submits the sweep in the background
# (CLIENT_PID) and returns once the first result has streamed, i.e. while
# later cells are still running.
submit_until_first_result() {
	"$WORK/bin/bench" -server "$URL" -spec "$SPEC" >"$WORK/$1.out" 2>"$WORK/$1.err" &
	CLIENT_PID=$!
	i=0
	while [ ! -s "$WORK/$1.out" ]; do
		i=$((i + 1))
		[ $i -gt 200 ] && { echo "no results before the $1 window closed" >&2; exit 1; }
		sleep 0.05
	done
}

# interrupted_journal <dir>: sets JOURNAL and checks it holds the header and
# a strict prefix of the cells — the signal landed mid-sweep.
interrupted_journal() {
	JOURNAL="$(echo "$1"/*.jsonl)"
	DONE_LINES="$(wc -l <"$JOURNAL")"
	if [ "$DONE_LINES" -ge $((CELLS + 1)) ]; then
		echo "journal already complete ($DONE_LINES lines) — signal landed too late" >&2
		exit 1
	fi
	echo "   stopped with $DONE_LINES of $((CELLS + 1)) journal lines on disk"
}

# resume_matches_reference <journal-dir> <cache-dir> <name>: restarts over
# the same directories, resubmits, and compares results and journal with
# the uninterrupted run's.
resume_matches_reference() {
	boot "$1" "$2"
	"$WORK/bin/bench" -server "$URL" -spec "$SPEC" >"$WORK/$3.out" 2>"$WORK/$3.err"
	cmp "$WORK/ref.out" "$WORK/$3.out" || {
		echo "$3: resumed results differ from the uninterrupted run" >&2
		exit 1
	}
	cmp "$REF_JOURNAL" "$JOURNAL" || {
		echo "$3: resumed journal differs from the uninterrupted run" >&2
		exit 1
	}
}

echo "== SIGTERM mid-sweep: cancel, exit 0, clean-prefix journal =="
boot "$WORK/term-journal" "$WORK/term-cache"
submit_until_first_result termed
T0="$(date +%s)"
kill -TERM "$SRV_PID"
if wait "$SRV_PID"; then STATUS=0; else STATUS=$?; fi
SRV_PID=""
wait "$CLIENT_PID" 2>/dev/null || true # the client's sweep was canceled: it exits 1
TOOK=$(($(date +%s) - T0))
if [ "$STATUS" -ne 0 ] || [ "$TOOK" -gt 5 ]; then
	echo "server exited $STATUS after ${TOOK}s on SIGTERM, want 0 within 5s" >&2
	cat "$WORK/server.log" >&2
	exit 1
fi
grep -q '"canceled"' "$WORK/termed.err" || {
	echo "client did not get the canceled error line:" >&2
	cat "$WORK/termed.err" >&2
	exit 1
}
interrupted_journal "$WORK/term-journal"
head -n "$DONE_LINES" "$REF_JOURNAL" | cmp - "$JOURNAL" || {
	echo "journal after SIGTERM is not a clean prefix of the reference" >&2
	exit 1
}
resume_matches_reference "$WORK/term-journal" "$WORK/term-cache" term-resumed
stop "$SRV_PID"

echo "== kill -9 mid-sweep =="
boot "$WORK/journal" "$WORK/cache"
submit_until_first_result killed
kill -9 "$SRV_PID"
SRV_PID=""
wait "$CLIENT_PID" 2>/dev/null || true # the client loses its stream; that is the point
interrupted_journal "$WORK/journal"

echo "== restart + resume =="
resume_matches_reference "$WORK/journal" "$WORK/cache" resumed

echo "== cache: identical resubmission is served byte-identically =="
"$WORK/bin/bench" -server "$URL" -spec "$SPEC" >"$WORK/cached.out" 2>"$WORK/cached.err"
cmp "$WORK/ref.out" "$WORK/cached.out"
grep -q "replayed" "$WORK/cached.err" || {
	echo "resubmission did not replay from the journal" >&2
	exit 1
}

echo "== oracle: -nofastpath recompute matches the cached bytes =="
ORACLE_SPEC="$(printf '%s' "$SPEC" | sed 's/}$/,"recompute":true,"nofastpath":true,"notranslate":true}/')"
"$WORK/bin/bench" -server "$URL" -spec "$ORACLE_SPEC" >"$WORK/oracle.out" 2>"$WORK/oracle.err"
cmp "$WORK/ref.out" "$WORK/oracle.out" || {
	echo "perturbed simulator (nofastpath+notranslate) diverged from cached bytes" >&2
	exit 1
}
stop "$SRV_PID"

echo "ok"
