#!/bin/sh
# loc.sh — non-test Go lines per package: `wc -l` over every .go file that
# is not a _test.go, summed per directory. This is the measure ROADMAP
# tracks ("non-test LOC per package should go down"); blank lines and
# comments count, so deleting a reason-giving comment is not a saving.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
	awk '$2 != "total" {
		dir = $2
		sub(/^\.\//, "", dir)
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d
		printf "%7d total\n", total
	}' | sort -k2
