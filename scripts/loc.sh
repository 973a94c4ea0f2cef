#!/bin/sh
# loc.sh — non-test Go lines per package: `wc -l` over every .go file that
# is not a _test.go, summed per directory. This is the measure ROADMAP
# tracks ("non-test LOC per package should go down"); blank lines and
# comments count, so deleting a reason-giving comment is not a saving.
#
#	sh scripts/loc.sh            # the working tree
#	sh scripts/loc.sh <git-ref>  # before/after/delta against that commit,
#	                             # one row per package whose count changed
#
# The commit's side is counted by the same rule over `git ls-tree` / `git
# show`, so a PR's before/after table is produced, not hand-computed.
set -eu

cd "$(dirname "$0")/.."

# Both counters print "<lines> <path>" per non-test Go file.
count_tree() {
	find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
		awk '$2 != "total" { sub(/^\.\//, "", $2); print $1, $2 }'
}

count_ref() {
	git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' |
		while read -r f; do
			echo "$(git show "$1:$f" | wc -l) $f"
		done
}

if [ $# -eq 0 ]; then
	count_tree | awk '{
		dir = $2
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d
		printf "%7d total\n", total
	}' | sort -k2
	exit 0
fi

ref="$1"
git rev-parse -q --verify "$ref^{commit}" >/dev/null || {
	echo "loc.sh: $ref is not a commit" >&2
	exit 2
}
{
	count_ref "$ref" | sed 's/^/before /'
	count_tree | sed 's/^/after /'
} | awk '{
	dir = $3
	if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	n[$1, dir] += $2
	total[$1] += $2
	seen[dir] = 1
}
END {
	for (d in seen)
		if (n["before", d] != n["after", d])
			printf "%7d %7d %+7d %s\n", n["before", d], n["after", d], n["after", d] - n["before", d], d
	printf "%7d %7d %+7d total\n", total["before"], total["after"], total["after"] - total["before"]
}' | sort -k4 | { printf "%7s %7s %7s %s\n" before after delta "package (vs $ref)"; cat; }
