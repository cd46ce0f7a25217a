#!/usr/bin/env bash
# Compares this checkout with a base commit on the end-to-end benchmark,
# on the same host, in alternating pairs. Run it from the repository
# root:
#
#   bash scripts/perfpairs.sh [-n pairs] [-w workload] [-s seconds] [-b base]
#
# It exports the merge-base of HEAD and the base into a scratch directory
# with `git archive`, so the repository's .git gains no worktree entry.
# The base defaults to HEAD when the working tree has uncommitted changes
# (they are the change measured) and to HEAD~1 when it is clean. Then, for seeds 1..pairs (default 10), it runs
#
#   bash perfbench/run.sh --workload <w> --seed <i> --seconds <s> --trace 0
#
# once in each tree, alternating which tree goes first, and prints one row
# per metric: the base's median [q1, q3], this checkout's median, the
# change of the medians in percent, and in how many pairs this checkout
# was better. A metric's direction (lower or higher is better) comes from
# BENCHMARK.json; a metric it gives no direction shows n/a for wins. Quartiles are Tukey's hinges. The working tree is
# measured as it is, uncommitted changes included; nothing under
# perfbench/ is modified. Every run must be correct with no failed
# operations, or the script stops.
set -euo pipefail

pairs=10 workload=tables-cold seconds=3 base=
while getopts "n:w:s:b:" opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seconds=$OPTARG ;;
	b) base=$OPTARG ;;
	*) echo "usage: $0 [-n pairs] [-w workload] [-s seconds] [-b base]" >&2; exit 2 ;;
	esac
done

root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -f "$root/perfbench/run.sh" ]]; then
	echo "perfpairs: run from the repository root" >&2
	exit 2
fi
if [[ -z "$base" ]]; then
	if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
		base=HEAD
	else
		base=HEAD~1
	fi
fi
mb=$(git merge-base "$base" HEAD)
work=$(mktemp -d "${TMPDIR:-/tmp}/perfpairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$mb" | tar -x -C "$work/base"
echo "perfpairs: base $(git rev-parse --short "$mb") vs working tree, $workload, $pairs pairs of $seconds s" >&2

# run TREE SEED OUT: one perfbench run; its last line (the JSON result)
# goes to OUT.
run() {
	local log="$work/log"
	if ! (cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1; then
		tail -20 "$log" >&2
		echo "perfpairs: run failed in $1 (seed $2)" >&2
		exit 1
	fi
	tail -1 "$log" >"$3"
	if ! grep -q '"correct":true' "$3" || ! grep -q '"failed":0[,}]' "$3"; then
		cat "$3" >&2
		echo "perfpairs: incorrect or failed operations in $1 (seed $2)" >&2
		exit 1
	fi
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$work/base" "$i" "$work/base.$i"
		run "$root" "$i" "$work/change.$i"
	else
		run "$root" "$i" "$work/change.$i"
		run "$work/base" "$i" "$work/base.$i"
	fi
	echo "perfpairs: pair $i/$pairs done" >&2
done

# metrics FILE: the "metrics" object of a result, whose entries read
# "name":{"value":v,"unit":u}, as "name value" lines.
metrics() {
	sed 's/.*"metrics":{//' "$1" | grep -o '"[^"]*":{"value":[^,}]*' |
		sed 's/"\([^"]*\)":{"value":/\1 /'
}

# directions: "name lower|higher" for every metric BENCHMARK.json
# declares.
directions() {
	awk -F'"' '/"name":/ { name = $4 } /"better":/ { print name, $4 }' "$root/BENCHMARK.json"
}

{
	directions | sed 's/^/dir /'
	for ((i = 1; i <= pairs; i++)); do
		metrics "$work/base.$i" | sed "s/^/base $i /"
		metrics "$work/change.$i" | sed "s/^/change $i /"
	done
} | awk '
	function sortv(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	# med: median of a[lo..hi] (sorted).
	function med(a, lo, hi,    n, m) {
		n = hi - lo + 1
		m = lo + int((n - 1) / 2)
		return n % 2 ? a[m] : (a[m] + a[m + 1]) / 2
	}
	$1 == "dir" { better[$2] = $3; next }
	{
		side = $1; i = $2; name = $3
		val[side, name, i] = $4
		if (!(name in seen)) { seen[name] = 1; order[++nm] = name }
		if (i > np) np = i
	}
	END {
		printf "%-28s %28s %14s %8s %6s\n", "metric", "base median [q1, q3]", "change median", "delta", "wins"
		for (k = 1; k <= nm; k++) {
			name = order[k]
			wins = 0
			for (i = 1; i <= np; i++) {
				b[i] = val["base", name, i]; c[i] = val["change", name, i]
				if (better[name] == "higher" ? c[i] > b[i] : c[i] < b[i]) wins++
			}
			winsText = better[name] != "" ? sprintf("%d/%d", wins, np) : "n/a"
			sortv(b, np); sortv(c, np)
			h = int(np / 2)
			mb = med(b, 1, np); mc = med(c, 1, np)
			q1 = med(b, 1, h); q3 = med(b, np - h + 1, np)
			delta = mb != 0 ? sprintf("%+.1f%%", 100 * (mc / mb - 1)) : "n/a"
			printf "%-28s %12.6g [%.6g, %.6g] %14.6g %8s %6s\n", name, mb, q1, q3, mc, delta, winsText
		}
	}'
