#!/usr/bin/env bash
# Product coverage: which statements a real run of the flow reaches.
#
# Builds every command and example with statement coverage, runs the
# product the way its users do, runs the test suite with the same
# instrumentation, and prints one row per package: statements reached
# by a product run, reached only by tests, and reached by nothing.
# Run it from the repository root:
#
#   bash scripts/cover-product.sh
#
# The product runs are:
#   - mcc at -O0..-O3 over the 20 suite programs (the 80 suite SBFs;
#     their MicroC comes from internal/bench through a build overlay, so
#     no command grows a flag for it), plus mcc -S and mipsim -profile
#     on crc;
#   - experiments -j 2 and experiments -j 2 -corpus 60;
#   - bparts -j 2 over the 80 SBFs in seven modes (default, -whole,
#     -sweep devices, -sweep clocks, -structure -vhdl,
#     -jumptables=false -alg greedy, -alg gclp);
#   - every program under examples/;
#   - scripts/bpartd-smoke.sh with the daemon built for coverage.
#
# Statements under examples/ are not counted. perfbench is a separate
# module and is not counted either. It is a report, not a gate: the
# script fails only when a product run or a test fails. Everything it
# writes lives under .cover_build/: product.out and test.out are text
# profiles for `go tool cover -html`.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bparts" ]]; then
	echo "cover-product: run from the repository root" >&2
	exit 2
fi
out="$root/.cover_build"
rm -rf "$out"
mkdir -p "$out/bin" "$out/prod" "$out/mc" "$out/sbf" "$out/vhdl" "$out/gen"
cover=(-cover -coverpkg=./...)

go build "${cover[@]}" -o "$out/bin/" ./cmd/... ./examples/...

# The suite's MicroC, one file per benchmark. The generator is compiled
# into internal/bench's tree by an overlay, so it may import the package
# without a file in the checkout.
cat >"$out/gen/main.go" <<'EOF'
package main

import (
	"os"
	"path/filepath"

	"binpart/internal/bench"
)

func main() {
	for _, b := range bench.All() {
		if err := os.WriteFile(filepath.Join(os.Args[1], b.Name+".mc"), []byte(b.Source), 0o644); err != nil {
			panic(err)
		}
	}
}
EOF
printf '{"Replace":{"%s/internal/bench/coverdump/main.go":"%s/gen/main.go"}}\n' "$root" "$out" >"$out/gen/overlay.json"
go run -overlay "$out/gen/overlay.json" ./internal/bench/coverdump "$out/mc"

export GOCOVERDIR="$out/prod"
run() { "$@" >/dev/null 2>"$out/stderr.txt" || { cat "$out/stderr.txt" >&2; exit 1; }; }

sbfs=()
for mc in "$out"/mc/*.mc; do
	name=$(basename "$mc" .mc)
	for l in 0 1 2 3; do
		run "$out/bin/mcc" -O "$l" -o "$out/sbf/$name-O$l.sbf" "$mc"
		sbfs+=("$out/sbf/$name-O$l.sbf")
	done
done
run "$out/bin/mcc" -O 2 -S -o "$out/crc.sbf" "$out/mc/crc.mc"
run "$out/bin/mipsim" -profile "$out/crc.sbf"

run "$out/bin/experiments" -j 2
run "$out/bin/experiments" -j 2 -corpus 60

run "$out/bin/bparts" -j 2 "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -whole "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -sweep devices "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -sweep clocks "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -structure -vhdl "$out/vhdl" "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -jumptables=false -alg greedy "${sbfs[@]}"
run "$out/bin/bparts" -j 2 -alg gclp "${sbfs[@]}"

for e in examples/*/; do
	run "$out/bin/$(basename "$e")"
done

# The smoke script builds its own daemon; GOFLAGS makes that build a
# coverage build.
BPARTD_OUT="$out/smoke" GOFLAGS="${cover[*]}" sh scripts/bpartd-smoke.sh >/dev/null
unset GOCOVERDIR

go tool covdata textfmt -i="$out/prod" -o "$out/product.out"
go test "${cover[@]}" -coverprofile="$out/test.out" ./... >"$out/test.log" ||
	{ cat "$out/test.log" >&2; exit 1; }

# A block is "product" if any product run reached it, "test-only" if
# only a test did, and "nothing" otherwise. Both profiles list the same
# blocks (one instrumentation), some of them more than once.
awk '
FNR == 1 { src++; next }
{
	split($1, loc, ":")
	if (loc[1] ~ /^binpart\/examples\//) next
	stmts[$1] = $(NF-1)
	if ($NF > 0) hit[$1, src] = 1
}
END {
	for (b in stmts) {
		split(b, loc, ":")
		pkg = loc[1]
		sub(/^binpart\//, "", pkg)
		sub(/\/[^\/]*$/, "", pkg)
		n = stmts[b]
		col = ((b, 1) in hit) ? "prod" : ((b, 2) in hit) ? "test" : "none"
		tot[pkg] += n; cnt[pkg, col] += n
		all += n; allc[col] += n
	}
	for (p in tot)
		printf "%-22s %7d %8d %10d %8d\n", p, tot[p], cnt[p, "prod"], cnt[p, "test"], cnt[p, "none"]
	printf "%-22s %7d %8d %10d %8d\n", "~total", all, allc["prod"], allc["test"], allc["none"]
}' "$out/product.out" "$out/test.out" | LC_ALL=C sort | {
	printf "%-22s %7s %8s %10s %8s\n" package stmts product test-only nothing
	sed 's/^~total/total /'
}
