#!/usr/bin/env bash
# Builds the programs under test and the perfbench program from this
# checkout, then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm-partition --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the
# checkout, so the benchmark reads and writes nothing outside it. Outside
# a full checkout (no go.mod beside perfbench/) the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bpartd" || ! -d "$root/cmd/experiments" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/bpartd and cmd/experiments not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/experiments ./cmd/bpartd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/tmp" "$@"
