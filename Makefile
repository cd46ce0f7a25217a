# Local development targets. `make check` is the tier-1 gate plus the
# race sweep — run it before sending changes.

GO ?= go

.PHONY: build test race stress vet check bench experiments obs-smoke corpus-smoke engine-smoke distcache-smoke bpartd-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector. The exper golden tests run
# 8-worker sweeps over shared caches, so this is the executor's
# concurrency audit, not just a recompile.
race:
	$(GO) test -race ./...

# Twenty race-detector repetitions of the packages whose tests lean on
# timing and goroutines (the daemon's admission/metrics/shutdown paths,
# the cache's claim/lease and server shutdown), so a flaky test fails
# here rather than in a later change's test run.
stress:
	$(GO) test -race -count=20 ./cmd/bpartd ./internal/cache

vet:
	$(GO) vet ./...

# One traced golden run: exercises -trace/-stats/-manifest end to end on
# the T1 sweep (the golden test separately pins that tracing never moves
# a byte of the table). Artifacts land in /tmp for inspection.
obs-smoke:
	$(GO) run ./cmd/experiments -table 1 -j 8 \
		-trace /tmp/binpart-t1-trace.jsonl \
		-manifest /tmp/binpart-t1-manifest.json \
		-stats >/dev/null

# A slice of the generated-program differential corpus under the race
# detector: 120 switch-shaped programs through the full flow at -j 8,
# every one checked against the reference simulator and cold-vs-warm
# cache. The command exits nonzero on any mismatch or a recovery rate
# below 99%. The summary lands in /tmp for inspection.
corpus-smoke:
	$(GO) run -race ./cmd/experiments -corpus 120 -j 8 \
		-corpus-out /tmp/binpart-corpus-summary.json >/dev/null

# The simulator engine differential: every suite benchmark at -O0..-O3
# through the reference and threaded engines as multi-core batches,
# bit-identity checked down to the profile maps. Exits nonzero on any
# divergence; the E2 table (wall and CPU times) lands in /tmp for
# inspection.
engine-smoke:
	$(GO) run ./cmd/experiments -engines -j 8 >/tmp/binpart-engines.txt

# The distributed-cache path end to end over real processes: one shard
# server plus two sharded workers over localhost, cold cache, then the
# launcher's final sweep served from the shared cache. Exits nonzero if
# the distributed T1 table differs by a byte from a serial run, if the
# final sweep saw no remote hits, or if the server dies without printing
# its per-tier counters. Artifacts land in /tmp/binpart-distcache.
distcache-smoke:
	sh scripts/distcache-smoke.sh

# The partitioning daemon end to end over a real process: priced
# partition + streamed sweep over HTTP, ops /metrics scrape, sustained
# load above 1000 req/s on the warm Analysis cache, then SIGTERM under
# load asserting the clean-drain contract (exit 0, reconciled trace,
# un-interrupted manifest, addr files removed). Artifacts land in
# /tmp/binpart-bpartd.
bpartd-smoke:
	sh scripts/bpartd-smoke.sh

check: vet build test race stress obs-smoke corpus-smoke engine-smoke distcache-smoke bpartd-smoke

# Runs every benchmark and distills the results (per-stage ns/op plus the
# T1 headline custom metrics) into BENCH.json via cmd/benchjson. The text
# output still streams to the terminal. The committed BENCH.json is
# snapshotted first and used as the regression baseline: a >10% Stage*
# regression fails the target (allocs/op always; ns/op only on the same CPU).
# -count=3 with benchjson keeping the per-benchmark minimum damps shared-host
# timing noise; allocs/op is exact regardless.
bench:
	@if [ -f BENCH.json ]; then cp BENCH.json .bench-baseline.json; fi
	$(GO) test -run NONE -bench . -benchmem -count 3 . | $(GO) run ./cmd/benchjson -o BENCH.json -baseline .bench-baseline.json
	@rm -f .bench-baseline.json

experiments:
	$(GO) run ./cmd/experiments -j 8 -cachestats
