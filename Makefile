# Local development targets. `make check` is the tier-1 gate plus the
# race sweep — run it before sending changes.

GO ?= go

.PHONY: fmt build test race stress vet check bench bench-gate experiments examples obs-smoke corpus-smoke bpartd-smoke cover-product

# The gofmt gate, with the same command CI's Format step runs: it lists
# every file gofmt would change and fails if there is any.
fmt:
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$fmt" >&2; \
		exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The full suite under the race detector. The exper golden tests run
# 8-worker sweeps over shared caches, so this is the executor's
# concurrency audit, not just a recompile.
race:
	$(GO) test -race ./...

# Twenty race-detector repetitions of the packages whose tests lean on
# timing and goroutines (the daemon's admission/metrics/shutdown paths
# and the cache's in-flight coalescing), so a flaky test fails here
# rather than in a later change's test run.
stress:
	$(GO) test -race -count=20 ./cmd/bpartd ./internal/cache

# perfbench is its own module, outside the root ./... patterns, so it is
# vetted and built explicitly: an API break in core, cache or bench that
# only perfbench sees fails here.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./... && $(GO) build .

# One traced golden run: exercises -trace/-stats/-manifest end to end on
# the full default regeneration, the one-pool plan every experiment runs
# in (the golden tests separately pin that tracing never moves a byte of
# a table), and the traced tables must equal the committed golden with
# A1's measured partition times masked. The run must also finish inside
# experiments' first heap goal: -stats has to read "gc: 0 cycles". The
# trace, manifest, tables and stats land in /tmp/obs, which CI uploads.
obs-smoke:
	mkdir -p /tmp/obs
	$(GO) run ./cmd/experiments -j 8 \
		-trace /tmp/obs/trace.jsonl \
		-manifest /tmp/obs/manifest.json \
		-stats >/tmp/obs/tables.txt 2>/tmp/obs/stats.txt
	sed -E 's/partition time [^ ]+/partition time <masked>/' /tmp/obs/tables.txt | \
		diff cmd/experiments/testdata/experiments_golden.txt -
	@grep -q '^gc: 0 cycles' /tmp/obs/stats.txt || { \
		echo "obs-smoke: the regeneration ran a GC cycle inside its first heap goal:" >&2; \
		grep '^gc:' /tmp/obs/stats.txt >&2; \
		exit 1; \
	}

# A slice of the generated-program differential corpus under the race
# detector: 120 switch-shaped programs through the full flow at -j 8,
# every one checked against the reference simulator and cold-vs-warm
# cache. The command exits nonzero on any mismatch or a recovery rate
# below 99%. The summary and the figure land in /tmp/corpus, which CI
# uploads.
corpus-smoke:
	mkdir -p /tmp/corpus
	$(GO) run -race ./cmd/experiments -corpus 120 -j 8 \
		-corpus-out /tmp/corpus/corpus-summary.json >/tmp/corpus/corpus-figure.txt

# The partitioning daemon end to end over a real process: priced
# partition + streamed sweep over HTTP with curl, ops /metrics scrape, a
# perfbench warm-partition run holding 1000 req/s with every response
# correct, then SIGTERM under a curl load loop asserting the clean-drain
# contract (exit 0, reconciled trace, un-interrupted manifest, addr files
# removed). Needs curl and jq. Artifacts land in /tmp/binpart-bpartd.
bpartd-smoke:
	sh scripts/bpartd-smoke.sh

# Runs every program under examples/; each must exit 0. crcaccel is also
# the one non-test caller of vhdl.Check. Then README's command-line
# quickstart on the committed examples/quickstart/prog.mc: the whole
# mcc -O 2 -S disassembly must equal the committed golden (it pins
# compiler, encoder, decoder and disassembler end to end; after a change
# meant to alter emitted code, regenerate it with
# `go run ./cmd/mcc -O 2 -S -o /dev/null examples/quickstart/prog.mc
# > examples/quickstart/testdata/prog_O2.s`), and mipsim -profile and
# bparts -vhdl are each checked for their headline.
examples:
	for e in examples/*/; do $(GO) run ./$$e >/dev/null || exit 1; done
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/" ./cmd/mcc ./cmd/mipsim ./cmd/bparts && \
	"$$d/mcc" -O 2 -S -o "$$d/prog.sbf" examples/quickstart/prog.mc >"$$d/prog.s" && \
	diff -u examples/quickstart/testdata/prog_O2.s "$$d/prog.s" && \
	"$$d/mipsim" -profile "$$d/prog.sbf" | grep 'hottest addresses' >/dev/null && \
	"$$d/bparts" -vhdl "$$d/vhdl" "$$d/prog.sbf" | grep 'application speedup' >/dev/null && \
	ls "$$d/vhdl" | grep '\.vhd' >/dev/null && \
	echo "examples: mcc -S matched its golden; mipsim -profile and bparts -vhdl ran on examples/quickstart/prog.mc"

# Product coverage, a report and not a gate: one row per package with
# the statements a product run reaches, those only tests reach, and
# those nothing reaches (scripts/cover-product.sh says which runs).
# Needs curl and jq for the daemon smoke. Artifacts land in .cover_build/.
cover-product:
	bash scripts/cover-product.sh

check: fmt vet build test race stress bench-gate examples obs-smoke corpus-smoke bpartd-smoke

# Runs every benchmark (the root package's and bpartd's warm-request
# benchmark) and distills the results (per-stage ns/op plus the
# T1 headline custom metrics) into BENCH.json via cmd/benchjson. The text
# output still streams to the terminal. The committed BENCH.json is
# snapshotted first and used as the regression baseline: a >10% Stage*
# regression fails the target (allocs/op and B/op always; ns/op only on the
# same CPU). -count=3 with benchjson keeping the per-benchmark minimum
# (ns/op, B/op and allocs/op each) damps shared-host timing noise and a
# stray allocation in one run.
bench:
	@if [ -f BENCH.json ]; then cp BENCH.json .bench-baseline.json; fi
	$(GO) test -run NONE -bench . -benchmem -count 3 . ./cmd/bpartd | $(GO) run ./cmd/benchjson -o BENCH.json -baseline .bench-baseline.json
	@rm -f .bench-baseline.json

# The bench regression gate, with the same command CI's gate step runs:
# every benchmark once per run, three runs, checked against the
# committed BENCH.json (Stage* allocs/op and B/op always; ns/op only on
# the CPU recorded there). Without -o benchjson writes no file, so the
# baseline stays as it was.
bench-gate:
	$(GO) test -run NONE -bench . -benchmem -benchtime 1x -count 3 . ./cmd/bpartd | $(GO) run ./cmd/benchjson -baseline BENCH.json

experiments:
	$(GO) run ./cmd/experiments -j 8 -stats
