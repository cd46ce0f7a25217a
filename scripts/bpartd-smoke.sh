#!/bin/sh
# Partitioning-daemon smoke: start bpartd with trace + manifest, hit the
# API end to end with curl (priced partition, streamed sweep, ops
# /metrics, health probes), hold the 1000 req/s floor with a perfbench
# warm-partition run (which also checks every response against its
# oracle), then SIGTERM the daemon while a curl loop is still posting
# and assert the clean-drain contract: exit 0, "drained ... reconciled
# ... clean" on stderr, a manifest that is not marked interrupted, a
# non-empty trace, and the addr files removed. Run it from the
# repository root; it needs curl and jq. Artifacts land in $BPARTD_OUT.
set -eu

for tool in curl jq; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "bpartd-smoke: $tool is required but not on PATH" >&2
        exit 1
    fi
done

OUT=${BPARTD_OUT:-/tmp/binpart-bpartd}
rm -rf "$OUT"
mkdir -p "$OUT"

BIN="$OUT/bpartd"
go build -o "$BIN" ./cmd/bpartd

"$BIN" -addr 127.0.0.1:0 -addr-file "$OUT/addr" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$OUT/oaddr" \
    -trace "$OUT/trace.jsonl" -manifest "$OUT/manifest.json" -stats \
    2>"$OUT/daemon.log" &
DAEMON=$!
LOAD=
trap 'kill $DAEMON $LOAD 2>/dev/null || true' EXIT

i=0
while [ ! -s "$OUT/addr" ] || [ ! -s "$OUT/oaddr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "bpartd-smoke: daemon never wrote its bound addresses" >&2
        cat "$OUT/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$OUT/addr")
OADDR=$(cat "$OUT/oaddr")
echo "bpartd-smoke: API on $ADDR, ops on $OADDR"

# post ROUTE BODY: one JSON POST, the response on stdout; fails on any
# non-2xx status.
post() {
    curl -sS --fail-with-body -H 'Content-Type: application/json' -d "$2" "http://$ADDR$1"
}

# One priced partition over HTTP: the response embeds the full bparts
# report text plus machine-readable metrics.
post /v1/partition '{"bench":"crc","opt":1}' >"$OUT/partition.json"
if ! grep -q 'application speedup' "$OUT/partition.json"; then
    echo "bpartd-smoke: partition response carries no report" >&2
    cat "$OUT/partition.json" >&2
    exit 1
fi

# One streamed device sweep: ndjson chunks ending in a done trailer that
# counts the points.
post /v1/sweep '{"bench":"crc","opt":1,"sweep":"devices"}' >"$OUT/sweep.ndjson"
if ! grep -q '"done":true' "$OUT/sweep.ndjson"; then
    echo "bpartd-smoke: sweep stream has no done trailer" >&2
    cat "$OUT/sweep.ndjson" >&2
    exit 1
fi

# The ops surface answers Prometheus text with the daemon's own families.
curl -sS --fail-with-body "http://$OADDR/metrics" >"$OUT/metrics.txt"
for fam in bpartd_requests_total bpartd_inflight binpart_cache_hits_total; do
    if ! grep -q "^$fam" "$OUT/metrics.txt"; then
        echo "bpartd-smoke: /metrics missing $fam" >&2
        exit 1
    fi
done
curl -sS --fail-with-body "http://$OADDR/healthz" >/dev/null
curl -sS --fail-with-body "http://$OADDR/readyz" >/dev/null

# Sustained load on warm daemons must clear the 1000 req/s floor with
# every response correct: perfbench's warm-partition workload drives
# its own bpartd children closed-loop and checks each response against
# its oracle. Its last stdout line is the JSON result.
if ! bash perfbench/run.sh --workload warm-partition --seed 1 --seconds 2 --trace 0 \
    >"$OUT/perfbench.log"; then
    echo "bpartd-smoke: perfbench warm-partition run failed" >&2
    cat "$OUT/perfbench.log" >&2
    exit 1
fi
tail -n 1 "$OUT/perfbench.log" >"$OUT/perfbench.json"
jq -r '"bpartd-smoke: perfbench \(.metrics.req_per_s.value | floor) req/s, \(.attempted) requests, \(.failed) failed"' \
    "$OUT/perfbench.json"
if ! jq -e '.correct and .failed == 0 and .metrics.req_per_s.value >= 1000' \
    "$OUT/perfbench.json" >/dev/null; then
    echo "bpartd-smoke: sustained load below the 1000 req/s floor or not correct" >&2
    cat "$OUT/perfbench.json" >&2
    exit 1
fi

# SIGTERM mid-load: a curl loop is still posting when the signal lands.
# The daemon must stop admitting (the loop sees refusals once the
# listener closes, which ends it), drain what it admitted, flush +
# reconcile the trace, and exit 0. The loop logs one status per request.
while curl -sS -o /dev/null -w '%{http_code}\n' -H 'Content-Type: application/json' \
    -d '{"bench":"crc","opt":1}' "http://$ADDR/v1/partition" 2>/dev/null; do
    :
done >"$OUT/load-bg.txt" &
LOAD=$!
sleep 0.5
if ! grep -q '^200$' "$OUT/load-bg.txt"; then
    echo "bpartd-smoke: background load served nothing before SIGTERM" >&2
    exit 1
fi
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
    echo "bpartd-smoke: daemon exited nonzero on SIGTERM" >&2
    cat "$OUT/daemon.log" >&2
    exit 1
fi
trap - EXIT
kill "$LOAD" 2>/dev/null || true
wait "$LOAD" 2>/dev/null || true

if ! grep -q 'trace reconciled, shutdown clean' "$OUT/daemon.log"; then
    echo "bpartd-smoke: no clean-drain message in daemon log" >&2
    cat "$OUT/daemon.log" >&2
    exit 1
fi
if [ ! -s "$OUT/manifest.json" ] || grep -q '"interrupted": *true' "$OUT/manifest.json"; then
    echo "bpartd-smoke: manifest missing or marked interrupted" >&2
    cat "$OUT/manifest.json" >&2 || true
    exit 1
fi
if [ ! -s "$OUT/trace.jsonl" ]; then
    echo "bpartd-smoke: trace file missing or empty" >&2
    exit 1
fi
if [ -e "$OUT/addr" ] || [ -e "$OUT/oaddr" ]; then
    echo "bpartd-smoke: addr files not removed on clean exit" >&2
    exit 1
fi

echo "bpartd-smoke: OK, $(sed -n 's/^bpartd: drained //p' "$OUT/daemon.log" | head -1)"
