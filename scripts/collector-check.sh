#!/usr/bin/env bash
# Streaming-collector smoke: boot collectd, run the same sweep as two
# concurrent shards pushing rows and refinement metrics at it, and
# require the collected CSV files to be byte-identical to a
# single-process run — no offline merge step involved. Covers a fixed
# grid (figure5) and both adaptive refinement sweeps (refined-e and the
# 2-D refined-esigma), whose shards split the simulation work through
# the collector's metric exchange: each shard's per-table line must
# show it simulated exactly the points it owns (evals == rows), i.e.
# no foreign point silently fell back to a local simulation.
# `make collector-check` and the CI collector-check job both call this.
set -euo pipefail

COLLECT_ADDR=${COLLECT_ADDR:-127.0.0.1:19190}
KEYS=${KEYS:-figure5,refined-e,refined-esigma}
tmp=$(mktemp -d)
pid=

cleanup() {
    [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/collectd" ./cmd/collectd
go build -o "$tmp/figures" ./cmd/figures

"$tmp/collectd" -addr "$COLLECT_ADDR" -out "$tmp/collected" -shards 2 \
    -exit-when-done >"$tmp/collectd.log" 2>&1 &
pid=$!

# A shard whose hello finds nobody listening degrades to journal-only
# mode by design, so wait for the collector to answer before starting
# any shard.
ready=0
for _ in $(seq 1 100); do
    if curl -sf "http://$COLLECT_ADDR/v1/status" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" != 1 ]]; then
    echo "collector-check: collectd never became reachable on $COLLECT_ADDR" >&2
    cat "$tmp/collectd.log" >&2
    exit 1
fi

# Both shards run concurrently so each can resolve the other's
# refinement metrics through the collector instead of re-simulating
# them; the journals make either shard individually resumable.
"$tmp/figures" -out "$tmp/sharded" -only "$KEYS" -shard 0/2 \
    -journal "$tmp/sharded/j0.jsonl" -collect "http://$COLLECT_ADDR" >"$tmp/shard0.log" &
s0=$!
"$tmp/figures" -out "$tmp/sharded" -only "$KEYS" -shard 1/2 \
    -journal "$tmp/sharded/j1.jsonl" -collect "http://$COLLECT_ADDR" >"$tmp/shard1.log" &
s1=$!
wait "$s0" "$s1"
cat "$tmp/shard0.log" "$tmp/shard1.log"

# A refined table's line reads "<key> <file> <n> rows <time> evals=<e>
# exchange=<x> waited=<t>": the rows a shard emits are the points it
# owns, so evals must equal them — a count, not a timing.
refined=$(tr ',' '\n' <<<"$KEYS" | grep -c '^refined-' || true)
for log in "$tmp/shard0.log" "$tmp/shard1.log"; do
    if ! awk -v want="$refined" '$1 ~ /^refined-/ { seen++; split($6, e, "="); if (e[1] != "evals" || e[2] != $3) { print "collector-check: " $1 ": evals " e[2] " != " $3 " owned rows" > "/dev/stderr"; bad = 1 } }
              END { exit bad || seen != want }' "$log"; then
        echo "collector-check: a shard did not simulate exactly its owned refinement points (or printed no refined table): $log" >&2
        exit 1
    fi
done

# collectd writes the canonical CSVs and exits once both shards report
# done; if a shard silently fell back to journal-only mode that exit
# never comes, so bound the wait instead of hanging.
exited=0
for _ in $(seq 1 300); do
    if ! kill -0 "$pid" 2>/dev/null; then
        exited=1
        break
    fi
    sleep 0.1
done
if [[ "$exited" != 1 ]]; then
    echo "collector-check: collectd still running — not every shard reported done" >&2
    curl -s "http://$COLLECT_ADDR/v1/status" >&2 || true
    cat "$tmp/collectd.log" >&2
    exit 1
fi
if ! wait "$pid"; then
    echo "collector-check: collectd did not exit cleanly" >&2
    cat "$tmp/collectd.log" >&2
    exit 1
fi
pid=

"$tmp/figures" -out "$tmp/single" -only "$KEYS"

found=0
for f in "$tmp"/single/*.csv; do
    base=$(basename "$f")
    if ! diff "$f" "$tmp/collected/$base"; then
        echo "collector-check: $base differs between collected and single-process output" >&2
        exit 1
    fi
    found=$((found + 1))
done
if [[ "$found" -lt 2 ]]; then
    echo "collector-check: expected at least 2 collected tables, found $found" >&2
    exit 1
fi
echo "collector-check: collected output of 2 shards is byte-identical to the single-process run ($found tables)"
