#!/usr/bin/env bash
# Live-tier smoke: start a sharded proxyd, drive it with loadgen for a
# few seconds of closed-loop load, assert a nonzero bandwidth-weighted
# prefix-hit ratio, verified content and the pinned loadgen-live header,
# then SIGTERM the server and require a clean graceful drain (exit 0 with
# a final stats line); then one client over objects larger than the relay
# ring, and require relayDemotions == 0 in the drained node's final stats.
# `make proxy-check` and the CI proxy-check job both call this.
set -euo pipefail

ORIGIN_ADDR=${ORIGIN_ADDR:-127.0.0.1:18080}
PROXY_ADDR=${PROXY_ADDR:-127.0.0.1:18081}
tmp=$(mktemp -d)
pid=

cleanup() {
    [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/proxyd" ./cmd/proxyd
go build -o "$tmp/loadgen" ./cmd/loadgen

# start_proxyd <catalog and cache flags...>: a sharded proxyd over a fast
# local origin.
start_proxyd() {
    "$tmp/proxyd" -origin-addr "$ORIGIN_ADDR" -proxy-addr "$PROXY_ADDR" \
        -shards 4 -origin-kbps 0 -policy LRU "$@" >"$tmp/proxyd.log" 2>&1 &
    pid=$!
}

# drain: SIGTERM the server and require a clean graceful drain.
drain() {
    kill -TERM "$pid"
    drain_ok=0
    if wait "$pid"; then
        drain_ok=1
    fi
    pid=
    if [[ "$drain_ok" != 1 ]]; then
        echo "proxy-check: proxyd did not exit cleanly on SIGTERM" >&2
        cat "$tmp/proxyd.log" >&2
        exit 1
    fi
    grep -q 'drained; final stats' "$tmp/proxyd.log" || {
        echo "proxy-check: no drain confirmation in proxyd log" >&2
        cat "$tmp/proxyd.log" >&2
        exit 1
    }
}

start_proxyd -objects 24 -mean-kb 64 -cache-mb 8

# loadgen polls /stats for readiness (-wait), verifies every download's
# digest, and fails unless the live bandwidth-weighted hit ratio is
# nonzero.
"$tmp/loadgen" -proxy "http://$PROXY_ADDR" -clients 4 -requests 120 \
    -objects 24 -mean-kb 64 -catalog-seed 1 -wait 15s \
    -verify -min-hit-ratio 0.05 -out "$tmp/loadgen.csv"
cat "$tmp/loadgen.csv"

# Row-schema stability: scripts/cluster-check.sh and figures
# -overlay-live key on these columns by name. A schema change must be
# deliberate — update the canonical header here and in cmd/loadgen's
# liveTable (the last four are experiments.TierColumns) together.
want_header='clients,requests,errors,prefix_hit_ratio,bw_hit_ratio,origin_bytes,coalesced,delay_mean_ms,delay_p50_ms,delay_p90_ms,delay_p99_ms,mean_throughput_kbps,wall_seconds,edge_byte_frac,peer_byte_frac,parent_byte_frac,origin_byte_frac'
got_header=$(grep -v '^#' "$tmp/loadgen.csv" | head -n 1)
[[ "$got_header" == "$want_header" ]] || {
    echo "proxy-check: loadgen-live header drifted" >&2
    echo "  want: $want_header" >&2
    echo "  got:  $got_header" >&2
    exit 1
}
drain

# One client, objects several times the relay ring, an origin far
# faster than the client: every miss must cost one upstream transfer.
# (Before fetches were paced by their readers, this is the case in
# which the ring lapped its only reader and the rest was refetched.)
start_proxyd -objects 8 -mean-kb 4096 -cache-mb 16
"$tmp/loadgen" -proxy "http://$PROXY_ADDR" -clients 1 -requests 24 \
    -objects 8 -mean-kb 4096 -catalog-seed 1 -wait 15s \
    -verify -out "$tmp/loadgen-large.csv"
drain
grep 'drained; final stats' "$tmp/proxyd.log" | grep -q '"relayDemotions":0,' || {
    echo "proxy-check: a sole reader was demoted (relayDemotions != 0)" >&2
    cat "$tmp/proxyd.log" >&2
    exit 1
}
echo "proxy-check: live stack served load with cache hits, no sole reader demoted, and drained cleanly"
