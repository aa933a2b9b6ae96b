#!/usr/bin/env bash
# Live-tier smoke: first boot proxyd 20 times, each SIGTERMed as soon as
# /stats answers, and require a clean drain of every one. Then start a
# sharded proxyd, drive it with loadgen for a
# few seconds of closed-loop load, assert a nonzero bandwidth-weighted
# prefix-hit ratio, verified content and the pinned loadgen-live header,
# then SIGTERM the server and require a clean graceful drain (exit 0 with
# a final stats line); then one client over objects larger than the relay
# ring, fetched from a second, warmed proxyd so that the upstream really is
# faster than the client, and require of the drained node's final stats
# relayDemotions == 0, segments coming back out of the pool, and relay
# sends larger than one segment on average.
# In between, a wire phase drives the proxy port with curl — HTTP/1.0, a
# reused connection, HEAD, a refused method, an unsatisfiable range, an
# oversize header — and holds an idle keep-alive connection open across
# the SIGTERM, which must not delay the drain.
# `make proxy-check` and the CI proxy-check job both call this.
set -euo pipefail

ORIGIN_ADDR=${ORIGIN_ADDR:-127.0.0.1:18080}
PROXY_ADDR=${PROXY_ADDR:-127.0.0.1:18081}
UPSTREAM_ADDR=${UPSTREAM_ADDR:-127.0.0.1:18082}
tmp=$(mktemp -d)
pid=
upstream_pid=

cleanup() {
    [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
    [[ -n "$upstream_pid" ]] && kill -KILL "$upstream_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

command -v curl >/dev/null || { echo "proxy-check: the boot loop and the wire phase need curl" >&2; exit 1; }
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

# Boot and stop at once, 20 times over, as the benchmark's boot rung
# does: start proxyd, poll /stats until it answers 200, SIGTERM it the
# moment it does, and require exit 0 with the drained line. A SIGTERM
# that lands before proxyd installs its handler kills it by signal.
for _ in $(seq 1 20); do
    "$tmp/proxyd" -proxy-addr "$PROXY_ADDR" -origin-url "http://$ORIGIN_ADDR" \
        -objects 24 -mean-kb 64 -shards 2 -policy IF -cache-mb 1024 >"$tmp/proxyd.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 1500); do
        curl -sf -o /dev/null "http://$PROXY_ADDR/stats" && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.01
    done
    drain
done
echo "proxy-check: 20 boots, each SIGTERMed as /stats first answered, drained with exit 0"

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

# Wire phase: what proxyd's own HTTP/1.1 loop speaks and refuses
# (DESIGN.md §8b), seen by a client that is not Go's.
base="http://$PROXY_ADDR"
expect() { # expect <what> <got> <want>
    [[ "$2" == "$3" ]] || { echo "proxy-check: wire: $1: got '$2', want '$3'" >&2; exit 1; }
}
size=$(curl -sI "$base/objects/0" | tr -d '\r' | awk 'tolower($1) == "content-length:" { print $2 }')
[[ "$size" -gt 0 ]] || { echo "proxy-check: wire: HEAD gave no Content-Length" >&2; exit 1; }
expect "HEAD carries no body" "$(curl -sI -o /dev/null -w '%{http_code} %{size_download}' "$base/objects/0")" "200 0"
expect "HTTP/1.0 GET" "$(curl -s --http1.0 -o /dev/null -w '%{http_code} %{size_download}' "$base/objects/0")" "200 $size"
expect "two URLs over one connection" \
    "$(curl -s -o /dev/null -o /dev/null -w '%{http_code}/%{num_connects} ' "$base/objects/0" "$base/objects/1")" "200/1 200/0 "
expect "POST" "$(curl -s -X POST -o /dev/null -w '%{http_code}' "$base/objects/0")" "405"
expect "Range: bytes=<size>-" \
    "$(curl -s -o /dev/null -D - -H "Range: bytes=$size-" "$base/objects/0" | tr -d '\r' | grep -i -e '^HTTP/' -e '^content-range:' | tr '\n' ' ')" \
    "HTTP/1.1 416 Requested Range Not Satisfiable Content-Range: bytes */$size "
expect "20000-byte header" \
    "$(curl -s -o /dev/null -w '%{http_code}' -H "X-Pad: $(head -c 20000 /dev/zero | tr '\0' a)" "$base/objects/0")" "431"
# An idle keep-alive connection (one request answered, the next never
# sent) is closed by the drain, not waited for.
exec 3<>"/dev/tcp/${PROXY_ADDR%:*}/${PROXY_ADDR##*:}"
printf 'GET /objects/0 HTTP/1.1\r\nHost: check\r\n\r\n' >&3
read -r -t 5 status_line <&3
expect "keep-alive GET over /dev/tcp" "${status_line%$'\r'}" "HTTP/1.1 200 OK"
drain_started=$SECONDS
drain
exec 3<&- 3>&-
(( SECONDS - drain_started <= 5 )) || {
    echo "proxy-check: wire: an idle keep-alive connection held the drain for $((SECONDS - drain_started))s" >&2
    # The drained line ends in each phase's time: proxy server, origin
    # server, quiesce.
    grep 'drained; final stats' "$tmp/proxyd.log" >&2
    exit 1
}
echo "proxy-check: wire phase passed (HTTP/1.0, reuse, HEAD, 405, 416, 431, idle connection drained)"

# One client, objects several times the relay ring, an upstream far
# faster than the client: every miss must cost one upstream transfer.
# (Before fetches were paced by their readers, this is the case in
# which the ring lapped its only reader and the rest was refetched.)
# proxyd's own origin regenerates content byte by byte and is slower
# than any client, so the upstream here is a second proxyd that holds
# the catalog in cache and serves it at hit speed.
large=(-objects 8 -mean-kb 4096)
"$tmp/proxyd" -origin-addr "$ORIGIN_ADDR" -proxy-addr "$UPSTREAM_ADDR" \
    -shards 4 -origin-kbps 0 -policy LRU "${large[@]}" -cache-mb 256 >"$tmp/upstream.log" 2>&1 &
upstream_pid=$!
run_large() { # run_large <proxy address> <summary file>
    "$tmp/loadgen" -proxy "http://$1" -clients 1 -requests 24 \
        "${large[@]}" -catalog-seed 1 -wait 15s -verify -out "$2"
}
run_large "$UPSTREAM_ADDR" /dev/null
start_proxyd -origin-url "http://$UPSTREAM_ADDR" "${large[@]}" -cache-mb 16
run_large "$PROXY_ADDR" "$tmp/loadgen-large.csv"
drain
kill -TERM "$upstream_pid"
wait "$upstream_pid" || { echo "proxy-check: the upstream proxyd did not exit cleanly on SIGTERM" >&2; exit 1; }
upstream_pid=
grep 'drained; final stats' "$tmp/proxyd.log" | grep -q '"relayDemotions":0,' || {
    echo "proxy-check: a sole reader was demoted (relayDemotions != 0)" >&2
    cat "$tmp/proxyd.log" >&2
    exit 1
}
# The same 24 misses move bytes the way hits do (DESIGN.md §8a): what
# the LRU evicts goes back to the pool and the next relay draws on it,
# and a reader's step sends everything published in one vectored write.
stat() { # stat <counter>: its value in the final stats line
    grep 'drained; final stats' "$tmp/proxyd.log" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}
recycled=$(stat segmentsRecycled) bytes=$(stat bytesFromOrigin) writes=$(stat relayWrites)
[[ "$recycled" -gt 0 ]] || {
    echo "proxy-check: no segment came back out of the pool (segmentsRecycled=$recycled, segmentsAllocated=$(stat segmentsAllocated))" >&2
    exit 1
}
[[ "$writes" -gt 0 && $((bytes / writes)) -gt 65536 ]] || {
    echo "proxy-check: relay sends average $bytes/$writes bytes, want more than one 65536-byte segment" >&2
    exit 1
}
echo "proxy-check: live stack served load with cache hits, no sole reader demoted, $((bytes / writes)) bytes per relay send, $recycled segments recycled, and drained cleanly"
