#!/usr/bin/env bash
# End-to-end proof that the mediavet binary rejects violations by name
# (OPERATIONS.md §11). Three phases:
#   1. the shipped tree passes `mediavet ./...`;
#   2. an injected wall-clock read in internal/sim fails it, and the
#      failure names the determinism analyzer;
#   3. an injected origin fetch under a held shard lock in
#      internal/proxy fails it, naming the shardlock analyzer.
# Phases 2-3 run in a disposable copy of the tree so the working
# checkout is never touched. `make lint-check` and CI both call this.
set -euo pipefail

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

go build -o "$tmp/mediavet" ./cmd/mediavet

echo "lint-check: phase 1 — shipped tree is clean under mediavet"
"$tmp/mediavet" ./...

copy=$tmp/tree
mkdir -p "$copy"
# Copy the module without build outputs; git metadata is not needed
# since we only run mediavet in the copy.
tar -C "$PWD" --exclude ./.git --exclude ./bin --exclude ./results -cf - . | tar -C "$copy" -xf -

expect_failure() {
    local label=$1 analyzer=$2 pkg=$3
    local out
    if out=$("$tmp/mediavet" -C "$copy" "$pkg" 2>&1); then
        echo "lint-check: FAIL: $label was not flagged" >&2
        return 1
    fi
    if ! grep -q "$analyzer:" <<<"$out"; then
        echo "lint-check: FAIL: $label failed but not via the $analyzer analyzer:" >&2
        echo "$out" >&2
        return 1
    fi
    echo "lint-check: $label correctly rejected by $analyzer"
}

echo "lint-check: phase 2 — injected wall-clock read in internal/sim"
cat >"$copy/internal/sim/injected_violation.go" <<'EOF'
package sim

import "time"

// WallClockSeed is an injected violation: seeding from the wall clock
// breaks bit-identical replay.
func WallClockSeed() uint64 {
	return uint64(time.Now().UnixNano())
}
EOF
expect_failure "wall-clock read in internal/sim" determinism ./internal/sim/
rm "$copy/internal/sim/injected_violation.go"

echo "lint-check: phase 3 — injected origin fetch under a held shard lock"
cat >"$copy/internal/proxy/injected_violation.go" <<'EOF'
package proxy

import "context"

// LockedFetch is an injected violation: an origin round-trip while the
// shard mutex is held serializes every request on that shard.
func (p *Proxy) LockedFetch(ctx context.Context, meta Meta, origin string) error {
	sh := p.shardFor(meta.ID)
	sh.mu.Lock()
	resp, err := p.originRequest(ctx, meta, origin, 0)
	if err == nil {
		resp.Body.Close()
	}
	sh.mu.Unlock()
	return err
}
EOF
expect_failure "origin fetch under shard lock in internal/proxy" shardlock ./internal/proxy/
rm "$copy/internal/proxy/injected_violation.go"

echo "lint-check: all phases passed"
