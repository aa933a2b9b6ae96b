#!/usr/bin/env bash
# Cross-commit byte-identity check for the figure path: build
# cmd/figures from <ref> (a throw-away `git archive` export, so the
# work tree and .git are untouched) and from the work tree, run both
# with the same -only/-scale/-seed, and diff every CSV they write.
# TestGoldenTables pins the small-scale digests on every `go test`;
# this is the same question at any scale and against any commit —
# the check a refactor of internal/experiments or internal/sim runs at
# -scale paper before it claims "no table moved".
#
#   scripts/figures-diff.sh <ref> [keys] [scale]
#   scripts/figures-diff.sh HEAD~1 figure5,refined-e paper
#
# keys defaults to every experiment, scale to small; SEED and PARALLEL
# override -seed (1) and -parallel (0 = GOMAXPROCS). `make figures-diff`
# calls this with REF, KEYS and SCALE.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/figures-diff.sh <ref> [keys] [scale]}
keys=${2:-}
scale=${3:-small}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/figures-ref" ./cmd/figures)
go build -o "$tmp/figures-work" ./cmd/figures

args=(-scale "$scale" -seed "${SEED:-1}" -parallel "${PARALLEL:-0}")
[[ -n "$keys" ]] && args+=(-only "$keys")
for side in ref work; do
    start=$SECONDS
    "$tmp/figures-$side" -out "$tmp/$side" "${args[@]}" >/dev/null
    echo "figures-diff: $side ran in $((SECONDS - start))s"
done

# INDEX.txt carries a wall-clock stamp; every other file must match.
failed=0
for name in $(ls "$tmp/ref" "$tmp/work" | grep '\.csv$' | sort -u); do
    if diff "$tmp/ref/$name" "$tmp/work/$name" >"$tmp/diff.out" 2>&1; then
        printf 'identical  %-45s %6d lines  sha256 %s\n' "$name" "$(wc -l <"$tmp/work/$name")" "$(sha256sum "$tmp/work/$name" | cut -c1-16)"
    else
        echo "DIFFERS    $name"
        head -20 "$tmp/diff.out"
        failed=1
    fi
done
if [[ $failed -ne 0 ]]; then
    echo "figures-diff: tables differ between $ref and the work tree at scale=$scale" >&2
    exit 1
fi
echo "figures-diff: every CSV is byte-identical between $ref and the work tree (scale=$scale keys=${keys:-all})"
