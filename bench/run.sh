#!/usr/bin/env bash
# Builds the binaries under test and the benchmark driver from the
# checkout this script sits in, then runs the driver with the arguments
# given. Everything it writes stays under .bench_build/ in that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
export GOCACHE=$out/go-cache GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out/bin" "$out/tmp"
export TMPDIR=$out/tmp

# Rebuild only when a source file is newer than the last build.
if [ ! -e "$out/bin/.stamp" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$out/bin/.stamp" -print -quit)" ]; then
	go build -o "$out/bin/" ./cmd/proxyd ./cmd/figures ./cmd/collectd
	(cd bench && go build -o "$out/bin/bench" .)
	touch "$out/bin/.stamp"
fi
exec "$out/bin/bench" -bin "$out/bin" -work "$out" "$@"
