#!/usr/bin/env bash
# No floating-point multiply-add that the compiler fuses, anywhere in the
# module. The Go spec lets an implementation fuse x*y + z into one
# rounding; amd64 never does, but arm64, ppc64le, s390x and riscv64 do,
# so the same seed could print other table bytes there. An explicit
# float64(x*y) rounds the product and forbids the fusion, and on amd64
# it compiles to nothing. This builds every package for each of those
# architectures with the assembly listing on and fails on each
# FMADD/FMSUB/FNMADD/FNMSUB it names (the listing gives file:line).
# `make fma-check` calls this.
set -euo pipefail
cd "$(dirname "$0")/.."

bad=0
for arch in arm64 ppc64le s390x riscv64; do
    asm=$(GOARCH=$arch go build -gcflags=-S ./... 2>&1) || {
        printf '%s\n' "$asm" >&2
        echo "fma-check: FAIL: the $arch build failed" >&2
        exit 1
    }
    fused=$(grep -E '\bFN?M(ADD|SUB)[DS]?\b' <<<"$asm" | grep -o '([^()]*\.go:[0-9]*)' | sort | uniq -c) || true
    if [[ -n $fused ]]; then
        printf '%s:\n%s\n' "$arch" "$fused" >&2
        bad=1
    fi
done
if ((bad)); then
    echo "fma-check: FAIL: fused multiply-adds at the lines above: write float64(x*y) for each product that is added" >&2
    exit 1
fi
echo "fma-check: no fused multiply-add on arm64, ppc64le, s390x or riscv64"
