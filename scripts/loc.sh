#!/usr/bin/env bash
# Non-test Go lines outside bench/ — the number ROADMAP.md's "fold and
# delete" target tracks — for the repo and per top-level package
# directory (cmd/<x>, internal/<x>, examples/<x>, the root package).
# Counts files git tracks or would track, so build outputs and caches
# never enter. No threshold: this is the one reproducible command
# CHANGES.md quotes. `make loc` calls this.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' |
    grep -v -e '_test\.go$' -e '^bench/' |
    while read -r f; do
        [[ -f "$f" ]] || continue # deleted in the work tree, not yet staged
        case "$f" in
            */*/*) dir=$(cut -d/ -f1-2 <<<"$f") ;;
            */*) dir=${f%%/*} ;;
            *) dir=. ;;
        esac
        printf '%s %s\n' "$(wc -l <"$f")" "$dir"
    done |
    awk '{ n[$2] += $1; total += $1 }
         END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", total }' |
    sort -k2
