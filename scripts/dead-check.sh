#!/usr/bin/env bash
# Dead-declaration check: list every func declared in a non-test Go
# file under cmd/, internal/ or examples/ whose name occurs on no other
# non-test, non-comment Go line of the repository (bench/ included —
# it is a caller too). A name only its own tests mention is dead code
# with a test attached; the remedy is to delete both, or to name the
# func in scripts/dead-allow.txt with the reason a test-only hook stays.
# Fails on any hit outside the allowlist and on any allowlist entry that
# is no longer a hit (the hook gained a caller or is gone). It is a
# word match, not a type check: a method that shares its name with any
# other identifier in use is not reported. `make dead-check` and CI
# both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/dead-allow.txt
hits=$(git ls-files --cached --others --exclude-standard -- '*.go' |
    grep -v -e '_test\.go$' -e '/testdata/' |
    while read -r f; do [[ -f "$f" ]] && echo "$f"; done |
    xargs awk '
        /^[ \t]*\/\// { next }                 # comment lines are not uses
        { line = $0; sub(/[ \t]\/\/ .*$/, "", line) }
        FILENAME !~ /^bench\// && line ~ /^func / {
            name = line; recv = ""
            if (name ~ /^func \(/) {
                recv = name; sub(/^func \([A-Za-z_0-9]* ?\*?/, "", recv); sub(/[\[\)].*$/, "", recv)
                sub(/^func \([^)]*\) /, "", name)
            } else sub(/^func /, "", name)
            sub(/[\(\[].*$/, "", name)
            if (name != "main" && name != "init") {
                decl[++n] = (recv == "" ? "" : recv ".") name " " FILENAME
                word[n] = name; declared[name]++
            }
        }
        {   # count each identifier once per line
            split("", seen)
            while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
                w = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
                if (!(w in seen)) { seen[w] = 1; lines[w]++ }
            }
        }
        END { for (i = 1; i <= n; i++) if (lines[word[i]] == declared[word[i]]) print decl[i] }
    ' | sort)

fail=0
while read -r name file; do
    [[ -z "$name" ]] && continue
    if ! grep -q "^$name[[:space:]]" "$allow"; then
        echo "dead-check: $name ($file) is named by no non-test code; delete it with its tests or add it to $allow with a reason" >&2
        fail=1
    fi
done <<<"$hits"
while read -r name reason; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    if ! grep -q "^$name " <<<"$hits"; then
        echo "dead-check: $allow lists $name, which is no longer a test-only func; drop the entry" >&2
        fail=1
    fi
done <"$allow"
[[ $fail -eq 0 ]] || exit 1
echo "dead-check: no func outside $allow is named only by its tests ($(grep -c . <<<"$hits") allowlisted hooks)"
