#!/usr/bin/env bash
# Dead-declaration check, two passes over the non-test Go files of the
# repository (bench/ included — it is a caller too):
#
# - funcs: every func declared under cmd/, internal/ or examples/ whose
#   name occurs on no other non-test, non-comment Go line. A name only
#   its own tests mention is dead code with a test attached.
# - options: every exported field of a `type …Config struct` or
#   `type …Options struct` declared outside bench/ that no non-test line
#   sets. Setting means a composite-literal key `F:` (a bare name: `x.F:`
#   is a case label), an assignment `.F =`, a multi-assign `.F, … =` or
#   an address taken `&x.F` (what flag.XxxVar does). A type defaulting
#   its own field — `c.F = …` inside a method whose receiver c is of the
#   type that declares F, as a Normalize or withDefaults does — is not a
#   setting: it is the one value in use. A knob only tests set has one
#   value in use; the remedy is to make that value a constant.
#
# The remedy for a func is to delete it with its tests; for either, a
# hit may stay if scripts/dead-allow.txt names it (`Recv.func` or
# `Type.Field`, as printed) with the reason. Fails on any hit outside
# the allowlist and on any allowlist entry that is no longer a hit (it
# gained a caller or is gone). Both passes are word matches, not type
# checks: a method that shares its name with any other identifier in
# use is not reported (core.Cache.Stats, called only by core's tests,
# hid behind proxy's Stats until it was deleted by hand), and neither is
# a field whose name is set on another type (proxy.Config.CacheOptions
# beside sim.Config's, or trace.GenConfig.RequestRate beside
# workload.Config's would be missed).
# `make dead-check` and CI both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/dead-allow.txt
files=$(git ls-files --cached --others --exclude-standard -- '*.go' |
    grep -v -e '_test\.go$' -e '/testdata/' |
    while read -r f; do [[ -f "$f" ]] && echo "$f"; done)

funcs=$(xargs awk '
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
' <<<"$files" | sort)

options=$(xargs awk '
    /^[ \t]*\/\// { next }
    { line = $0; sub(/[ \t]\/\/ .*$/, "", line) }
    FILENAME !~ /^bench\// && line ~ /^type [A-Za-z_0-9]*(Config|Options) struct \{$/ {
        typ = line; sub(/^type /, "", typ); sub(/ .*$/, "", typ); instruct = 1; next
    }
    instruct && line ~ /^}/ { instruct = 0 }
    line ~ /^}/ { rname = ""; rtype = "" }   # a method body ends
    line ~ /^func \([A-Za-z_][A-Za-z_0-9]* \*?[A-Za-z_][A-Za-z_0-9]*[\[\)]/ {
        rname = line; sub(/^func \(/, "", rname); sub(/ .*$/, "", rname)
        rtype = line; sub(/^func \([A-Za-z_0-9]* \*?/, "", rtype); sub(/[\[\)].*$/, "", rtype)
    }
    instruct && line ~ /^\t[A-Z]/ {       # a top-level field: names, then a type
        k = split(line, tok, /[ \t]+/)
        for (i = 2; i < k; i++) {
            name = tok[i]; more = sub(/,$/, "", name)
            if (name ~ /^[A-Z]/) { decl[++n] = typ "." name " " FILENAME; word[n] = name; own[typ "." name] = 1 }
            if (!more) break
        }
    }
    {   # F: (not F:=)
        s = line
        while (match(s, /[A-Za-z_0-9.]*[A-Z][A-Za-z_0-9]*:/)) {
            w = substr(s, RSTART, RLENGTH - 1); s = substr(s, RSTART + RLENGTH)
            if (w ~ /\./) continue    # x.F: is a case label or a map key, not a field key
            if (substr(s, 1, 1) != "=" && w ~ /^[A-Z]/) set[w] = 1
        }
        # .F = (not .F ==), and .F, before a multi-assign =
        s = line
        if (match(s, /[^=!<>:]=[^=]/)) {
            head = substr(s, 1, RSTART)
            while (match(head, /\.[A-Z][A-Za-z_0-9]* *,/)) {
                w = substr(head, RSTART + 1, RLENGTH - 1); pre = substr(head, 1, RSTART - 1); head = substr(head, RSTART + RLENGTH)
                sub(/ *,$/, "", w); assign(w, pre)
            }
        }
        while (match(s, /\.[A-Z][A-Za-z_0-9]* *=/)) {
            w = substr(s, RSTART + 1, RLENGTH - 1); pre = substr(s, 1, RSTART - 1); s = substr(s, RSTART + RLENGTH)
            sub(/ *=$/, "", w)
            if (substr(s, 1, 1) != "=") assign(w, pre)
        }
        # &x.F
        s = line
        while (match(s, /&[A-Za-z_][A-Za-z_0-9.]*\.[A-Z][A-Za-z_0-9]*/)) {
            w = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            sub(/^.*\./, "", w); set[w] = 1
        }
    }
    # recv.F = inside a method of recv'"'"'s type: whether that defaults
    # the type'"'"'s own field F is known once every struct is read (END)
    function assign(w, pre) {
        if (rname != "" && pre ~ ("(^|[^A-Za-z_0-9.])" rname "$")) selfset[rtype "." w] = w
        else set[w] = 1
    }
    END {
        for (k in selfset) if (!(k in own)) set[selfset[k]] = 1
        for (i = 1; i <= n; i++) if (!(word[i] in set)) print decl[i]
    }
' <<<"$files" | sort)

hits=$(printf '%s\n%s\n' "$funcs" "$options" | grep . || true)
fail=0
while read -r name file; do
    [[ -z "$name" ]] && continue
    if ! grep -q "^$name[[:space:]]" "$allow"; then
        if grep -q "^$name " <<<"$options"; then
            echo "dead-check: $name ($file) is set by no non-test code; make its one value in use a constant or add it to $allow with a reason" >&2
        else
            echo "dead-check: $name ($file) is named by no non-test code; delete it with its tests or add it to $allow with a reason" >&2
        fi
        fail=1
    fi
done <<<"$hits"
while read -r name reason; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    if ! grep -q "^$name " <<<"$hits"; then
        echo "dead-check: $allow lists $name, which is no longer a test-only func or option; drop the entry" >&2
        fail=1
    fi
done <"$allow"
[[ $fail -eq 0 ]] || exit 1
echo "dead-check: no func or option outside $allow is named or set only by its tests ($(grep -c . <<<"$hits" || true) allowlisted)"
