#!/usr/bin/env bash
# unreached.sh — fail when a function no program runs is left in the tree.
#
# Usage: scripts/unreached.sh
#
# Builds every root of the repository with inlining off (-gcflags=all=-l):
# each main package of the root module (the commands, the examples and
# scripts/metricslint), bench/eipbench (a module of its own, built into a
# temporary directory, never written to) and the root package's test
# binary, which holds the paper's exhibits. It then lists the text symbols
# under entropyip and entropyip/... that `go tool nm` finds in those
# binaries and compares them with every function declared in a non-test
# file of the root module. A declared function that is in no binary is
# unreached.
#
# Names are compared as import/path.Func or import/path.Type.Method:
# pointer receivers, type arguments and instantiation shapes are dropped,
# so a generic function counts as reached when any instance is linked.
# The linker keeps every exported method of a type that reflection can
# reach (html/template does), so the check finds a floor, not all dead
# code.
#
# scripts/unreached.allow lists the functions kept on purpose: one name per
# line, or import/path.* for a whole package, with # comments. The script
# prints each unreached function outside the allowlist and each allowlist
# entry that matches no unreached function, then a count line, and exits 1
# if it printed either kind; it exits 0 otherwise and 2 when a build fails.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow="$root/scripts/unreached.allow"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Symbols: one normalised name per line, from every root binary.
# norm_symbols <prefix for main.> reads `go tool nm` output on stdin.
norm_symbols() {
    awk -v mainpath="$1" '
    $2 == "T" || $2 == "t" {
        s = $0
        sub(/^ *[0-9a-f]+ [Tt] /, "", s)
        # Drop bracketed type arguments; shapes may nest brackets.
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "[") { depth++; continue }
            if (c == "]") { depth--; continue }
            if (depth == 0) out = out c
        }
        s = out
        sub(/-fm$/, "", s)
        gsub(/\(\*/, "", s); gsub(/\)/, "", s)
        if (mainpath != "" && substr(s, 1, 5) == "main.") s = mainpath substr(s, 5)
        if (s ~ /^entropyip[.\/]/) print s
    }'
}

while read -r pkg; do
    [ -n "$pkg" ] || continue
    bin="$tmp/${pkg//\//_}"
    go build -gcflags=all=-l -o "$bin" "./${pkg#entropyip/}" || exit 2
    go tool nm "$bin" | norm_symbols "$pkg" >>"$tmp/reached"
done < <(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
(cd bench && go build -gcflags=all=-l -o "$tmp/eipbench" ./eipbench) || exit 2
go tool nm "$tmp/eipbench" | norm_symbols entropyip/bench/eipbench >>"$tmp/reached"
go test -c -gcflags=all=-l -o "$tmp/root.test" . || exit 2
go tool nm "$tmp/root.test" | norm_symbols "" >>"$tmp/reached"
sort -u -o "$tmp/reached" "$tmp/reached"

# Declarations: "name<TAB>file:line" for every func in a non-test file.
# gofmt puts every top-level declaration at column 0.
go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... |
    while read -r pkg dir files; do
        read -r -a names <<<"$files"
        [ "${#names[@]}" -gt 0 ] || continue
        rel=${dir#"$root"}
        (cd "$dir" && awk -v pkg="$pkg" -v rel="${rel#/}" '
        /^func / {
            line = substr($0, 6); recv = ""
            if (substr(line, 1, 1) == "(") {
                depth = 0
                for (i = 1; i <= length(line); i++) {
                    c = substr(line, i, 1)
                    if (c == "(") depth++
                    if (c == ")" && --depth == 0) break
                }
                recv = substr(line, 2, i - 2)
                line = substr(line, i + 2)
                gsub(/\[[^]]*\]/, "", recv); gsub(/\*/, "", recv)
                n = split(recv, f, " "); recv = f[n] "."
            }
            if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) next
            name = substr(line, 1, RLENGTH)
            if (name == "init" || name == "_") next
            file = (rel == "") ? FILENAME : rel "/" FILENAME
            printf "%s.%s%s\t%s:%d\n", pkg, recv, name, file, FNR
        }' "${names[@]}")
    done | sort >"$tmp/declared"

cut -f1 "$tmp/declared" | sort -u | comm -23 - "$tmp/reached" >"$tmp/unreached"
grep -v '^[[:space:]]*\(#\|$\)' "$allow" | awk '{print $1}' >"$tmp/allow"

# Split the unreached functions into allowlisted and not, and find
# allowlist entries that match none of them.
status=0
awk -v report="$tmp/report" -v stale="$tmp/stale" '
    NR == FNR { pat[$1] = 1; next }
    {
        hit = ($1 in pat)
        for (p in pat) {
            if (p ~ /\.\*$/ && index($1, substr(p, 1, length(p) - 1)) == 1) { hit = 1; used[p] = 1 }
        }
        if ($1 in pat) used[$1] = 1
        if (hit) allowed++; else print $1 > report
    }
    END {
        for (p in pat) if (!(p in used)) print p > stale
        print allowed + 0
    }' "$tmp/allow" "$tmp/unreached" >"$tmp/allowed"

if [ -s "$tmp/report" ]; then
    echo "unreached functions (delete them, or list them in scripts/unreached.allow):"
    join -t "$(printf '\t')" "$tmp/report" "$tmp/declared" | awk -F '\t' '{printf "  %s\t%s\n", $2, $1}'
    status=1
fi
if [ -s "$tmp/stale" ]; then
    echo "allowlist entries that match no unreached function (remove them):"
    sed 's/^/  /' "$tmp/stale"
    status=1
fi
declared=$(cut -f1 "$tmp/declared" | sort -u | wc -l)
unreached=$(wc -l <"$tmp/unreached")
echo "unreached.sh: $declared functions declared, $unreached unreached, $(cat "$tmp/allowed") of them allowlisted"
exit "$status"
