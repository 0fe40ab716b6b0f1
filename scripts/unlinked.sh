#!/usr/bin/env bash
# Fails when a function declared in production code under internal/ is
# linked into no binary. Internal packages have no importers outside this
# repository, so such a function is reached only by tests (or by nothing):
# it belongs in a _test.go file or nowhere.
#
# How it decides: every ./cmd/... and ./examples/... binary and the bench
# module's binary are built with inlining off (-gcflags=all=-l, so small
# functions keep their own symbols) and their text symbols are listed with
# `go tool nm`. A symbol such as
#   repro/internal/engine.(*lruCache[go.shape.[16]uint8,go.shape.*uint8]).Get.func1
# is reduced to internal/engine.lruCache.Get: balanced [...] type
# arguments, receiver parentheses and stars, closure suffixes (.funcN,
# .gowrapN, ...) and -fm method values are stripped. Declarations come
# from the `^func` lines of the gofmt'd non-test files under internal/,
# without the test-only internal/simplex/simplexref.
#
# An unlinked function that stays on purpose is named in
# scripts/unlinked.allow with the reason it stays. An entry that ends in
# ".*" covers every method of one type. An exact entry that names a linked
# or missing function is stale and fails the check too.
#
# Usage: scripts/unlinked.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go -C bench build -gcflags=all=-l -o "$tmp/bin/bench" .

for b in "$tmp"/bin/*; do
  go tool nm "$b"
done | awk '
  {
    # "  addr T name": the name may hold spaces (struct shapes).
    if (!sub(/^ *[0-9a-f]+ [Tt] /, "")) next
    if (index($0, "repro/internal/") != 1) next
    s = substr($0, length("repro/") + 1)
    # Strip balanced [...] (type arguments nest: [go.shape.[16]uint8]).
    out = ""; depth = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "[") depth++
      else if (c == "]") depth--
      else if (depth == 0) out = out c
    }
    sub(/-fm$/, "", out)
    gsub(/[()*]/, "", out)
    # The package path ends at the first dot after its last slash.
    slash = 0
    for (i = 1; i <= length(out); i++) if (substr(out, i, 1) == "/") slash = i
    dot = index(substr(out, slash + 1), ".")
    if (dot == 0) next
    pkg = substr(out, 1, slash + dot - 1)
    n = split(substr(out, slash + dot + 1), part, ".")
    # Emit the first one and two components: "Func" of Func.func1 and
    # "Type.Method" of Type.Method.func2. A spurious "Func.func1" or
    # "Type" names no declared function, so it matches nothing.
    print pkg "." part[1]
    if (n > 1) print pkg "." part[1] "." part[2]
  }' | sort -u >"$tmp/linked"

# Declared functions with their non-blank, non-comment line counts.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/simplex/simplexref/*' |
  sort | while read -r f; do
    gofmt "$f" | awk -v dir="$(dirname "$f")" '
      function flush() { if (name != "") print dir "." name, lines; name = "" }
      /^func / {
        flush()
        line = $0
        if (line ~ /^func \(/) {
          recv = substr(line, 7, index(line, ")") - 7)
          sub(/\[.*/, "", recv)
          nf = split(recv, w, " ")
          recv = w[nf]
          gsub(/\*/, "", recv)
          rest = substr(line, index(line, ")") + 2)
          match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
          name = recv "." substr(rest, 1, RLENGTH)
        } else {
          match(line, /^func [A-Za-z_][A-Za-z0-9_]*/)
          name = substr(line, 6, RLENGTH - 5)
        }
        lines = 1
        if (line ~ /}$/) flush()
        next
      }
      name != "" {
        if ($0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\//) lines++
        if ($0 ~ /^}/) flush()
      }
      END { flush() }'
  done | sort -k1,1 >"$tmp/declared"

awk -v linked_file="$tmp/linked" -v allow_file=scripts/unlinked.allow '
  FILENAME == linked_file { linked[$1] = 1; next }
  FILENAME == allow_file {
    if ($0 ~ /^[ \t]*(#|$)/) next
    if ($1 ~ /\.\*$/) prefix[substr($1, 1, length($1) - 1)] = 1
    else exact[$1] = 1
    next
  }
  !($1 in linked) {
    allowed = ($1 in exact)
    if (allowed) used[$1] = 1
    for (p in prefix) if (index($1, p) == 1) { allowed = 1; usedp[p] = 1 }
    if (allowed) {
      nallow++; lallow += $2
    } else {
      nbad++; lbad += $2
      printf "UNLINKED  %-60s %4d lines\n", $1, $2
    }
  }
  END {
    for (e in exact) if (!(e in used)) {
      nstale++
      printf "STALE     %s (linked or not declared)\n", e
    }
    for (p in prefix) if (!(p in usedp)) {
      nstale++
      printf "STALE     %s* (matches no unlinked function)\n", p
    }
    printf "%d unlinked functions allowed (%d lines)\n", nallow, lallow
    if (nbad + nstale > 0) {
      printf "%d unlinked functions (%d lines) not in scripts/unlinked.allow, %d stale entries\n", nbad, lbad, nstale
      exit 1
    }
  }' "$tmp/linked" scripts/unlinked.allow "$tmp/declared"
