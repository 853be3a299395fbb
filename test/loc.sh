#!/usr/bin/env bash
# Non-test source lines of the main module, per package directory and in
# total: the `src LoC` figure a deletion PR reports before and after.
# benchmark/ is a module of its own and .bench_build/ holds exported parent
# trees; neither counts. Analyzer fixtures under testdata/ are inputs to
# tests, not source; through PR 19 they were counted, so the last line
# keeps that series comparable. The amd64 assembly is maintained source
# too, but it is not Go; it gets a line of its own and stays out of
# `src LoC`, so that series stays comparable as well. With an argument it
# measures that tree instead (an exported parent commit, say).
#
#   test/loc.sh [tree]
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"

find . \( -name '*.go' -not -name '*_test.go' -o -name '*_amd64.s' \) \
  -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
  xargs -0 wc -l | awk '
    $2 == "total" { next }
    $2 ~ "/testdata/" { fixtures += $1; next }
    $2 ~ "[.]s$" { asm += $1; next }
    { dir = $2; sub("/[^/]*$", "", dir); sub("^[.]/", "", dir); n[dir] += $1; total += $1 }
    END {
      for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
      close("sort -k2")
      printf "%7d src LoC\n", total
      printf "%7d with the %d lines of testdata/ fixtures counted, as through PR 19\n", total + fixtures, fixtures
      printf "%7d amd64 assembly (*_amd64.s; not in the src LoC figure)\n", asm
    }'
