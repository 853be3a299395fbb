#!/usr/bin/env bash
# Every reference README.md and DESIGN.md make in backticks must resolve in
# the tree, so a deletion cannot leave the docs describing what it deleted:
#
#   - a Test*/Fuzz*/Benchmark* name is (a prefix of, as in a -run pattern)
#     a test function in some _test.go;
#   - a path under internal/ cmd/ test/ examples/ scenarios/ benchmark/
#     exists (cut at the first character a path cannot hold, so
#     `scenarios/golden/<name>.json` checks scenarios/golden/);
#   - in pkg.Ident, Type.Ident or pkg.Type.Ident — pkg a directory of
#     internal/, Type an exported type declared there — every component
#     with a capital in it is declared (func, method, type, const, var or
#     field) in that package. Lower-case and under_scored components are
#     file extensions and metric names, not identifiers, and are skipped;
#     test names fall under the first rule;
#   - a span that is exactly `-name` is a flag some cmd/*/main.go defines,
#     or one of the few `go test` flags the docs quote: a flag that was
#     deleted is history, and history lives in CHANGES.md.
#
# With an argument it checks that tree instead (an exported parent, say).
#
#   test/docrefs.sh [tree]
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"

docs=(README.md DESIGN.md)
bad=0
miss() {
  echo "docrefs: $1: \`$2\` $3" >&2
  bad=1
}

# Test functions of the whole tree, one name per line.
tests="$(find . -name '*_test.go' -not -path './.bench_build/*' -print0 |
  xargs -0 sed -nE 's/^func ((Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(.*/\1/p' | sort -u)"

# Flags the CLIs define — flag.X("name", …), fs.XVar(&v, "name", …) — and
# the go test flags.
flags="$(grep -ohE '\b(flag|fs)\.[A-Za-z0-9]+\((&[^,]+, )?"[A-Za-z0-9-]+"' cmd/*/main.go |
  sed -E 's/.*"([^"]+)"$/\1/' | sort -u)"
flags+=$'\nrace\nshort\nrun\nbench\ncount\nfuzz\nv'

# declared <dir> <ident>: ident is declared at top level of, or as a field
# or block member in, a non-test file of dir.
declared() {
  find "$1" -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -qE "^(func (\([^)]*\) )?|type |const |var |	)$2\b"
}

for doc in "${docs[@]}"; do
  # shellcheck disable=SC2016 # the backticks are the pattern, not a command
  spans="$(grep -oE '`[^`]+`' "$doc" | sort -u)"

  while read -r name; do
    [[ -z "$name" ]] && continue
    grep -q "^$name" <<<"$tests" || miss "$doc" "$name" "is no test function"
  done < <(grep -oE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' <<<"$spans" | sort -u)

  while read -r path; do
    [[ -z "$path" ]] && continue
    path="${path%[.,]}"
    [[ -e "$path" ]] || miss "$doc" "$path" "does not exist"
  done < <(grep -oE '(^|[^A-Za-z0-9_-])(internal|cmd|test|examples|scenarios|benchmark)/[A-Za-z0-9_./-]*' <<<"$spans" |
    sed -E 's/^[^a-z]*//' | sort -u)

  # shellcheck disable=SC2016 # the backticks are the pattern, not a command
  while read -r flag; do
    [[ -z "$flag" ]] && continue
    grep -qx -- "${flag#-}" <<<"$flags" || miss "$doc" "$flag" "is no flag of cmd/*/main.go, nor a go test flag"
  done < <(grep -oxE '`-[A-Za-z][A-Za-z0-9-]*`' <<<"$spans" | tr -d '`' | sort -u)

  while read -r ref; do
    [[ -z "$ref" ]] && continue
    IFS=. read -r -a parts <<<"$ref"
    head="${parts[0]}"
    dirs=()
    if [[ -d "internal/$head" ]]; then
      dirs=("internal/$head")
    elif [[ "$head" =~ ^[A-Z] ]]; then
      # Packages that declare a type of this name.
      while read -r f; do dirs+=("$(dirname "$f")"); done < <(
        grep -lE "^type $head\b" internal/*/*.go 2>/dev/null | grep -v '_test\.go$' || true)
    fi
    ((${#dirs[@]})) || continue
    for part in "${parts[@]:1}"; do
      [[ "$part" =~ [A-Z] && ! "$part" =~ _ && ! "$part" =~ ^(Test|Fuzz|Benchmark) ]] || continue
      found=0
      for dir in "${dirs[@]}"; do
        if declared "$dir" "$part"; then found=1; fi
      done
      ((found)) || miss "$doc" "$ref" "names no declaration of $part in ${dirs[*]}"
    done
  done < <(grep -oE '\b[A-Za-z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)+' <<<"$spans" | sort -u)
done

if ((bad)); then
  echo "docrefs: FAIL" >&2
  exit 1
fi
echo "docrefs: ok"
