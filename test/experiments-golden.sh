#!/usr/bin/env bash
# The paper-figure half's fixed point, as scenarios/golden is the scenario
# half's: `experiments -exp all -T 80 -H 6 -epochs 2` must print
# test/experiments.golden byte for byte, its `==== table2 ====` section
# (wall-clock timings) dropped. Everything else is seeded arithmetic, the
# same for any -workers; like the scenario goldens it assumes one
# floating-point behaviour across the machines that run it. ~1 min.
#
#   test/experiments-golden.sh          diff against the golden, exit 1 on any
#   test/experiments-golden.sh bless    rewrite it after an intended change
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

golden=test/experiments.golden
got="$(mktemp)"
trap 'rm -f "$got"' EXIT

go run ./cmd/experiments -exp all -T 80 -H 6 -epochs 2 |
  awk '/^==== table2 ====$/ { skip = 1; next } /^==== / { skip = 0 } !skip' >"$got"

if [[ "${1:-}" == bless ]]; then
  cp "$got" "$golden"
  echo "experiments-golden: blessed $(wc -l <"$golden") lines"
  exit 0
fi
if ! diff -u "$golden" "$got"; then
  echo "experiments-golden: FAIL (output moved; \`$0 bless\` if intended)" >&2
  exit 1
fi
echo "experiments-golden: ok"
