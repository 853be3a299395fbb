#!/usr/bin/env bash
# The pair procedure of a perf PR: export <parent-ref> under .bench_build/,
# run the repository benchmark on it and on this tree once per pair with the
# pair's seed, alternating which side runs first, then print
# `benchmark compare` over the two sets. The exit status is the benchmark's
# own: 1 only on a `regressed` verdict. Leaves parent.json and change.json
# in .bench_build/pair/.
#
#   test/benchpair.sh <parent-ref> <workload> [pairs=10]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage="usage: test/benchpair.sh <parent-ref> <workload> [pairs=10]"
ref="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
out="$PWD/.bench_build/pair"
parent="$out/parent-tree"

rm -rf "$out"
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"

for ((i = 0; i < pairs; i++)); do
  sides=(parent change)
  if ((i % 2)); then sides=(change parent); fi
  for side in "${sides[@]}"; do
    tree="$PWD"
    if [[ "$side" == parent ]]; then tree="$parent"; fi
    echo "pair $((i + 1))/$pairs: $side" >&2
    bash "$tree/benchmark/run.sh" run -workload "$workload" -seed "$((3 + i))" -seconds 10 \
      -out "$out/$side.$i.json" >/dev/null
  done
done

jq -s add "$out"/parent.*.json >"$out/parent.json"
jq -s add "$out"/change.*.json >"$out/change.json"
bash benchmark/run.sh compare "$out/parent.json" "$out/change.json"
