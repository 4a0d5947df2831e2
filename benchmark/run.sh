#!/usr/bin/env bash
# Every workload, untraced then traced, each in its own process.
#   benchmark/run.sh [--seed N] [--seconds S]      -> benchmark/out/results.json
#   benchmark/run.sh --twice [--seed N] ...        -> two sets of the same build,
#       then a table of each gated metric's difference against its bound;
#       exits non-zero if any differs by more.
set -euo pipefail
cd "$(dirname "$0")/.."

twice=0
args=()
for a in "$@"; do
  if [ "$a" = "--twice" ]; then twice=1; else args+=("$a"); fi
done

bench() {
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

if [ "$twice" = 0 ]; then
  bench --workload all "${args[@]}"
else
  bench --workload all --out-dir benchmark/out/set1 "${args[@]}"
  bench --workload all --out-dir benchmark/out/set2 "${args[@]}"
  bench --compare benchmark/out/set1/results.json benchmark/out/set2/results.json
fi
