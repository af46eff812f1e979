#!/usr/bin/env bash
# Runs the whole benchmark twice on the same code and prints every
# end-to-end metric's relative difference beside its bound. The two sets
# are interleaved workload by workload (A then B of each, then the two
# traced runs), so whatever the host is doing at the time falls on both.
# Exits non-zero when a metric is outside its bound or an exact count
# differs between the two traced runs.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
#
# A metric that misses its bound wants more passes (a larger --seconds),
# not a wider bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

sets=("$here/out/set1" "$here/out/set2")
mkdir -p "${sets[@]}"
"$here/run.sh" --build-only
harness="$CARGO_TARGET_DIR/release/harness"

run() { # run <set dir> <run.sh arguments...>
  local out="$1"; shift
  "$here/run.sh" "$@" --out "$out" >>"$out/run.log" 2>&1 || { cat "$out/run.log"; exit 1; }
}
for out in "${sets[@]}"; do : >"$out/run.log"; done
for w in $("$harness" --list) --trace; do
  echo "== $w ==" >&2
  for out in "${sets[@]}"; do
    if [[ "$w" == --trace ]]; then run "$out" --trace "$@"; else run "$out" --workload "$w" "$@"; fi
  done
done
exec "$harness" --compare "${sets[@]}"
