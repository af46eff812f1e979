#!/usr/bin/env bash
# Front door of the nowlab benchmark (see README.md).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       all six workloads, one fresh process each, end-to-end metrics
#   benchmark/run.sh --trace [--seed N]
#       the traced run: layer probes plus one traced pass per workload,
#       per-layer metrics, spans in <out>/trace.json
#   benchmark/run.sh --smoke
#       both of the above at test scale, one pass, a few seconds in all
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, as BENCHMARK.json's driver calls it
#   benchmark/run.sh --build-only
#       build the harness and stop
#
# Builds the harness from source first (release profile, offline). Every
# file it writes lands under benchmark/ or $CARGO_TARGET_DIR.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Normalise the arguments: a bare `--trace` means `--trace 1`, and
# `--smoke` is remembered for the all-workloads modes below.
args=()
workload="" trace=0 smoke=0 build_only=0
while (($#)); do
  case "$1" in
    --build-only) build_only=1 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift; else trace=1; fi ;;
    --workload) workload="${2:?--workload needs a name}"; shift ;;
    --smoke) smoke=1; args+=(--smoke) ;;
    *) args+=("$1") ;;
  esac
  shift
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
harness="$CARGO_TARGET_DIR/release/harness"
((build_only)) && exit 0

# The harness spawns nothing; it is told what built it.
NOWLAB_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
NOWLAB_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export NOWLAB_BENCH_RUSTC NOWLAB_BENCH_COMMIT
[[ " ${args[*]:-} " == *" --out "* ]] || args+=(--out "$here/out")

if [[ -n "$workload" ]]; then
  exec "$harness" --workload "$workload" --trace "$trace" "${args[@]}"
fi

status=0
if ((trace == 0)); then
  # One process per workload, so peak RSS is the workload's own.
  for w in $("$harness" --list); do
    "$harness" --workload "$w" --trace 0 "${args[@]}" || status=$?
  done
fi
if ((trace == 1 || smoke == 1)); then
  "$harness" --workload all --trace 1 "${args[@]}" || status=$?
fi
exit "$status"
