#!/usr/bin/env bash
# Samples one benchmark workload with hostprof and prints where its host
# time went.
#
#   scripts/hostprof/run.sh [--lines] [--top N] -- HARNESS-ARGS...
#   scripts/hostprof/run.sh -- --workload sweep_read --seconds 6 --trace 0
#
# Builds the sampler with the system gcc and the benchmark harness with
# frame pointers and line tables into $HOSTPROF_TARGET (default
# target/hostprof), runs the harness under LD_PRELOAD, and writes the
# samples to $HOSTPROF_OUT (default $HOSTPROF_TARGET/hostprof.out).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${HOSTPROF_TARGET:-$root/target/hostprof}"
report=()
while (($#)) && [[ "$1" != -- ]]; do report+=("$1"); shift; done
(($#)) && shift

mkdir -p "$target"
gcc -O2 -Wall -shared -fPIC -o "$target/hostprof.so" "$here/hostprof.c"
RUSTFLAGS='-C force-frame-pointers=yes' CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  CARGO_TARGET_DIR="$target" \
  cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

export HOSTPROF_OUT="${HOSTPROF_OUT:-$target/hostprof.out}"
LD_PRELOAD="$target/hostprof.so" "$target/release/harness" --out "$target/out" "$@" >&2
python3 "$here/report.py" "${report[@]}" "$HOSTPROF_OUT"
