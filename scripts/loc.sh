#!/usr/bin/env bash
# Lines of Rust per crate, split into what ships and what tests it.
#
# For every crate under crates/ (and the root package, as `nowlab`):
#   non-test  lines of src/ above each file's first line that starts
#             with `#[cfg(test)]` (an attribute at column 0, so the string
#             in a lint or a doc comment does not count)
#   in-file   lines of src/ from that line on (the unit tests)
#   tests/    lines under the crate's tests/ directory
# Every line counts, blank and comment lines included.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the repo this script is in)
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Prints "non-test in-file" summed over the .rs files under $1.
split_src() {
    local files
    files=$(find "$1" -name '*.rs' 2>/dev/null | sort)
    if [ -z "$files" ]; then
        echo "0 0"
        return
    fi
    # shellcheck disable=SC2086
    awk 'FNR == 1 { in_test = 0 }
         !in_test && /^#\[cfg\(test\)\]/ { in_test = 1 }
         { if (in_test) t++; else n++ }
         END { printf "%d %d\n", n, t }' $files
}

count_lines() {
    find "$1" -name '*.rs' -exec cat {} + 2>/dev/null | wc -l | tr -d ' '
}

printf '| %-8s | %8s | %14s | %6s |\n' crate non-test "in-file tests" tests/
printf '|%s|%s|%s|%s|\n' ---------- ---------- ---------------- --------
total_n=0 total_t=0 total_x=0
row() {
    local name=$1 dir=$2 n t x
    read -r n t < <(split_src "$dir/src")
    x=$( [ -d "$dir/tests" ] && count_lines "$dir/tests" || echo 0 )
    printf '| %-8s | %8d | %14d | %6d |\n' "$name" "$n" "$t" "$x"
    total_n=$((total_n + n)) total_t=$((total_t + t)) total_x=$((total_x + x))
}
for dir in crates/*/; do
    dir=${dir%/}
    row "${dir#crates/}" "$dir"
done
row nowlab .
printf '| %-8s | %8d | %14d | %6d |\n' total "$total_n" "$total_t" "$total_x"
