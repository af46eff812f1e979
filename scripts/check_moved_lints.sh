#!/usr/bin/env bash
# Proves that every determinism rule moved from nowlab-analyze to the
# toolchain still fails on its fixture.
#
# For each fixture under crates/analyze/tests/fixtures (det001, det002,
# det003, amp003, and alias, whose hash collections arrive through names
# declared in another module), builds a throwaway crate under
# $CARGO_TARGET_DIR/moved-lints and runs clippy on it with the root
# clippy.toml. Fails unless clippy rejects the fixture with a
# disallowed-type or disallowed-method error in the fixture file itself.
# Then runs the manifest test, which must report every row of the
# ws_layering fixture (the layering, external-dependency and
# workspace-lints rules).
#
# Usage: scripts/check_moved_lints.sh   (CARGO_TARGET_DIR defaults to target)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
fixtures=$root/crates/analyze/tests/fixtures
target=${CARGO_TARGET_DIR:-$root/target}
work=$target/moved-lints
failed=0

for name in det001 det002 det003 amp003 alias; do
    crate=$work/$name
    rm -rf "$crate"
    mkdir -p "$crate/src"
    printf '[package]\nname = "moved-%s"\nversion = "0.0.0"\nedition = "2021"\npublish = false\n\n[workspace]\n' \
        "$name" > "$crate/Cargo.toml"
    cp "$fixtures/$name.rs" "$crate/src/lib.rs"
    if [ "$name" = alias ]; then
        cp "$fixtures/alias_table.rs" "$crate/src/"
    fi
    set +e
    out=$(cd "$crate" && CLIPPY_CONF_DIR=$root CARGO_TARGET_DIR=$work/target \
        cargo clippy --offline --quiet -- -D warnings 2>&1)
    code=$?
    set -e
    # rustc prints the location on the line after the message.
    if [ "$code" -ne 0 ] && grep -A1 -E '^error: use of a disallowed (type|method)' <<<"$out" |
        grep -q -- '--> src/lib.rs:'; then
        echo "ok: clippy rejects $name.rs"
    else
        echo "FAIL: no disallowed-type or -method error in $name.rs (clippy exit $code):"
        echo "$out"
        failed=1
    fi
done

(cd "$root" && cargo test --offline --quiet -p nowlab-analyze --test manifests) || failed=1

exit "$failed"
