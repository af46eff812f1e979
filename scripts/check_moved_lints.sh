#!/usr/bin/env bash
# Proves that every rule the retired workspace analyzer used to check and
# the toolchain now checks still fails on its fixture.
#
# Each fixture under tests/fixtures/moved_lints is built as a throwaway
# crate under $CARGO_TARGET_DIR/moved-lints and checked by clippy with the
# root clippy.toml:
#   - det001, det002, det003, det004, amp003, par001, and alias (whose hash
#     collections arrive through names declared in another module) must be
#     rejected with a disallowed-type or disallowed-method error in the
#     fixture file itself;
#   - amp004 depends on crates/am by path and must be rejected with both a
#     private-field (E0616) and a private-method (E0624) error in the
#     fixture file.
# The rules that moved to tests/manifests.rs (layering, external
# dependencies, workspace lints) are checked by that test, which
# `cargo test` runs; this script does not run it again.
#
# Usage: scripts/check_moved_lints.sh   (CARGO_TARGET_DIR defaults to target)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
fixtures=$root/tests/fixtures/moved_lints
target=${CARGO_TARGET_DIR:-$root/target}
work=$target/moved-lints
failed=0

# True if clippy's output $1 has an error matching the regex $2 located in
# the fixture (rustc prints the location on the line after the message).
rejects() {
    grep -A1 -E "^error(\[E[0-9]+\])?: $2" <<<"$1" | grep -q -- '--> src/lib.rs:'
}

for name in det001 det002 det003 det004 amp003 par001 alias amp004; do
    crate=$work/$name
    rm -rf "$crate"
    mkdir -p "$crate/src"
    printf '[package]\nname = "moved-%s"\nversion = "0.0.0"\nedition = "2021"\npublish = false\n\n[workspace]\n' \
        "$name" > "$crate/Cargo.toml"
    cp "$fixtures/$name.rs" "$crate/src/lib.rs"
    want="a disallowed-type or -method error"
    patterns=('use of a disallowed (type|method)')
    case $name in
        alias) cp "$fixtures/alias_table.rs" "$crate/src/" ;;
        amp004)
            printf '\n[dependencies]\nnowlab-am = { path = "%s/crates/am" }\n' "$root" \
                >> "$crate/Cargo.toml"
            want="a private-field and a private-method error"
            patterns=('field .* is private' 'method .* is private')
            ;;
    esac
    set +e
    out=$(cd "$crate" && CLIPPY_CONF_DIR=$root CARGO_TARGET_DIR=$work/target \
        cargo clippy --offline --quiet -- -D warnings 2>&1)
    code=$?
    set -e
    ok=$([ "$code" -ne 0 ] && echo 1 || echo 0)
    for pattern in "${patterns[@]}"; do
        rejects "$out" "$pattern" || ok=0
    done
    if [ "$ok" -eq 1 ]; then
        echo "ok: clippy rejects $name.rs"
    else
        echo "FAIL: $name.rs is not rejected with $want (clippy exit $code):"
        echo "$out"
        failed=1
    fi
done

exit "$failed"
