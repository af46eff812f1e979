//! Fixture: exactly one disallowed type (DET002, a wall clock in
//! sim-visible code). scripts/check_moved_lints.sh builds it.
pub fn stamp() -> u64 {
    let _t = std::time::Instant::now();
    0
}
