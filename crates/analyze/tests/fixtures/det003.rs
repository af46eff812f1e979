//! Fixture: exactly one disallowed method (DET003, an environment read
//! outside (program, seed)). scripts/check_moved_lints.sh builds it.
pub fn seed() -> u64 {
    std::env::var("SEED").map_or(0, |s| s.len() as u64)
}
