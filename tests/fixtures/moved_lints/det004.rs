//! Fixture: exactly one disallowed method (DET004, a wall-clock value
//! flowing toward virtual time). `UNIX_EPOCH` is a const, so the line
//! names neither `Instant` nor `SystemTime`; the ban on
//! `SystemTime::elapsed` is what rejects it.
//! scripts/check_moved_lints.sh builds it.
pub fn jitter_seed() -> u64 {
    std::time::UNIX_EPOCH
        .elapsed()
        .map_or(0, |d| d.as_nanos() as u64)
}
