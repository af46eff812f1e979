//! Fixture: exactly one disallowed type (AMP003, a public API exposing a
//! hash collection). scripts/check_moved_lints.sh builds it.
pub fn routing_table() -> std::collections::HashMap<u32, u32> {
    todo!()
}
