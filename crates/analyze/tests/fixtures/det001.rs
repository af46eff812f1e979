//! Fixture: exactly one disallowed type (DET001, a hash collection in
//! simulation-visible state). scripts/check_moved_lints.sh builds it.
use std::collections::BTreeMap;

pub struct State {
    pub routes: std::collections::HashMap<u32, u32>,
    pub ordered: BTreeMap<u32, u32>,
}
