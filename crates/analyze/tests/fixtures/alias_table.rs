//! The other half of the `alias.rs` fixture.
pub use std::collections::HashSet as Peers;

pub type Routes<K, V> = std::collections::HashMap<K, V>;
