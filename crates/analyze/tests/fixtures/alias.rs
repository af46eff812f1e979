//! Fixture: hash collections reached only through names declared in
//! another module, `alias_table.rs`: a type alias and a renamed import.
//! This file never spells either type, so a token scan of it finds
//! nothing; clippy resolves both names. scripts/check_moved_lints.sh
//! builds it and wants the renamed import rejected here, at its use.
mod alias_table;

pub struct State {
    pub routes: alias_table::Routes<u32, u32>,
    pub peers: alias_table::Peers<u32>,
}
