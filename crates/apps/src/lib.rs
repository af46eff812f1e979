//! # nowlab-apps — the ISCA'97 benchmark suite
//!
//! Reimplementations of the ten applications of Martin et al. (Table 3),
//! written against the [`nowlab_splitc`] global-address-space layer so that
//! every remote operation pays the configured LogGP costs. Inputs are
//! scaled for simulation (DESIGN.md §4/§6) but each program preserves its
//! paper communication signature: message frequency ordering, read/write
//! mix, bulk usage, synchronization style, and balance.
//!
//! | module | program | paper's communication character |
//! |---|---|---|
//! | [`radix`] | Radix sort | frequent short writes, collective histogram |
//! | [`em3d`] | EM3D (write & read) | per-edge pushes vs blocking reads, bulk-synchronous |
//! | [`sample`] | Sample sort | all-to-all short writes, receiver imbalance |
//! | [`barnes`] | Barnes-Hut | lock-based tree build (livelocks at high `o`), cached reads |
//! | [`pray`] | P-Ray | read-only object cache, hot spots |
//! | [`murphi`] | Parallel Murphi | hashed state ownership, one-way bulk sends |
//! | [`connect`] | Connected components | local union-find + read-mostly merges |
//! | [`nowsort`] | NOW-sort | disk-rate-limited one-way bulk streaming |
//! | [`radb`] | Bulk radix sort | one bulk message per destination |
//!
//! All programs are deterministic: for a given seed the correctness
//! checksum ([`nowlab_core::RunOutcome::check`]) is identical at every
//! LogGP setting, which the test suite exploits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes;
pub mod common;
pub mod connect;
pub mod em3d;
pub mod histogram;
pub mod murphi;
pub mod nowsort;
pub mod pray;
pub mod radb;
pub mod radix;
pub mod sample;
pub mod suite;

pub use suite::{suite_scaled, SuiteScale};
