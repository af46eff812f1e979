//! # nowlab-coll — model-driven collective operations over Active Messages
//!
//! The ISCA 1997 sensitivity study ran Split-C programs whose global phases
//! — histogram merges, splitter exchanges, convergence tests — were
//! hand-rolled from point-to-point Active Messages. This crate factors
//! those phases into four proper collectives, each with two or three
//! classic algorithm variants whose LogGP cost differs in *shape*:
//!
//! | collective | variants |
//! |------------|----------|
//! | broadcast  | binomial tree, pipelined chain, scatter + ring allgather |
//! | reduce     | flat (root incast), binomial tree |
//! | allgather  | ring, direct exchange |
//! | all-to-all | direct exchange, pairwise synchronized |
//!
//! Because the network is a calibrated LogGP machine ([`nowlab_am::NetConfig`]), an
//! **analytic cost model** ([`model`]) predicts each variant's completion
//! time from the parameter vector `(L, o, g, G)`, the processor count, and
//! the message size — and a [`Selector`] picks the cheapest variant per
//! call site. The paper's knobs move the crossover points: high overhead
//! favours the binomial tree's `O(log P)` message count, while scarce
//! bandwidth favours the chain's pipelining of large payloads. The
//! conformance suite pins the model against simulated time so the selector
//! provably picks the measured-cheapest variant at the calibration points.
//!
//! ## Determinism and fault discipline
//!
//! All per-processor state lives in `BTreeMap`s keyed by a per-family
//! *epoch* (SPMD programs call collectives in the same order everywhere,
//! so epochs align without negotiation); variant choice is a pure function
//! of configuration, with declaration order as the tie-break. Every
//! blocking wait carries a survivor escape: when a peer is confirmed dead
//! the operation completes degraded (missing blocks empty, partial sums)
//! instead of hanging — so `DegradePolicy::Continue` applications keep
//! making progress, and `Abort` runs halt through the cluster's death
//! note rather than a deadlock.
//!
//! # Examples
//!
//! ```
//! use nowlab_am::NetConfig;
//! use nowlab_coll::harness::{measure, OpSpec};
//! use nowlab_coll::{BcastAlgo, CollConfig, Selector};
//!
//! // Measure a binomial broadcast of 256 words across 8 processors...
//! let m = measure(OpSpec::Broadcast(BcastAlgo::Binomial, 256), 8, NetConfig::berkeley_now());
//! assert!(m.elapsed.as_micros_f64() > 0.0);
//! // ...and ask the selector what it would have picked for that size.
//! let sel = Selector::new(NetConfig::berkeley_now(), 8, CollConfig::default());
//! let _chosen = sel.broadcast(256 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod harness;
pub mod model;
pub mod ops;
mod state;

use nowlab_am::AmPort;

pub use config::{A2aAlgo, BcastAlgo, CollAlgo, CollConfig, GatherAlgo, ReduceAlgo};
pub use model::Selector;
pub use state::{CollHandlers, CollState};

/// What the collective algorithms need from their host: the processor's
/// [`AmPort`], the registered [`CollHandlers`], and access to the
/// [`CollState`] embedded somewhere in the processor's user state.
///
/// The Split-C runtime implements this by projecting the `CollState` field
/// out of its per-processor memory; the conformance harness implements it
/// with `CollState` as the entire user state.
pub trait CollAccess {
    /// This processor's Active Message port.
    fn port(&self) -> &AmPort;

    /// The handler ids registered via [`CollHandlers::register`].
    fn handlers(&self) -> CollHandlers;

    /// Runs `f` on this processor's collective state.
    fn with_coll<R>(&self, f: impl FnOnce(&mut CollState) -> R) -> R;
}
