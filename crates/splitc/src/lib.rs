//! # nowlab-splitc — a Split-C-style PGAS layer over Active Messages
//!
//! The benchmark suite of Martin et al. (ISCA 1997) is written in Split-C, a
//! parallel C dialect providing a global address space over Generic Active
//! Messages. This crate recreates that programming layer on top of
//! [`nowlab_am`]: SPMD processes hold a [`Ctx`] offering
//!
//! * global pointers ([`GlobalPtr`]) into word-addressed regions,
//! * blocking reads and **pipelined** writes with [`Ctx::sync`] completion
//!   (the read-based vs write-based distinction the paper leans on),
//! * atomic fetch-add / compare-swap at the owner, and spin locks,
//! * bulk put/get using the Active-Message bulk mechanism,
//! * a dissemination [`Ctx::barrier`], and the `nowlab-coll` collectives:
//!   [`Ctx::allreduce_sum`] (always the paper-era flat reduce) and the
//!   model-selected `coll_*` family,
//! * one-way user active messages into [`Memory`] mailboxes (task queues).
//!
//! Every remote operation pays the LogGP costs configured on the cluster, so
//! programs written against this API inherit the full sensitivity apparatus.
//!
//! # Examples
//!
//! A global histogram via remote fetch-add:
//!
//! ```
//! use nowlab_splitc::{run_spmd, SpmdConfig, GlobalPtr};
//!
//! let outcome = run_spmd(&SpmdConfig::new(4), |ctx| async move {
//!     let hist = ctx.alloc_region(2);
//!     ctx.barrier().await;
//!     // Everyone increments bucket (me % 2) on the owner (me % procs/2).
//!     let bucket = ctx.me() % 2;
//!     ctx.fetch_add(GlobalPtr::new(0, hist, bucket), 1).await;
//!     ctx.barrier().await;
//!     if ctx.me() == 0 {
//!         ctx.load_local(hist, 0) + ctx.load_local(hist, 1)
//!     } else {
//!         0
//!     }
//! });
//! assert_eq!(outcome.expect_outputs()[0], 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod layer;
mod memory;

pub use ctx::Ctx;
pub use layer::{run_spmd, DegradePolicy, SplitC, SpmdConfig, SpmdOutcome};
pub use memory::{GlobalPtr, MailMsg, Memory};

// Re-export the payload type applications use with mailboxes, and the
// structured abort the node-failure model surfaces.
pub use nowlab_am::{Payload, RunAbort};

// Re-export the collective-layer configuration vocabulary so applications
// and the run plumbing can name algorithm policies without importing the
// coll crate directly (apps reach collectives through [`Ctx`] only; see
// lint LAY003).
pub use nowlab_coll::model::{allgather_us, alltoall_us, bcast_us, reduce_us};
pub use nowlab_coll::{A2aAlgo, BcastAlgo, CollAlgo, CollConfig, GatherAlgo, ReduceAlgo, Selector};

// Re-export the time vocabulary so applications can talk about durations
// without reaching below the Split-C layer (see lint LAY003).
pub use nowlab_sim::{SimDelta, SimTime};
