//! # nowlab — a LogGP cluster-communication laboratory
//!
//! A production-quality Rust reproduction of
//!
//! > Richard P. Martin, Amin M. Vahdat, David E. Culler, Thomas E.
//! > Anderson. *"Effects of Communication Latency, Overhead, and Bandwidth
//! > in a Cluster Architecture."* ISCA 1997.
//!
//! The paper's apparatus — a Myrinet cluster whose Active Message layer
//! can independently inflate the LogGP parameters `o`, `g`, `L`, and `G`
//! — is rebuilt as a deterministic discrete-event emulation, together with
//! the Split-C programming layer, the ten-application benchmark suite, the
//! calibration microbenchmarks, and the analytic sensitivity models.
//!
//! ## Layer map
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | discrete-event kernel: virtual time, async executor |
//! | [`am`] | LogGP NIC/network model + Active Messages + knobs |
//! | [`splitc`] | global address space: reads, pipelined writes, bulk, barriers, locks |
//! | [`core`] | calibration (§3.3), models (§5), sweep driver, reporting |
//! | [`apps`] | Radix, EM3D (read/write), Sample, Barnes, P-Ray, Murphi, Connect, NOW-sort, Radb |
//!
//! ## Quickstart
//!
//! Measure how much extra per-message overhead slows EM3D on 8
//! processors, exactly as Figure 5 of the paper does:
//!
//! ```
//! use nowlab::core::{sweep_jobs, Axis, RunSpec};
//! use nowlab::apps::em3d::{Em3dParams, Em3dWrite};
//!
//! let app = Em3dWrite::new(Em3dParams::small());
//! let result = sweep_jobs(&app, &RunSpec::new(8), Axis::Overhead, &[2.9, 13.0], 1)
//!     .expect("the baseline run completes");
//! assert!((result.points[0].slowdown - 1.0).abs() < 1e-9);
//! assert!(result.points[1].slowdown > 1.5, "overhead hurts EM3D");
//! ```
//!
//! See `examples/quickstart.rs` for a guided tour, and [`exhibits`] for
//! the regenerators of every table and figure in the paper (`nowlab
//! exhibit <name>|all`).
//!
//! ## Writing your own application
//!
//! Implement [`SweepableApp`] over a Split-C SPMD body and it plugs into
//! the sweep driver, models, and CLI like the built-in suite. A complete
//! nearest-neighbor ring exchange:
//!
//! ```
//! use nowlab::core::{RunOutcome, RunSpec, SweepableApp, sweep_jobs, Axis};
//! use nowlab::splitc::{run_spmd, GlobalPtr, SpmdConfig};
//!
//! struct RingExchange {
//!     steps: usize,
//! }
//!
//! impl SweepableApp for RingExchange {
//!     fn name(&self) -> &str {
//!         "ring"
//!     }
//!
//!     fn run(&self, spec: &RunSpec) -> RunOutcome {
//!         let steps = self.steps;
//!         let cfg = SpmdConfig::new(spec.procs).with_net(spec.net);
//!         let outcome = run_spmd(&cfg, move |ctx| async move {
//!             let r = ctx.alloc_region(steps);
//!             ctx.barrier().await;
//!             let right = (ctx.me() + 1) % ctx.procs();
//!             for s in 0..steps {
//!                 // Push a value to the right neighbor, then wait for
//!                 // the one arriving from the left.
//!                 ctx.write(GlobalPtr::new(right, r, s), (ctx.me() + s) as u64).await;
//!                 ctx.sync().await;
//!                 ctx.barrier().await;
//!             }
//!             ctx.load_local(r, steps - 1)
//!         });
//!         RunOutcome {
//!             runtime: outcome.elapsed,
//!             stats: outcome.stats,
//!             completed: outcome.completed,
//!             completers: outcome.outputs.iter().filter(|o| o.is_some()).count(),
//!             abort: outcome.abort,
//!             check: outcome.outputs.iter().map(|o| o.unwrap_or(0)).sum(),
//!             events: outcome.report.events_fired,
//!             polls: outcome.report.polls,
//!             trace: None,
//!             metrics: None,
//!         }
//!     }
//! }
//!
//! let app = RingExchange { steps: 8 };
//! let result = sweep_jobs(&app, &RunSpec::new(4), Axis::Overhead, &[2.9, 53.0], 1)
//!     .expect("the baseline run completes");
//! assert!(result.points[1].slowdown > 2.0, "a chatty ring feels overhead");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhibits;

/// The discrete-event simulation kernel (re-export of `nowlab-sim`).
pub mod sim {
    pub use nowlab_sim::*;
}

/// The LogGP network and Active Message layer (re-export of `nowlab-am`).
pub mod am {
    pub use nowlab_am::*;
}

/// Per-message LogGP cost tracing (re-export of `nowlab-trace`).
pub mod trace {
    pub use nowlab_trace::*;
}

/// Simulated-time utilization metrics (re-export of `nowlab-metrics`).
pub mod metrics {
    pub use nowlab_metrics::*;
}

/// Happens-before DAG analytics and LogGP re-pricing (re-export of
/// `nowlab-predict`).
pub mod predict {
    pub use nowlab_predict::*;
}

/// The Split-C-style PGAS layer (re-export of `nowlab-splitc`).
pub mod splitc {
    pub use nowlab_splitc::*;
}

/// The sensitivity apparatus (re-export of `nowlab-core`).
pub mod core {
    pub use nowlab_core::*;
}

/// The benchmark suite (re-export of `nowlab-apps`).
pub mod apps {
    pub use nowlab_apps::*;
}

pub use nowlab_am::{FaultPlan, Knobs, LoggpParams, NetConfig, Outage};
pub use nowlab_core::{
    default_jobs, sweep_jobs, sweep_many, Axis, RunOutcome, RunSpec, SweepError, SweepableApp,
    TraceMode,
};
