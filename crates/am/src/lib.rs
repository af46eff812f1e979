//! # nowlab-am — a LogGP cluster network with a tunable Active Message layer
//!
//! This crate is the Rust stand-in for the experimental apparatus of
//! Martin, Vahdat, Culler & Anderson, *"Effects of Communication Latency,
//! Overhead, and Bandwidth in a Cluster Architecture"* (ISCA 1997): a
//! Myrinet/LANai cluster whose Generic-Active-Messages layer was modified so
//! that each LogGP parameter — overhead `o`, gap `g`, latency `L`, and bulk
//! Gap `G` — can be **independently increased** from the Berkeley NOW
//! baseline.
//!
//! The emulation runs on the deterministic discrete-event kernel of
//! [`nowlab_sim`]. Each simulated processor is an async task holding an
//! [`AmPort`]; the [`AmCluster`] models the NICs and the wire. The knobs
//! ([`Knobs`]) implement exactly the mechanisms of the paper's Figure 2:
//!
//! | knob | mechanism here (and in the paper) |
//! |------|-----------------------------------|
//! | `Δo` | host busy-loop added on send *and* pre-receive paths |
//! | `Δg` | NIC transmit-context stall after each injection |
//! | `ΔL` | receive-side delay queue defers message visibility |
//! | `ΔG` | per-byte stall after each ≤4KB bulk fragment |
//!
//! Flow control is a constant window of outstanding requests per processor
//! (default 8), independent of `L` — reproducing the paper's §3.3
//! observation that effective `g` rises at very large `L` because the
//! network pipeline cannot be filled.
//!
//! Beyond the paper's lossless Myrinet, the transport can emulate a
//! misbehaving fabric: a deterministic, seeded [`FaultPlan`] drops,
//! duplicates, jitters, or blacks out messages at the wire, and an
//! integrated reliable-delivery protocol (sequence numbers, piggybacked
//! cumulative acks, timeout-driven retransmission with exponential
//! backoff from [`RTO`] up to a 16 ms cap) keeps handler execution
//! exactly-once. The default plan is inert and costs nothing.
//!
//! # Examples
//!
//! A remote fetch-add between two processors:
//!
//! ```
//! use nowlab_sim::Sim;
//! use nowlab_am::{AmCluster, NetConfig, Mark, Payload, ReplyData};
//!
//! let sim = Sim::new();
//! let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
//! cluster.set_state(1, Box::new(10u64));
//! let fadd = cluster.register_handler(|ctx| {
//!     let cell = ctx.state.downcast_mut::<u64>().unwrap();
//!     let old = *cell;
//!     *cell += ctx.msg.args[0];
//!     ReplyData::word(old)
//! });
//!
//! let server = cluster.port(1);
//! sim.spawn(async move { server.wait_until(|| false).await });
//!
//! let client = cluster.port(0);
//! let got = sim.spawn(async move {
//!     let (args, _) = client
//!         .request(1, fadd, [32, 0, 0, 0], Payload::None, Mark::Rmw)
//!         .await;
//!     args[0]
//! });
//! sim.run();
//! assert_eq!(got.try_take(), Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fault;
mod message;
mod params;
mod port;
mod stats;

pub use cluster::{AmCluster, HandlerCtx, RunAbort};
pub use fault::{FaultPlan, NodeFault, NodeFaultPlan, Outage, MAX_ATTEMPTS, MAX_NODE_FAULTS, RTO};
pub use message::{Dir, HandlerId, Mark, Msg, Payload, ReplyData};
pub use params::{Knobs, LatencyMode, LoggpParams, NetConfig, GAM_FRAG_BYTES};
pub use port::AmPort;
pub use stats::{render_balance_matrix, CollKind, CommStats, ProcCounters};
