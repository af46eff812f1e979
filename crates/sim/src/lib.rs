//! # nowlab-sim — deterministic discrete-event simulation kernel
//!
//! The substrate underneath the `nowlab` LogGP cluster laboratory (a
//! reproduction of Martin et al., *"Effects of Communication Latency,
//! Overhead, and Bandwidth in a Cluster Architecture"*, ISCA 1997).
//!
//! This crate knows nothing about networks: it provides
//!
//! * a virtual clock with nanosecond resolution ([`SimTime`], [`SimDelta`]),
//! * a time-ordered event queue with deterministic tie-breaking,
//! * a single-threaded async executor whose tasks model simulated
//!   processors ([`Sim::spawn`], [`Sim::run`]),
//! * timed futures ([`Sim::delay`], [`Sim::sleep_until`]) and one-shot
//!   scheduled callbacks ([`Sim::schedule`]),
//! * a zero-time wake list for condition loops ([`Notify`]),
//! * livelock/bail-out controls ([`Sim::set_event_limit`],
//!   [`Sim::set_time_limit`]).
//!
//! Determinism is a design requirement: the ISCA'97 methodology compares the
//! same application run under many LogGP parameter vectors, so runs must not
//! be perturbed by host scheduling. Everything here is single-threaded and
//! FIFO/sequence-ordered.
//!
//! # Examples
//!
//! Two "processors" exchanging a rendezvous through a [`Notify`]:
//!
//! ```
//! use std::rc::Rc;
//! use std::cell::Cell;
//! use nowlab_sim::{Sim, SimDelta, Notify};
//!
//! let sim = Sim::new();
//! let ready = Rc::new(Notify::new());
//! let sent = Rc::new(Cell::new(false));
//!
//! let (r, s, k) = (Rc::clone(&ready), Rc::clone(&sent), sim.clone());
//! let receiver = sim.spawn(async move {
//!     while !s.get() {
//!         r.notified(&k).await;
//!     }
//!     k.now()
//! });
//!
//! let (r, s, k) = (ready, sent, sim.clone());
//! sim.spawn(async move {
//!     k.delay(SimDelta::from_micros(5.0)).await; // "network latency"
//!     s.set(true);
//!     r.notify_all(&k);
//! });
//!
//! sim.run();
//! assert_eq!(receiver.try_take().unwrap().as_micros_f64(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod executor;
mod ready;
mod sync;
mod time;
mod wheel;

pub use executor::{race, Either, HookId, JoinHandle, RunReport, Sim, Sleep, StopReason};
pub use sync::{Notified, Notify};
pub use time::{SimDelta, SimTime};
pub use wheel::SchedulerStats;
