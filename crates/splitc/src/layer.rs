//! The Split-C layer: primitive handlers, SPMD configuration, and the
//! runner.
//!
//! [`SplitC`] builds a cluster whose processors each hold a
//! [`Memory`](crate::Memory), registers the primitive Active-Message
//! handlers (read, write, fetch-add, compare-swap, bulk put/get, barrier,
//! mailbox enqueue) plus the `nowlab-coll` collective handlers, and runs
//! one SPMD body per processor.

use std::future::Future;
use std::rc::Rc;

use nowlab_am::{AmCluster, CommStats, HandlerId, NetConfig, Payload, ReplyData, RunAbort};
use nowlab_coll::{CollConfig, CollHandlers};
use nowlab_sim::{RunReport, Sim, SimDelta, SimTime, StopReason};

use crate::ctx::Ctx;
use crate::memory::{MailMsg, Memory};

/// Handler ids of the Split-C primitives, registered once per cluster.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Prims {
    pub(crate) read: HandlerId,
    pub(crate) write: HandlerId,
    pub(crate) fadd: HandlerId,
    pub(crate) cswap: HandlerId,
    pub(crate) bulk_put: HandlerId,
    pub(crate) bulk_scatter: HandlerId,
    pub(crate) bulk_get: HandlerId,
    pub(crate) barrier: HandlerId,
    pub(crate) enqueue: HandlerId,
}

/// How an SPMD program reacts to a confirmed peer death (the node-level
/// failure model; inert unless the run's [`NetConfig`] carries an active
/// [`nowlab_am::NodeFaultPlan`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Halt the simulation at the first confirmed death and report a
    /// structured [`RunAbort`] — for applications whose result is
    /// meaningless with a member missing (sorts, graph codes).
    #[default]
    Abort,
    /// Survivors press on with the remaining membership and report a
    /// degraded (partial) result — for embarrassingly-parallel phases
    /// where per-processor contributions are independent.
    Continue,
}

/// Configuration of one SPMD run.
#[derive(Clone, Copy, Debug)]
pub struct SpmdConfig {
    /// Number of processors.
    pub procs: usize,
    /// Network configuration (machine baseline + knobs).
    pub net: NetConfig,
    /// Abort the run after this many simulation events (livelock guard).
    pub event_limit: Option<u64>,
    /// Abort the run at this virtual time.
    pub time_limit: Option<SimDelta>,
    /// Reaction to a confirmed peer death (node-failure runs only).
    pub degrade: DegradePolicy,
    /// Collective-algorithm policy (see [`CollConfig`]).
    pub coll: CollConfig,
}

impl SpmdConfig {
    /// A run of `procs` processors on the Berkeley NOW baseline.
    pub fn new(procs: usize) -> Self {
        SpmdConfig {
            procs,
            net: NetConfig::berkeley_now(),
            event_limit: None,
            time_limit: None,
            degrade: DegradePolicy::Abort,
            coll: CollConfig::default(),
        }
    }

    /// Replaces the network configuration.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the livelock event budget.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = Some(limit);
        self
    }

    /// Sets the virtual-time budget.
    pub fn with_time_limit(mut self, limit: SimDelta) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the reaction to a confirmed peer death.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Sets the collective-algorithm policy.
    pub fn with_coll(mut self, coll: CollConfig) -> Self {
        self.coll = coll;
        self
    }
}

/// Result of one SPMD run.
#[derive(Debug)]
pub struct SpmdOutcome<T> {
    /// Per-processor outputs (`None` if that processor did not finish —
    /// only possible when a limit aborted the run).
    pub outputs: Vec<Option<T>>,
    /// Virtual time of the measured region (since the last stats reset, or
    /// the whole run).
    pub elapsed: SimDelta,
    /// Communication statistics of the measured region.
    pub stats: CommStats,
    /// True if every processor ran to completion.
    pub completed: bool,
    /// The death that aborted the run, when [`DegradePolicy::Abort`]
    /// halted it (`None` for healthy and degraded-continue runs).
    pub abort: Option<RunAbort>,
    /// The kernel's run report (events, polls, stop reason).
    pub report: RunReport,
}

impl<T> SpmdOutcome<T> {
    /// Unwraps all outputs.
    ///
    /// # Panics
    ///
    /// Panics if the run did not complete.
    pub fn expect_outputs(self) -> Vec<T> {
        assert!(
            self.completed,
            "SPMD run did not complete (stop reason {:?})",
            self.report.stop_reason
        );
        self.outputs.into_iter().map(Option::unwrap).collect()
    }
}

/// A configured Split-C machine, ready to run one SPMD program.
///
/// # Examples
///
/// ```
/// use nowlab_splitc::{SplitC, SpmdConfig};
///
/// let sc = SplitC::new(&SpmdConfig::new(4));
/// let outcome = sc.run(|ctx| async move {
///     // Everyone allocates the same region, then proc 0's copy is
///     // incremented by everyone.
///     let r = ctx.alloc_region(1);
///     ctx.barrier().await;
///     ctx.fetch_add(nowlab_splitc::GlobalPtr::new(0, r, 0), 1).await;
///     ctx.barrier().await;
///     ctx.read(nowlab_splitc::GlobalPtr::new(0, r, 0)).await
/// });
/// let counts = outcome.expect_outputs();
/// assert!(counts.iter().all(|&c| c == 4));
/// ```
#[derive(Debug)]
pub struct SplitC {
    cluster: AmCluster,
    prims: Prims,
    coll: CollHandlers,
    cfg: SpmdConfig,
}

impl SplitC {
    /// Builds a cluster per `cfg` with the primitive handlers registered
    /// and a fresh [`Memory`] on every processor.
    pub fn new(cfg: &SpmdConfig) -> Self {
        // One SPMD task per processor; pre-sizing the kernel's task table,
        // wake log, timer wheel, and action slab (the kernel budgets ≈4
        // in-flight timers per task — delays, retransmit timers, NIC gap
        // pacing) avoids incremental growth during the cluster's first
        // communication phase. wheel_vs_heap.rs asserts the wheel's bucket
        // array never grows past construction.
        let cluster = AmCluster::new(Sim::with_capacity(cfg.procs), cfg.net, cfg.procs);
        for p in 0..cfg.procs {
            cluster.set_state(p, Box::new(Memory::new(cfg.procs)));
        }
        let prims = register_prims(&cluster);
        let coll = CollHandlers::register(&cluster, |any| {
            &mut any
                .downcast_mut::<Memory>()
                .expect("Split-C processor state missing")
                .coll
        });
        SplitC {
            cluster,
            prims,
            coll,
            cfg: *cfg,
        }
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    /// Installs the observer on the underlying cluster's one event cell
    /// (a trace recorder, a metrics recorder, or a fan-out of both). The
    /// first sink installed wins; later calls are ignored. Sinks observe
    /// events but must never schedule work or mutate simulation state, so
    /// an observed run is event-for-event identical to an unobserved one.
    pub fn set_trace_sink(&self, sink: std::rc::Rc<dyn nowlab_trace::TraceSink>) {
        self.cluster.set_trace_sink(sink);
    }

    /// Runs `body` on every processor and drives the simulation to
    /// completion (or to a configured limit).
    pub fn run<T, F, Fut>(&self, body: F) -> SpmdOutcome<T>
    where
        T: 'static,
        F: Fn(Ctx) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let p = self.cfg.procs;
        let faults = self.cfg.net.node_faults;
        if faults.is_active() && self.cfg.degrade == DegradePolicy::Abort {
            self.cluster.set_abort_on_death(true);
        }
        // A crash-stop processor's body never returns, so the exit
        // protocol below waits only for the processors that *can* finish.
        // (Crash-recovery nodes thaw and complete; stragglers are slow but
        // alive.)
        let expected = (0..p)
            .filter(|&i| {
                faults
                    .fault_of(i)
                    .is_none_or(|f| !f.crashes() || f.recover_at != SimTime::MAX)
            })
            .count();
        // Processors that finish their body keep servicing the network
        // until everyone is done — a read must be servable even if its
        // target already returned (the SPMD runtime's exit protocol).
        let done = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let handles: Vec<_> = (0..p)
            .map(|i| {
                let ctx = Ctx::new(self.cluster.port(i), self.prims, self.coll, self.cfg.coll);
                let fut = body(ctx);
                let done = std::rc::Rc::clone(&done);
                let epilogue_port = self.cluster.port(i);
                self.sim().spawn(async move {
                    let out = fut.await;
                    // Drain this processor's outstanding acks before
                    // declaring done: it issues nothing afterwards, so at
                    // the moment the last processor flips `done` every
                    // retransmit queue in the cluster is empty and the
                    // simulation can go idle (no timers re-arming against
                    // a peer that stopped servicing the network).
                    epilogue_port.quiesce().await;
                    done.set(done.get() + 1);
                    if done.get() >= expected {
                        // Stop the heartbeat control plane: everyone who
                        // can finish has, so detection has nothing left
                        // to detect and the event queue may drain.
                        epilogue_port.cluster().finish_control();
                    }
                    epilogue_port.cluster().poke_all();
                    epilogue_port.wait_until(|| done.get() >= expected).await;
                    out
                })
            })
            .collect();
        let sim = self.sim();
        sim.set_event_limit(self.cfg.event_limit);
        sim.set_time_limit(self.cfg.time_limit.map(|d| SimTime::ZERO + d));
        let report = sim.run();
        let outputs: Vec<Option<T>> = handles.iter().map(|h| h.try_take()).collect();
        let completed = outputs.iter().all(Option::is_some);
        // An Idle stop with missing outputs is the *expected* shape of
        // degradation — not a deadlock — when node faults are in play:
        // crashed bodies pend forever, and retransmit exhaustion toward a
        // crashed peer escalates to a peer death (death_note).
        debug_assert!(
            completed
                || report.stop_reason != StopReason::Idle
                || faults.is_active()
                || self.cluster.death_note().is_some(),
            "SPMD program deadlocked: {} of {} processors stuck at {}",
            report.unfinished_tasks,
            p,
            report.final_time
        );
        let abort = if report.stop_reason == StopReason::Halted {
            self.cluster.death_note()
        } else {
            None
        };
        let stats = self.cluster.stats();
        // An SPMD run is never resumed: free what the stuck bodies hold.
        sim.drop_unfinished_tasks();
        SpmdOutcome {
            outputs,
            elapsed: stats.elapsed,
            stats,
            completed,
            abort,
            report,
        }
    }
}

/// Convenience: build and run in one call.
pub fn run_spmd<T, F, Fut>(cfg: &SpmdConfig, body: F) -> SpmdOutcome<T>
where
    T: 'static,
    F: Fn(Ctx) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    SplitC::new(cfg).run(body)
}

fn register_prims(cluster: &AmCluster) -> Prims {
    fn mem_of(state: &mut dyn std::any::Any) -> &mut Memory {
        state
            .downcast_mut::<Memory>()
            .expect("Split-C processor state missing")
    }

    let read = cluster.register_handler(move |c| {
        let m = c
            .state
            .downcast_mut::<Memory>()
            .expect("Split-C processor state missing");
        let [r, off, ..] = c.msg.args;
        ReplyData::word(m.load(r as usize, off as usize))
    });
    let write = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [r, off, val, _] = c.msg.args;
        m.store(r as usize, off as usize, val);
        ReplyData::ack()
    });
    let fadd = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [r, off, delta, _] = c.msg.args;
        ReplyData::word(m.fetch_add(r as usize, off as usize, delta))
    });
    let cswap = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [r, off, expected, new] = c.msg.args;
        ReplyData::word(m.compare_swap(r as usize, off as usize, expected, new))
    });
    let bulk_put = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [r, off, ..] = c.msg.args;
        if let Some(words) = c.msg.payload.as_words() {
            let dst = m.region_mut(r as usize);
            let off = off as usize;
            dst[off..off + words.len()].copy_from_slice(words);
        }
        // Synthetic payloads occupy the wire but deposit nothing.
        ReplyData::ack()
    });
    let bulk_scatter = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let r = c.msg.args[0] as usize;
        if let Some(words) = c.msg.payload.as_words() {
            let dst = m.region_mut(r);
            for &w in words {
                dst[(w >> 32) as usize] = w & 0xFFFF_FFFF;
            }
        }
        ReplyData::ack()
    });
    let bulk_get = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [r, off, len, _] = c.msg.args;
        let off = off as usize;
        // Straight from the region into the shared payload: one copy.
        let words = Rc::from(&m.region(r as usize)[off..off + len as usize]);
        ReplyData::bulk([len, 0, 0, 0], Payload::Words(words))
    });
    let barrier = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let round = c.msg.args[0] as usize;
        m.barrier_arrived[round] += 1;
        ReplyData::ack()
    });
    let enqueue = cluster.register_handler(move |c| {
        let m = mem_of(c.state);
        let [mb, a, b, d] = c.msg.args;
        m.push_mail(
            mb as usize,
            MailMsg {
                src: c.msg.src,
                args: [a, b, d],
                payload: c.msg.payload.clone(),
            },
        );
        ReplyData::ack()
    });
    Prims {
        read,
        write,
        fadd,
        cswap,
        bulk_put,
        bulk_scatter,
        bulk_get,
        barrier,
        enqueue,
    }
}
