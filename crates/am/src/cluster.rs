//! The emulated cluster: P endpoints, their NICs, and the wire.
//!
//! Timing model (paper Figure 2):
//!
//! * **Send**: the host processor is busy for `o_send + Δo` writing the
//!   message into the NIC (charged by [`crate::AmPort`]); the NIC injects it
//!   at `max(deposit, tx_free)` and then stalls its transmit context —
//!   `g + Δg` for a short message; for each ≤4KB bulk fragment,
//!   `max(g, (G+ΔG)·bytes) + Δg`.
//! * **Transit**: the message arrives `L + ΔL` after injection of its last
//!   fragment (the `ΔL` is the paper's receive-side delay queue: it defers
//!   the presence bit without perturbing `o` or `g`).
//! * **Receive**: the destination NIC makes at most one message visible per
//!   `g + Δg` (its receive context is independent of the transmit context —
//!   the LANai's dual hardware contexts), after which the message waits in
//!   the receive queue until the destination *processor* polls it, paying
//!   `o_recv + Δo` per message.

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use nowlab_sim::{HookId, Notify, Sim, SimDelta, SimTime};
use nowlab_trace::{SendEvent, TraceEvent, TraceSink, VisibleEvent};

use crate::fault::{self, MAX_ATTEMPTS};
use crate::message::{Dir, HandlerId, Mark, Msg, Payload, ProcId, ReplyData, ReqId};
use crate::params::{NetConfig, GAM_FRAG_BYTES, GAM_SHORT_WIRE_BYTES};
use crate::stats::{CommStats, ProcCounters};

/// Context passed to an Active Message handler.
///
/// Handlers run synchronously on the destination processor (in zero
/// simulated time beyond the `o_recv` already charged) and must not block;
/// their only way to communicate is the [`ReplyData`] they return.
pub struct HandlerCtx<'a> {
    /// The destination processor's mutable user state (set via
    /// [`AmCluster::set_state`]).
    pub state: &'a mut dyn Any,
    /// The incoming request.
    pub msg: &'a Msg,
    /// Virtual time at which the handler runs.
    pub now: SimTime,
}

impl fmt::Debug for HandlerCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerCtx")
            .field("msg", &self.msg)
            .field("now", &self.now)
            .finish()
    }
}

/// An Active Message handler: runs at the destination, returns the reply.
pub(crate) type Handler = Box<dyn Fn(HandlerCtx<'_>) -> ReplyData>;

/// The requests of one processor whose issuer awaits the reply, one
/// entry per request in flight. The table grows to the peak number of
/// awaited requests outstanding at once (at most the credit window) and
/// reuses its entries, so a warm round trip allocates nothing. A reply
/// finds its entry by scanning for its request id; a reply whose id is
/// not here answers a post.
#[derive(Default)]
pub(crate) struct ReplySlots(Vec<ReplySlot>);

enum ReplySlot {
    Free,
    Awaiting(ReqId),
    Filled([u64; 4], Payload),
}

impl ReplySlots {
    /// Parks awaited request `req`; returns the slot its issuer polls.
    pub(crate) fn park(&mut self, req: ReqId) -> usize {
        match self.0.iter().position(|s| matches!(s, ReplySlot::Free)) {
            Some(slot) => {
                self.0[slot] = ReplySlot::Awaiting(req);
                slot
            }
            None => {
                self.0.push(ReplySlot::Awaiting(req));
                self.0.len() - 1
            }
        }
    }

    /// Completes awaited request `req` with its reply. False if `req` is
    /// not awaited — it was posted, or already completed.
    pub(crate) fn fill(&mut self, req: ReqId, args: [u64; 4], payload: Payload) -> bool {
        match self
            .0
            .iter_mut()
            .find(|s| matches!(s, ReplySlot::Awaiting(r) if *r == req))
        {
            Some(slot) => {
                *slot = ReplySlot::Filled(args, payload);
                true
            }
            None => false,
        }
    }

    /// True once the reply parked at `slot` has arrived.
    pub(crate) fn filled(&self, slot: usize) -> bool {
        matches!(self.0[slot], ReplySlot::Filled(..))
    }

    /// The reply parked at `slot`, which becomes free.
    ///
    /// # Panics
    ///
    /// Panics if the reply has not arrived.
    pub(crate) fn take(&mut self, slot: usize) -> ([u64; 4], Payload) {
        match std::mem::replace(&mut self.0[slot], ReplySlot::Free) {
            ReplySlot::Filled(args, payload) => (args, payload),
            _ => panic!("reply slot {slot} taken before its reply arrived"),
        }
    }

    /// The request ids still awaiting a reply, ascending.
    pub(crate) fn awaiting(&self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self
            .0
            .iter()
            .filter_map(|s| match s {
                ReplySlot::Awaiting(req) => Some(*req),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// An unacknowledged request held for possible retransmission (reliability
/// protocol only).
pub(crate) struct TxEntry {
    /// The original message, re-injected verbatim on timeout (its `ack`
    /// field is refreshed per attempt).
    pub msg: Msg,
    /// Transmission attempts so far (1 = original send only).
    pub attempts: u32,
}

/// What a responder keeps to re-answer a duplicate request without
/// re-running its handler.
#[derive(Clone)]
pub(crate) struct CachedReply {
    pub args: [u64; 4],
    pub payload: Payload,
    pub mark: Mark,
}

/// One observer's failure-detector verdict about a peer.
///
/// The state machine is driven only at heartbeat ticks: `Alive →
/// Suspect` after [`crate::NodeFaultPlan::suspect_after`] of silence,
/// `Suspect → Alive` (a *false suspicion*) when the peer's beat resumes,
/// `Suspect → Dead` after [`crate::NodeFaultPlan::confirm_after`].
/// `Dead` is absorbing: a peer that recovers after confirmation stays
/// dead in this observer's view (crash-stop semantics from the
/// survivor's side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PeerStatus {
    /// Heard from recently (or never evaluated).
    Alive,
    /// Silent beyond the suspect threshold.
    Suspect,
    /// Confirmed dead: silence beyond the confirm threshold, or
    /// retransmit-attempt exhaustion.
    Dead,
}

/// A confirmed peer death, as recorded by the first observer to confirm
/// it — the structured payload of an aborted run (the upper layers'
/// `DegradePolicy::Abort` surfaces this instead of panicking or hanging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunAbort {
    /// The surviving processor whose detector (or retransmit exhaustion)
    /// confirmed the death.
    pub observer: ProcId,
    /// The processor written off as dead.
    pub peer: ProcId,
    /// Virtual time of confirmation.
    pub at: SimTime,
}

impl fmt::Display for RunAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proc {} confirmed proc {} dead at {}",
            self.observer, self.peer, self.at
        )
    }
}

/// Receiver-side duplicate-suppression state for one incoming link
/// (reliability protocol only). Garbage-collected by the cumulative ack
/// watermark piggybacked on every message from that source.
#[derive(Default)]
pub(crate) struct RxLink {
    /// Every request id below this completed at the sender: anything
    /// arriving below it is a stale duplicate, and no state is retained
    /// for it.
    pub acked_below: ReqId,
    /// The reply of every request (≥ `acked_below`) whose handler has
    /// already run, kept until acked: the link's one duplicate filter.
    pub reply_cache: BTreeMap<ReqId, CachedReply>,
    /// Next in-order sequence number expected on this link ([`Msg::seq`]).
    pub next_seq: u64,
    /// Requests that arrived ahead of a lost predecessor, keyed by
    /// sequence number and held until the gap closes. Bounded by the
    /// sender's flow-control window.
    pub reorder: BTreeMap<u64, Msg>,
}

pub(crate) struct Endpoint {
    /// Arena tokens of the messages visible to the processor, awaiting
    /// its poll (see [`ClusterInner::pop_rx`]).
    pub rx: RefCell<VecDeque<u32>>,
    /// Woken on every delivery into `rx` and every reply completed.
    pub rx_waiters: Notify,
    /// Remaining flow-control credits (requests in flight = window - credits).
    pub credits: Cell<u32>,
    /// Reply slots for requests whose issuer is waiting.
    pub replies: RefCell<ReplySlots>,
    /// Outstanding posted (non-waited) requests, drained by acks.
    pub pending_posts: Cell<u64>,
    /// Next request id.
    pub next_req: Cell<ReqId>,
    /// NIC transmit context: time at which it can inject again.
    pub nic_tx_free: Cell<SimTime>,
    /// NIC receive context: time at which it can make another message
    /// visible.
    pub nic_rx_free: Cell<SimTime>,
    /// Per-processor application state, visible to handlers.
    pub user_state: RefCell<Option<Box<dyn Any>>>,
    /// Instrumentation.
    pub counters: RefCell<ProcCounters>,
    /// True while the owning process is inside a communication wait
    /// (time-breakdown accounting).
    pub in_wait: Cell<bool>,
    /// Monotone per-source counter keying the stateless fault decisions
    /// (one tick per injection attempt; see [`crate::FaultPlan`]).
    pub fault_nonce: Cell<u64>,
    /// Reliability protocol: unacknowledged requests per destination.
    pub rel_tx: RefCell<Vec<BTreeMap<ReqId, TxEntry>>>,
    /// Reliability protocol: duplicate-suppression state per source.
    pub rel_rx: RefCell<Vec<RxLink>>,
    /// Reliability protocol: next per-link request sequence number, per
    /// destination ([`Msg::seq`]).
    pub tx_seq: RefCell<Vec<u64>>,
    /// Woken when this processor's crash window ends (fail-pause
    /// recovery); never signalled for healthy or crash-stop nodes.
    pub crash_notify: Notify,
    /// Failure-detector verdict about each peer (self entry stays
    /// `Alive`). Only the heartbeat control plane and retransmit
    /// exhaustion mutate it.
    pub(crate) peer_status: RefCell<Vec<PeerStatus>>,
    /// Last instant a heartbeat from each peer reached this observer.
    pub(crate) last_heard: RefCell<Vec<SimTime>>,
}

impl Endpoint {
    fn new(p: usize, window: u32) -> Self {
        Endpoint {
            rx: RefCell::new(VecDeque::new()),
            rx_waiters: Notify::new(),
            credits: Cell::new(window),
            replies: RefCell::new(ReplySlots::default()),
            pending_posts: Cell::new(0),
            next_req: Cell::new(0),
            nic_tx_free: Cell::new(SimTime::ZERO),
            nic_rx_free: Cell::new(SimTime::ZERO),
            user_state: RefCell::new(None),
            counters: RefCell::new(ProcCounters::new(p)),
            in_wait: Cell::new(false),
            fault_nonce: Cell::new(0),
            rel_tx: RefCell::new((0..p).map(|_| BTreeMap::new()).collect()),
            rel_rx: RefCell::new((0..p).map(|_| RxLink::default()).collect()),
            tx_seq: RefCell::new(vec![0; p]),
            crash_notify: Notify::new(),
            peer_status: RefCell::new(vec![PeerStatus::Alive; p]),
            last_heard: RefCell::new(vec![SimTime::ZERO; p]),
        }
    }
}

/// Message arena: the hot delivery path parks each [`Msg`] here and
/// schedules a kernel *hook* event carrying only the slot token, so no
/// `Box<dyn FnOnce>` is allocated per message (see [`Sim::register_hook`]).
/// A message keeps its slot from injection until its processor has served
/// it: the hook events, the receive queue and the serving task pass the
/// token, not the message. Slots are recycled through a free list, so the
/// arena's high-water mark tracks the messages on the wire plus those
/// queued or being served.
///
/// "Slot taken twice" cannot happen: a slot's token is, at any time, in
/// exactly one place — one pending hook event (the one scheduled when the
/// slot was filled, or the re-arm or make-visible event that replaced it
/// when it fired), one entry of a receive queue, or the one task that
/// popped it — and only that task, done serving, empties the slot.
#[derive(Default)]
pub(crate) struct MsgSlab {
    entries: Vec<Option<Msg>>,
    free: Vec<u32>,
}

impl MsgSlab {
    fn with_capacity(n: usize) -> Self {
        MsgSlab {
            entries: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    fn insert(&mut self, msg: Msg) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("message arena overflow");
                self.entries.push(Some(msg));
                slot
            }
        }
    }

    /// The message parked in `slot`, which stays parked.
    fn peek(&self, slot: u32) -> &Msg {
        self.entries[slot as usize]
            .as_ref()
            .expect("message arena slot taken twice")
    }

    fn take(&mut self, slot: u32) -> Msg {
        let msg = self.entries[slot as usize]
            .take()
            .expect("message arena slot taken twice");
        self.free.push(slot);
        msg
    }

    /// Runs `f` on the message parked in `slot` where it lies, then frees
    /// the slot: what `f` does not move out is never copied.
    fn consume<R>(&mut self, slot: u32, f: impl FnOnce(&mut Msg) -> R) -> R {
        let entry = &mut self.entries[slot as usize];
        let out = f(entry.as_mut().expect("message arena slot taken twice"));
        *entry = None;
        self.free.push(slot);
        out
    }
}

/// Token bit distinguishing the two delivery phases dispatched through the
/// single network hook: clear = arrival at the destination NIC, set = the
/// SlowRxPath make-visible step after the receive context's ΔL.
const VISIBLE_BIT: u64 = 1 << 32;

/// The most messages per processor [`AmCluster::new`] reserves arena room
/// for, whatever the credit window.
const ARENA_WINDOW_CAP: usize = 64;

/// The cluster's state: plain data that holds no [`Sim`], so the kernel's
/// hook table and timer closures own it without closing a cycle.
pub(crate) struct ClusterInner {
    pub cfg: NetConfig,
    /// `cfg.reliability_active()`, decided once: the reliability protocol
    /// runs (sequence numbers, duplicate suppression, retransmission).
    pub reliable: bool,
    /// `cfg.faults.is_active()`, decided once: the wire may drop,
    /// duplicate or delay a message.
    pub lossy: bool,
    /// `cfg.node_faults.is_active()`, decided once: some node crashes or
    /// straggles, and the heartbeat control plane runs.
    pub node_plan: bool,
    pub procs: Vec<Endpoint>,
    /// The message arena: every message from injection until it is served.
    pub msg_slab: RefCell<MsgSlab>,
    /// The network delivery hook (read through [`ClusterInner::net_hook`]).
    net_hook: OnceCell<HookId>,
    pub handlers: RefCell<Vec<Handler>>,
    pub stats_epoch: Cell<SimTime>,
    pub frozen_stats: RefCell<Option<CommStats>>,
    /// The one observer cell: every consumer of the event stream (trace
    /// recorder, metrics recorder, or a fan-out of both) sits behind it.
    /// When empty (the default) the hot path pays one pointer check per
    /// hook and constructs nothing.
    pub trace: OnceCell<Rc<dyn TraceSink>>,
    /// Deterministic trace-id well: advances once per port-constructed
    /// message whether or not a sink is installed, so tracing cannot
    /// perturb a run.
    pub trace_ids: Cell<u64>,
    /// Set by the SPMD runtime when the program epilogue completes: the
    /// heartbeat control plane stops re-arming ticks.
    pub control_done: Cell<bool>,
    /// When set, the first confirmed peer death halts the simulation
    /// (the *abort* degradation policy; see [`AmCluster::set_abort_on_death`]).
    pub abort_on_death: Cell<bool>,
    /// First confirmed peer death across the whole cluster.
    pub death_note: RefCell<Option<RunAbort>>,
}

/// An emulated cluster of `P` processors joined by a LogGP network with a
/// GAM-style Active Message layer.
///
/// Cheap to clone (reference-counted handles). Spawn one simulated process
/// per processor, give each an [`crate::AmPort`] via [`AmCluster::port`],
/// and drive the [`Sim`].
///
/// # Examples
///
/// A remote increment via a user handler:
///
/// ```
/// use nowlab_sim::Sim;
/// use nowlab_am::{AmCluster, NetConfig, Mark, Payload, ReplyData};
///
/// let sim = Sim::new();
/// let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
/// cluster.set_state(1, Box::new(0u64));
/// let inc = cluster.register_handler(|ctx| {
///     let counter = ctx.state.downcast_mut::<u64>().unwrap();
///     *counter += ctx.msg.args[0];
///     ReplyData::word(*counter)
/// });
///
/// // Receives are polled: the destination must be servicing the network.
/// let server = cluster.port(1);
/// sim.spawn(async move { server.wait_until(|| false).await });
///
/// let port = cluster.port(0);
/// let h = sim.spawn(async move {
///     let (args, _) = port.request(1, inc, [5, 0, 0, 0], Payload::None, Mark::Rmw).await;
///     args[0]
/// });
/// sim.run();
/// assert_eq!(h.try_take(), Some(5));
/// ```
#[derive(Clone)]
pub struct AmCluster {
    pub(crate) inner: Rc<ClusterInner>,
    pub(crate) sim: Sim,
}

impl fmt::Debug for AmCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmCluster")
            .field("procs", &self.inner.procs.len())
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

impl AmCluster {
    /// Creates a cluster of `p` processors over the given network
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn new(sim: Sim, cfg: NetConfig, p: usize) -> Self {
        assert!(p > 0, "cluster needs at least one processor");
        let procs = (0..p).map(|_| Endpoint::new(p, cfg.window)).collect();
        // Arena sized for the steady-state wire load: up to `window`
        // outstanding messages per processor, but never more than
        // `ARENA_WINDOW_CAP` each up front — `--window` bounds what may
        // be in flight, not what must be reserved, and the arena grows
        // on demand.
        let slab_cap = p.saturating_mul((cfg.window as usize).min(ARENA_WINDOW_CAP));
        let inner = Rc::new(ClusterInner {
            cfg,
            reliable: cfg.reliability_active(),
            lossy: cfg.faults.is_active(),
            node_plan: cfg.node_faults.is_active(),
            procs,
            msg_slab: RefCell::new(MsgSlab::with_capacity(slab_cap)),
            net_hook: OnceCell::new(),
            handlers: RefCell::new(Vec::new()),
            stats_epoch: Cell::new(SimTime::ZERO),
            frozen_stats: RefCell::new(None),
            trace: OnceCell::new(),
            trace_ids: Cell::new(0),
            control_done: Cell::new(false),
            abort_on_death: Cell::new(false),
            death_note: RefCell::new(None),
        });
        // Every wire arrival and SlowRxPath visibility step dispatches
        // through this hook with an arena token, not a boxed closure.
        let hook_inner = Rc::clone(&inner);
        let net_hook = sim.register_hook(move |sim, token| hook_inner.on_net_hook(sim, token));
        let _ = inner.net_hook.set(net_hook);
        // The node-failure control plane costs nothing unless the plan is
        // active: an inert plan schedules no events here, keeping every
        // healthy run bit-identical to a build without the failure model.
        if inner.node_plan {
            let tick_inner = Rc::clone(&inner);
            sim.schedule(SimTime::ZERO + cfg.node_faults.hb_period, move |sim| {
                tick_inner.on_heartbeat_tick(sim, 1)
            });
            for &f in cfg.node_faults.faults.iter().flatten() {
                if f.crashes() && f.recover_at != SimTime::MAX {
                    // Fail-pause recovery: wake the frozen task's crash
                    // gate and nudge its wait loops to re-check.
                    let inner = Rc::clone(&inner);
                    sim.schedule(f.recover_at, move |sim| {
                        inner.procs[f.node].crash_notify.notify_all(sim);
                        inner.procs[f.node].rx_waiters.notify_all(sim);
                    });
                }
            }
        }
        AmCluster { inner, sim }
    }

    /// Installs a lifecycle observer (see [`TraceSink`]). The first
    /// installation wins; later calls are ignored. Sinks are pure
    /// observers — traced runs are event-count- and result-identical to
    /// untraced runs.
    pub fn set_trace_sink(&self, sink: Rc<dyn TraceSink>) {
        let _ = self.inner.trace.set(sink);
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.inner.procs.len()
    }

    /// The simulation this cluster runs in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Registers a handler on all processors; returns its id.
    pub fn register_handler<F>(&self, f: F) -> HandlerId
    where
        F: Fn(HandlerCtx<'_>) -> ReplyData + 'static,
    {
        let mut handlers = self.inner.handlers.borrow_mut();
        handlers.push(Box::new(f));
        handlers.len() - 1
    }

    /// Installs per-processor application state (visible to handlers via
    /// [`HandlerCtx::state`] and to the process via
    /// [`crate::AmPort::with_state`]).
    pub fn set_state(&self, proc: ProcId, state: Box<dyn Any>) {
        *self.inner.procs[proc].user_state.borrow_mut() = Some(state);
    }

    /// A communication port bound to processor `proc`.
    pub fn port(&self, proc: ProcId) -> crate::AmPort {
        assert!(proc < self.num_procs(), "no such processor {proc}");
        crate::AmPort::new(Rc::clone(&self.inner), self.sim.clone(), proc)
    }

    /// Snapshot of the communication counters since the last
    /// [`AmCluster::reset_stats`] — or the frozen snapshot, if
    /// [`AmCluster::freeze_stats`] was called.
    pub fn stats(&self) -> CommStats {
        if let Some(frozen) = self.inner.frozen_stats.borrow().as_ref() {
            return frozen.clone();
        }
        self.live_stats()
    }

    /// Freezes the measured region: subsequent traffic (e.g. result
    /// verification) is excluded from [`AmCluster::stats`].
    pub fn freeze_stats(&self) {
        *self.inner.frozen_stats.borrow_mut() = Some(self.live_stats());
    }

    fn live_stats(&self) -> CommStats {
        CommStats {
            per_proc: self
                .inner
                .procs
                .iter()
                .map(|e| e.counters.borrow().clone())
                .collect(),
            elapsed: self.sim.now().since(self.inner.stats_epoch.get()),
        }
    }

    /// One line per processor describing live transport state — credits,
    /// outstanding posts/requests, retransmit queues, receive-queue depth.
    /// A diagnostic for stuck runs: a processor deadlocked in the
    /// communication layer shows up here as missing credits or a
    /// never-draining retransmit queue.
    pub fn transport_diagnostic(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (p, ep) in self.inner.procs.iter().enumerate() {
            let tx: Vec<String> = ep
                .rel_tx
                .borrow()
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.is_empty())
                .map(|(d, m)| format!("->{d}:{:?}", m.keys().collect::<Vec<_>>()))
                .collect();
            let awaiting = ep.replies.borrow().awaiting();
            let held: usize = ep.rel_rx.borrow().iter().map(|l| l.reorder.len()).sum();
            let _ = writeln!(
                out,
                "proc {p}: credits={} posts={} awaiting={awaiting:?} rx={} \
                 next_req={} in_wait={} held_ooo={held} rel_tx=[{}]",
                ep.credits.get(),
                ep.pending_posts.get(),
                ep.rx.borrow().len(),
                ep.next_req.get(),
                ep.in_wait.get(),
                tx.join(" "),
            );
        }
        out
    }

    /// Wakes every processor blocked in a network wait so it re-checks its
    /// condition. Used by SPMD runtimes for conditions that change without
    /// a message arriving (e.g. "all processors have finished").
    pub fn poke_all(&self) {
        for ep in &self.inner.procs {
            ep.rx_waiters.notify_all(&self.sim);
        }
    }

    /// Marks the distributed program finished: the heartbeat control
    /// plane stops re-arming ticks, so trailing control events cannot
    /// outlive the application by more than one period. Idempotent.
    pub fn finish_control(&self) {
        self.inner.control_done.set(true);
    }

    /// Selects the *abort* degradation policy: the first confirmed peer
    /// death records a death note and halts the simulation at the
    /// current instant (a clean, structured abort — never a hang). The
    /// default (`false`) lets survivors keep running degraded.
    pub fn set_abort_on_death(&self, on: bool) {
        self.inner.abort_on_death.set(on);
    }

    /// The first confirmed peer death, if any.
    pub fn death_note(&self) -> Option<RunAbort> {
        *self.inner.death_note.borrow()
    }

    /// Zeroes all counters and restarts the stats clock (used to exclude
    /// input-generation phases from the measured region). Also discards
    /// any frozen snapshot.
    pub fn reset_stats(&self) {
        let p = self.num_procs();
        for e in &self.inner.procs {
            *e.counters.borrow_mut() = ProcCounters::new(p);
        }
        self.inner.stats_epoch.set(self.sim.now());
        *self.inner.frozen_stats.borrow_mut() = None;
    }
}

impl ClusterInner {
    /// Draws the next trace correlation id. Always advances (tracing on
    /// or off) so the id stream is part of the deterministic run state.
    pub(crate) fn next_trace(&self) -> u64 {
        let id = self.trace_ids.get() + 1;
        self.trace_ids.set(id);
        id
    }

    /// A host charge `d` on `proc`, scaled by its straggler multiplier.
    pub(crate) fn scale(&self, proc: ProcId, d: SimDelta) -> SimDelta {
        if self.node_plan {
            self.cfg.node_faults.scale(proc, d)
        } else {
            d
        }
    }

    /// Takes the oldest message visible at `proc` off its receive queue.
    /// The message stays parked in the arena under the returned token
    /// until it is served ([`ClusterInner::consume_msg`] or
    /// [`ClusterInner::take_msg`]).
    pub(crate) fn pop_rx(&self, proc: ProcId) -> Option<u32> {
        self.procs[proc].rx.borrow_mut().pop_front()
    }

    /// Reads the message parked under `slot`.
    pub(crate) fn msg<R>(&self, slot: u32, f: impl FnOnce(&Msg) -> R) -> R {
        f(self.msg_slab.borrow().peek(slot))
    }

    /// Takes the message parked under `slot` out of the arena.
    pub(crate) fn take_msg(&self, slot: u32) -> Msg {
        self.msg_slab.borrow_mut().take(slot)
    }

    /// Runs `f` on the message parked under `slot`, then frees the slot.
    pub(crate) fn consume_msg<R>(&self, slot: u32, f: impl FnOnce(&mut Msg) -> R) -> R {
        self.msg_slab.borrow_mut().consume(slot, f)
    }

    /// Hands a message to the source NIC at the current instant; computes
    /// injection and transit times and schedules delivery. `o_send` is the
    /// send overhead the host processor just paid for it (attributed to
    /// the message's trace record; zero for timer-driven retransmissions,
    /// which charge theirs out of band).
    pub(crate) fn inject(&self, sim: &Sim, msg: Msg, o_send: SimDelta) {
        let cfg = &self.cfg;
        let now = sim.now();
        let src = &self.procs[msg.src];

        // Instrumentation: every injected message is a "send".
        {
            let mut c = src.counters.borrow_mut();
            c.sends += 1;
            c.per_dst[msg.dst] += 1;
            if msg.dir == Dir::Reply {
                c.replies_sent += 1;
            }
            if msg.mark.is_read() {
                c.sends_read += 1;
            }
            if msg.is_bulk() {
                c.sends_bulk += 1;
                c.bytes_bulk += u64::from(msg.payload.wire_bytes());
            } else {
                c.bytes_short += u64::from(GAM_SHORT_WIRE_BYTES);
            }
        }

        // Transmit-context occupancy: `nic_tx_free` serializes the
        // `[start, tx_free)` spans, so they never overlap.
        let start = now.max(src.nic_tx_free.get());
        let payload_bytes = msg.payload.wire_bytes();
        let (dma, busy) = cfg.tx_spans(payload_bytes);
        let (wire_done, tx_free) = (start + dma, start + busy);
        src.nic_tx_free.set(tx_free);

        // Transit. With the delay queue the added latency is applied here
        // (equivalent to deferring the presence bit at the receiver); with
        // the naive slow-receive-path mode only the base latency is, and
        // the receive context pays ΔL per message instead.
        let mut arrival = match cfg.latency_mode {
            crate::LatencyMode::DelayQueue => wire_done + cfg.eff_latency(),
            crate::LatencyMode::SlowRxPath => wire_done + cfg.machine.latency,
        };

        // All sender-side timestamps are known here, so one event carries
        // the whole injection — delivered or dropped. Built only when an
        // observer is installed; pure observation, nothing is scheduled
        // and no simulation state is touched.
        let attempt = |arrival| SendEvent {
            id: msg.trace,
            src: msg.src,
            dst: msg.dst,
            reply: msg.dir == Dir::Reply,
            kind: msg.mark,
            bytes: payload_bytes,
            o_send,
            inject: now,
            tx_start: start,
            wire_done,
            tx_free,
            arrival,
            in_flight: cfg.window.saturating_sub(src.credits.get()),
            timer_depth: sim.pending_timers() as u32,
        };

        // Fault injection. The sender has already paid full LogGP send
        // costs (overhead, NIC occupancy, counters) — a fault only decides
        // what the *wire* does with the message. Decisions are stateless
        // hashes of (seed, link, attempt nonce), so the pattern is a pure
        // function of the plan and the deterministic injection order.
        if self.lossy {
            let faults = &cfg.faults;
            let nonce = src.fault_nonce.get();
            src.fault_nonce.set(nonce + 1);
            let lost = faults.in_outage(wire_done, msg.dst)
                || if payload_bytes == 0 {
                    faults.drops(msg.src, msg.dst, nonce, 0, false)
                } else {
                    // Bulk: each fragment rolls; losing any fragment loses
                    // the whole message (the transport has no
                    // partial-message semantics — the retransmit resends
                    // it all).
                    let frags = payload_bytes.div_ceil(GAM_FRAG_BYTES);
                    (0..frags).any(|f| faults.drops(msg.src, msg.dst, nonce, f, true))
                };
            if lost {
                src.counters.borrow_mut().drops += 1;
                if let Some(sink) = self.trace.get() {
                    sink.record(&TraceEvent::Drop(attempt(arrival)));
                }
                return;
            }
            if faults.duplicates(msg.src, msg.dst, nonce) {
                src.counters.borrow_mut().dups += 1;
                let dup_arrival = arrival + faults.jitter(msg.src, msg.dst, nonce, 1);
                if let Some(sink) = self.trace.get() {
                    sink.record(&TraceEvent::DupDelivery {
                        id: msg.trace,
                        arrival: dup_arrival,
                    });
                }
                self.schedule_deliver(sim, dup_arrival, msg.clone());
            }
            arrival += faults.jitter(msg.src, msg.dst, nonce, 0);
        }

        if let Some(sink) = self.trace.get() {
            sink.record(&TraceEvent::Send(attempt(arrival)));
        }
        self.schedule_deliver(sim, arrival, msg);
    }

    /// The cumulative-ack watermark `src` piggybacks on messages to `dst`:
    /// the lowest still-outstanding request id on that link, or the next
    /// id to be issued if none is outstanding. Every request below it has
    /// completed, so the receiver can discard its duplicate-suppression
    /// state below the watermark.
    pub(crate) fn ack_watermark(&self, src: ProcId, dst: ProcId) -> ReqId {
        let ep = &self.procs[src];
        ep.rel_tx.borrow()[dst]
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| ep.next_req.get())
    }

    /// Applies the cumulative ack carried by an incoming message: advances
    /// the per-link watermark and prunes the reply cache below it.
    pub(crate) fn note_ack(&self, at: ProcId, from: ProcId, ack: ReqId) {
        let mut rx = self.procs[at].rel_rx.borrow_mut();
        let link = &mut rx[from];
        if ack <= link.acked_below {
            return;
        }
        link.acked_below = ack;
        link.reply_cache.retain(|&req, _| req >= ack);
    }

    /// Arms the single-shot retransmission timer for attempt `attempt` of
    /// an outstanding request. The timer self-reschedules with exponential
    /// backoff while the request remains unacknowledged and becomes a
    /// no-op once the reply arrives (there is no cancellation — the event
    /// queue drains naturally).
    pub(crate) fn arm_retransmit(
        self: &Rc<Self>,
        sim: &Sim,
        src: ProcId,
        dst: ProcId,
        req: ReqId,
        attempt: u32,
    ) {
        let backoff = fault::backoff(self.cfg.faults.seed, src, dst, req, attempt);
        {
            let mut c = self.procs[src].counters.borrow_mut();
            c.max_retry_backoff = c.max_retry_backoff.max(backoff);
        }
        let inner = Rc::clone(self);
        sim.schedule(sim.now() + backoff, move |sim| {
            inner.on_retransmit_timer(sim, src, dst, req, attempt)
        });
    }

    /// Timeout expiry: if the request is still unacknowledged, charge the
    /// sender, re-inject with a refreshed ack watermark, and re-arm with
    /// the next backoff step. When the silence has a scheduled cause — an
    /// active node-fault plan, or a wire outage covering the link right
    /// now — the sender gives up after
    /// [`crate::MAX_ATTEMPTS`] injections and escalates the
    /// peer to its failure detector as dead: a crashed peer or severed
    /// link ends in a bounded number of timer events, never a spin to the
    /// run's event/time guard. Probabilistic drops alone never escalate:
    /// a lossy wire eventually delivers, so the sender retries until the
    /// run's event/time budget rules (a healthy peer must never be
    /// declared dead by bad luck).
    fn on_retransmit_timer(
        self: &Rc<Self>,
        sim: &Sim,
        src: ProcId,
        dst: ProcId,
        req: ReqId,
        attempt: u32,
    ) {
        let ep = &self.procs[src];
        let exhausted = {
            let tx = ep.rel_tx.borrow();
            match tx[dst].get(&req) {
                None => return, // acknowledged in the meantime: timer is stale
                Some(entry) => entry.attempts >= MAX_ATTEMPTS,
            }
        };
        if exhausted && (self.node_plan || self.cfg.faults.in_outage(sim.now(), dst)) {
            self.escalate_peer_death(sim, src, dst);
            return;
        }
        let mut msg = {
            let mut tx = ep.rel_tx.borrow_mut();
            let Some(entry) = tx[dst].get_mut(&req) else {
                return;
            };
            entry.attempts += 1;
            entry.msg.clone()
        };
        // The retransmission is driven from the timer, so its send
        // overhead is charged interrupt-style: it is recorded without
        // blocking the (possibly computing) processor.
        let o_send = self.scale(src, self.cfg.eff_o_send());
        {
            let mut c = ep.counters.borrow_mut();
            c.timeouts += 1;
            c.retransmits += 1;
        }
        if let Some(sink) = self.trace.get() {
            sink.record(&TraceEvent::Retransmit {
                id: msg.trace,
                attempt: attempt + 1,
                o_send,
                at: sim.now(),
            });
        }
        msg.ack = self.ack_watermark(src, dst);
        // The interrupt-style overhead above does not precede the
        // injection in time, so the retry's attributed o_send is zero
        // (the Retransmit event reports the out-of-band charge).
        self.inject(sim, msg, SimDelta::ZERO);
        self.arm_retransmit(sim, src, dst, req, attempt + 1);
    }

    /// One tick of the global heartbeat control plane (active node-fault
    /// plans only). Heartbeats are modelled out of band: each live node's
    /// beat is stamped directly into every observer's `last_heard` (with
    /// the plan's deterministic delivery jitter) rather than sent through
    /// the data plane, so the failure detector perturbs neither LogGP
    /// charges nor message schedules. Frozen observers still receive the
    /// stamps — a recovering node must not wake to a wall of stale
    /// silence and suspect every healthy peer at once — but evaluate
    /// nothing while frozen.
    fn on_heartbeat_tick(self: &Rc<Self>, sim: &Sim, tick: u64) {
        if self.control_done.get() {
            return;
        }
        let now = sim.now();
        let plan = &self.cfg.node_faults;
        let p = self.procs.len();

        // Emission: every non-frozen node beats once.
        for sender in 0..p {
            if plan.frozen(sender, now) {
                continue;
            }
            self.procs[sender].counters.borrow_mut().heartbeats += 1;
            let heard = now + plan.hb_jitter(sender, tick);
            for observer in 0..p {
                if observer != sender {
                    self.procs[observer].last_heard.borrow_mut()[sender] = heard;
                }
            }
        }

        // Detection: every non-frozen observer evaluates peer silence.
        for observer in 0..p {
            if plan.frozen(observer, now) {
                continue;
            }
            for peer in 0..p {
                if peer == observer {
                    continue;
                }
                let (status, gap) = {
                    let ep = &self.procs[observer];
                    let status = ep.peer_status.borrow()[peer];
                    let gap = now.saturating_since(ep.last_heard.borrow()[peer]);
                    (status, gap)
                };
                match status {
                    PeerStatus::Dead => {}
                    _ if gap > plan.confirm_after => {
                        self.escalate_peer_death(sim, observer, peer);
                    }
                    PeerStatus::Alive if gap > plan.suspect_after => {
                        let ep = &self.procs[observer];
                        ep.peer_status.borrow_mut()[peer] = PeerStatus::Suspect;
                        ep.counters.borrow_mut().suspicions += 1;
                    }
                    PeerStatus::Suspect if gap <= plan.suspect_after => {
                        // The beat resumed: retract (a false suspicion —
                        // crash-recovery downtimes shorter than the
                        // confirm threshold land here by design).
                        let ep = &self.procs[observer];
                        ep.peer_status.borrow_mut()[peer] = PeerStatus::Alive;
                        ep.counters.borrow_mut().false_suspicions += 1;
                    }
                    _ => {}
                }
            }
        }

        // Re-arm until every scheduled fault's fate is settled from every
        // observer's perspective; past that point no tick can change
        // detector state, so stopping keeps bare-cluster runs finite even
        // when no SPMD epilogue calls `finish_control`.
        if now < plan.settle_by() {
            let inner = Rc::clone(self);
            sim.schedule(now + plan.hb_period, move |sim| {
                inner.on_heartbeat_tick(sim, tick + 1)
            });
        }
    }

    /// Marks `peer` dead in `observer`'s membership view and abandons all
    /// of `observer`'s in-flight protocol state toward it: unacknowledged
    /// requests are dropped, their reply waiters completed with a default
    /// reply, posted-but-unacked sends written off, and flow-control
    /// credits restored — so no task can block forever on a dead peer.
    /// Idempotent in the view (the death is counted once) but always
    /// sweeps the in-flight state, because new sends may have raced in
    /// between confirmation and the next retransmit exhaustion.
    pub(crate) fn escalate_peer_death(&self, sim: &Sim, observer: ProcId, peer: ProcId) {
        let now = sim.now();
        let ep = &self.procs[observer];
        let newly = {
            let mut status = ep.peer_status.borrow_mut();
            let newly = status[peer] != PeerStatus::Dead;
            status[peer] = PeerStatus::Dead;
            newly
        };
        if newly {
            let mut c = ep.counters.borrow_mut();
            c.peer_deaths += 1;
            if let Some(f) = self.cfg.node_faults.fault_of(peer) {
                if f.crashes() && f.crash_at <= now {
                    c.max_detect_latency =
                        c.max_detect_latency.max(now.saturating_since(f.crash_at));
                }
            }
        }
        let orphaned: Vec<ReqId> = ep.rel_tx.borrow()[peer].keys().copied().collect();
        for req in orphaned {
            ep.rel_tx.borrow_mut()[peer].remove(&req);
            ep.credits.set(ep.credits.get() + 1);
            // An awaited request's issuer unblocks with the protocol's
            // default reply (zero words, no payload) — the degraded app
            // layer decides what that means.
            if !ep.replies.borrow_mut().fill(req, [0; 4], Payload::None) {
                let posts = ep.pending_posts.get();
                debug_assert!(posts > 0, "orphaned request was neither awaited nor posted");
                ep.pending_posts.set(posts.saturating_sub(1));
            }
        }
        ep.rx_waiters.notify_all(sim);
        if newly {
            if self.death_note.borrow().is_none() {
                *self.death_note.borrow_mut() = Some(RunAbort {
                    observer,
                    peer,
                    at: now,
                });
            }
            if self.abort_on_death.get() {
                sim.halt();
            }
        }
    }

    /// Parks `msg` in the arena and schedules the NIC-arrival phase of the
    /// network hook at `at`.
    fn schedule_deliver(&self, sim: &Sim, at: SimTime, msg: Msg) {
        let slot = self.msg_slab.borrow_mut().insert(msg);
        sim.schedule_hook(at, self.net_hook(), u64::from(slot));
    }

    /// The network delivery hook's id, which [`AmCluster::new`] sets before
    /// any message exists.
    fn net_hook(&self) -> HookId {
        *self.net_hook.get().expect("hook id set at construction")
    }

    /// Dispatcher for the network hook: runs the phase encoded in the
    /// token on the message parked in the token's arena slot.
    ///
    /// An arrival that finds the destination's receive context busy — at
    /// the paper's baseline, six in ten of all events of a Radix run — is
    /// re-armed *in place*: the same token is scheduled again for the
    /// instant the context frees up. The message never leaves the arena
    /// on its way to the receive queue.
    fn on_net_hook(&self, sim: &Sim, token: u64) {
        let slot = (token & u64::from(u32::MAX)) as u32;
        let dst = self.msg_slab.borrow().peek(slot).dst;
        if token & VISIBLE_BIT != 0 {
            self.make_visible(sim, slot, dst);
            return;
        }
        let free = self.procs[dst].nic_rx_free.get();
        if free > sim.now() {
            sim.schedule_hook(free, self.net_hook(), token);
            return;
        }
        self.deliver(sim, slot, dst);
    }

    /// Delivery at the destination NIC, whose receive context is free
    /// (`on_net_hook` checked) and now holds the message for one
    /// effective gap — that is what serializes deliveries.
    fn deliver(&self, sim: &Sim, slot: u32, dst: ProcId) {
        let now = sim.now();
        // The receive context holds the message for one gap — after the
        // ΔL it spends handling it first on the slow receive path, which
        // is what inflates that mode's effective gap.
        let visible = match self.cfg.latency_mode {
            crate::LatencyMode::DelayQueue => now,
            crate::LatencyMode::SlowRxPath => now + self.cfg.knobs.d_lat,
        };
        let free = visible + self.cfg.eff_gap();
        self.procs[dst].nic_rx_free.set(free);
        if let Some(sink) = self.trace.get() {
            sink.record(&TraceEvent::NicRx {
                proc: dst,
                from: now,
                to: free,
            });
        }
        match self.cfg.latency_mode {
            crate::LatencyMode::DelayQueue => self.make_visible(sim, slot, dst),
            crate::LatencyMode::SlowRxPath => {
                sim.schedule_hook(visible, self.net_hook(), VISIBLE_BIT | u64::from(slot))
            }
        }
    }

    /// The message parked in `slot` enters the receive queue of `dst`,
    /// whose waiters are woken (DelayQueue: immediately on NIC arrival;
    /// SlowRxPath: after the receive context's ΔL).
    fn make_visible(&self, sim: &Sim, slot: u32, dst: ProcId) {
        let ep = &self.procs[dst];
        ep.rx.borrow_mut().push_back(slot);
        if let Some(sink) = self.trace.get() {
            sink.record(&TraceEvent::Visible(VisibleEvent {
                id: self.msg_slab.borrow().peek(slot).trace,
                at: sim.now(),
                rx_depth: ep.rx.borrow().len() as u32,
            }));
        }
        ep.rx_waiters.notify_all(sim);
    }

    /// Runs the registered handler for `msg` on its destination processor.
    pub(crate) fn run_handler(&self, sim: &Sim, msg: &Msg) -> ReplyData {
        if let Some(sink) = self.trace.get() {
            sink.record(&TraceEvent::Handler {
                id: msg.trace,
                at: sim.now(),
            });
        }
        let handlers = self.handlers.borrow();
        let handler = handlers
            .get(msg.handler)
            .unwrap_or_else(|| panic!("no handler {} registered", msg.handler));
        let ep = &self.procs[msg.dst];
        let mut guard = ep.user_state.borrow_mut();
        let mut unit = ();
        let state: &mut dyn Any = match guard.as_mut() {
            Some(b) => b.as_mut(),
            None => &mut unit,
        };
        handler(HandlerCtx {
            state,
            msg,
            now: sim.now(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Mark;
    use nowlab_sim::SimDelta;

    fn short_msg(src: ProcId, dst: ProcId) -> Msg {
        Msg {
            src,
            dst,
            dir: Dir::Request,
            req: 0,
            ack: 0,
            seq: 0,
            handler: 0,
            args: [0; 4],
            payload: Payload::None,
            mark: Mark::Write,
            trace: 0,
        }
    }

    #[test]
    fn reply_slots_are_reused_and_found_by_request_id() {
        let mut slots = ReplySlots::default();
        let (a, b, c) = (slots.park(10), slots.park(11), slots.park(12));
        assert_eq!((a, b, c), (0, 1, 2));
        // Out of order: 11's reply first, then a reply to a post.
        assert!(slots.fill(11, [11, 0, 0, 0], Payload::None));
        assert!(!slots.fill(99, [0; 4], Payload::None), "99 was posted");
        assert!(!slots.filled(a) && slots.filled(b));
        assert_eq!(slots.awaiting(), [10, 12]);
        assert_eq!(slots.take(b).0, [11, 0, 0, 0]);
        // The freed entry is reused, so the table's order is no longer
        // issue order; the diagnostic list still is.
        assert_eq!(slots.park(13), b);
        assert_eq!(slots.awaiting(), [10, 12, 13]);
        assert!(!slots.fill(11, [0; 4], Payload::None), "11 completed once");
        assert!(slots.fill(12, [12, 0, 0, 0], Payload::Synthetic(8)));
        let (args, payload) = slots.take(c);
        assert_eq!((args[0], payload.wire_bytes()), (12, 8));
        assert_eq!(slots.0.len(), 3, "the table grows only to the peak");
    }

    #[test]
    fn short_message_arrives_after_latency() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        let ep = &cluster.inner.procs[1];
        assert_eq!(ep.rx.borrow().len(), 1);
        // Delivered exactly at L = 5 µs.
        assert_eq!(sim.now(), SimTime::ZERO + SimDelta::from_micros(5.0));
    }

    #[test]
    fn sender_nic_enforces_gap() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        // Two messages injected back to back at t=0.
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        // Second injection waits one gap: arrival = g + L = 10.8 µs.
        assert_eq!(
            sim.now(),
            SimTime::ZERO + SimDelta::from_micros(5.8) + SimDelta::from_micros(5.0)
        );
    }

    #[test]
    fn receiver_nic_serializes_distinct_senders() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 3);
        cluster.register_handler(|_| ReplyData::ack());
        // Both senders inject at t=0; both would arrive at L=5 µs.
        cluster.inner.inject(&sim, short_msg(0, 2), SimDelta::ZERO);
        cluster.inner.inject(&sim, short_msg(1, 2), SimDelta::ZERO);
        sim.run();
        // Second delivery is pushed to 5 + g = 10.8 µs.
        assert_eq!(sim.now(), SimTime::ZERO + SimDelta::from_micros(10.8));
        assert_eq!(cluster.inner.procs[2].rx.borrow().len(), 2);
    }

    #[test]
    fn simultaneous_arrivals_queue_at_the_receive_nic_in_seq_order() {
        // k senders inject at t=0, so k messages (2k with every message
        // duplicated on the wire) reach processor k at the same instant.
        // The receive context takes one per gap; each of the others fires
        // once per gap it waits and is re-armed in place.
        for (k, copies) in [(6usize, 1usize), (5, 2)] {
            let sim = Sim::new();
            let mut cfg = NetConfig::berkeley_now();
            if copies == 2 {
                cfg = cfg.with_faults(crate::FaultPlan::none().with_dup(1.0));
            }
            let cluster = AmCluster::new(sim.clone(), cfg, k + 1);
            cluster.register_handler(|_| ReplyData::ack());
            for src in 0..k {
                cluster
                    .inner
                    .inject(&sim, short_msg(src, k), SimDelta::ZERO);
            }
            let report = sim.run();
            let n = (k * copies) as u64;
            // The n-th in line fires n times: n − 1 re-arms, one delivery.
            assert_eq!(report.events_fired, n * (n + 1) / 2);
            assert_eq!(
                sim.now(),
                SimTime::ZERO + SimDelta::from_micros(5.0) + cfg.eff_gap() * (n - 1)
            );
            // Delivered exactly once per copy, in injection (`seq`) order.
            // A message keeps its arena slot until its processor pops it,
            // so the high-water mark is the number in flight, and every
            // slot comes back as the queue drains.
            assert_eq!(cluster.inner.msg_slab.borrow().entries.len(), n as usize);
            let srcs: Vec<ProcId> = std::iter::from_fn(|| cluster.inner.pop_rx(k))
                .map(|slot| cluster.inner.consume_msg(slot, |m| m.src))
                .collect();
            let expect: Vec<ProcId> = (0..k).flat_map(|s| [s].repeat(copies)).collect();
            assert_eq!(srcs, expect);
            let arena = cluster.inner.msg_slab.borrow();
            assert_eq!(arena.entries.len(), n as usize);
            assert_eq!(arena.free.len(), n as usize);
            assert!(arena.entries.iter().all(Option::is_none));
        }
    }

    #[test]
    fn added_latency_delays_arrival_only() {
        let sim = Sim::new();
        let cfg = NetConfig::berkeley_now()
            .with_knobs(crate::Knobs::with_latency(SimDelta::from_micros(100.0)));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO + SimDelta::from_micros(105.0));
        // Sender NIC freed long before arrival: gap unaffected.
        assert_eq!(
            cluster.inner.procs[0].nic_tx_free.get(),
            SimTime::ZERO + SimDelta::from_micros(5.8)
        );
    }

    #[test]
    fn bulk_transfer_time_tracks_big_g() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        let mut msg = short_msg(0, 1);
        msg.payload = Payload::Synthetic(8192); // two 4KB fragments
        msg.mark = Mark::Bulk;
        cluster.inner.inject(&sim, msg, SimDelta::ZERO);
        sim.run();
        // DMA time = 8192 B at the (ns-quantized) per-byte gap, plus L.
        let per_byte = NetConfig::berkeley_now().eff_gap_per_byte();
        let expect = SimTime::ZERO + per_byte * 8192 + SimDelta::from_micros(5.0);
        assert_eq!(sim.now(), expect);
        // And it is within 2% of the ideal 38 MB/s figure.
        let ideal_us = 8192.0 * (1000.0 / 38.0) / 1000.0 + 5.0;
        assert!((sim.now().as_micros_f64() - ideal_us).abs() / ideal_us < 0.02);
    }

    #[test]
    fn stats_count_sends_and_bytes() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        let mut bulk = short_msg(0, 1);
        bulk.payload = Payload::Synthetic(100);
        bulk.mark = Mark::Bulk;
        cluster.inner.inject(&sim, bulk, SimDelta::ZERO);
        sim.run();
        let stats = cluster.stats();
        let c0 = &stats.per_proc[0];
        assert_eq!(c0.sends, 2);
        assert_eq!(c0.sends_bulk, 1);
        assert_eq!(c0.bytes_short, 28);
        assert_eq!(c0.bytes_bulk, 100);
        assert_eq!(c0.per_dst, vec![0, 2]);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        cluster.reset_stats();
        let stats = cluster.stats();
        assert_eq!(stats.total_sends(), 0);
        assert_eq!(stats.elapsed, SimDelta::ZERO);
    }

    #[test]
    #[should_panic(expected = "no such processor")]
    fn port_bounds_checked() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim, NetConfig::berkeley_now(), 2);
        let _ = cluster.port(2);
    }

    #[test]
    fn certain_drop_swallows_wire_but_charges_sender() {
        let sim = Sim::new();
        let cfg = NetConfig::berkeley_now().with_faults(crate::FaultPlan::with_drop_rate(1.0, 1));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        assert_eq!(cluster.inner.procs[1].rx.borrow().len(), 0);
        let c0 = &cluster.stats().per_proc[0];
        // The sender still paid: counters and NIC occupancy charged.
        assert_eq!(c0.sends, 1);
        assert_eq!(c0.drops, 1);
        assert_eq!(
            cluster.inner.procs[0].nic_tx_free.get(),
            SimTime::ZERO + SimDelta::from_micros(5.8)
        );
    }

    #[test]
    fn certain_duplication_delivers_twice() {
        let sim = Sim::new();
        let cfg = NetConfig::berkeley_now().with_faults(crate::FaultPlan::none().with_dup(1.0));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        assert_eq!(cluster.inner.procs[1].rx.borrow().len(), 2);
        assert_eq!(cluster.stats().per_proc[0].dups, 1);
    }

    #[test]
    fn jitter_delays_arrival_within_bound() {
        let bound = SimDelta::from_micros(50.0);
        let sim = Sim::new();
        let cfg = NetConfig::berkeley_now()
            .with_faults(crate::FaultPlan::none().with_jitter(bound).with_seed(3));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        let t = sim.now();
        let base = SimTime::ZERO + SimDelta::from_micros(5.0);
        assert!(t >= base && t <= base + bound, "arrival {t}");
    }

    #[test]
    fn outage_window_blacks_out_the_wire() {
        let sim = Sim::new();
        let outage = crate::Outage::window(SimTime::ZERO, SimTime::from_nanos(1));
        let cfg =
            NetConfig::berkeley_now().with_faults(crate::FaultPlan::none().with_outage(outage));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        cluster.register_handler(|_| ReplyData::ack());
        // First message hits the wire at t=0, inside the outage; the second
        // is serialized behind the gap and escapes it.
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        assert_eq!(cluster.inner.procs[1].rx.borrow().len(), 1);
        assert_eq!(cluster.stats().per_proc[0].drops, 1);
    }

    #[test]
    fn inert_plan_leaves_fault_state_untouched() {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.register_handler(|_| ReplyData::ack());
        cluster.inner.inject(&sim, short_msg(0, 1), SimDelta::ZERO);
        sim.run();
        assert_eq!(cluster.inner.procs[0].fault_nonce.get(), 0);
        let c0 = &cluster.stats().per_proc[0];
        assert_eq!(
            (c0.drops, c0.dups, c0.retransmits, c0.timeouts),
            (0, 0, 0, 0)
        );
    }
}
