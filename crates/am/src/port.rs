//! The processor side of the Active Message layer.
//!
//! An [`AmPort`] is held by the simulated process of one processor. All its
//! operations follow GAM's *polling* discipline: entering the communication
//! layer (to send, to wait, or to poll explicitly) first drains any
//! messages the NIC has made visible, charging `o_recv + Δo` for each and
//! running its handler (whose reply costs `o_send + Δo` like any send).
//! While a process computes, messages accumulate unserviced — exactly the
//! coupling that makes applications overhead-sensitive in the paper.

use std::fmt;
use std::future::Future;
use std::rc::Rc;

use nowlab_sim::{Sim, SimDelta, SimTime};
use nowlab_trace::{RecvEvent, TraceEvent, WaitKind};

use crate::cluster::{AmCluster, CachedReply, ClusterInner, PeerStatus, TxEntry};
use crate::message::{Dir, HandlerId, Mark, Msg, Payload, ProcId, ReqId};
use crate::params::NetConfig;

/// What a reply needs of the request it answers.
#[derive(Clone, Copy)]
struct ReplyTo {
    /// The requester.
    src: ProcId,
    req: ReqId,
    mark: Mark,
    /// The request's trace id.
    trace: u64,
}

impl ReplyTo {
    fn of(msg: &Msg) -> Self {
        ReplyTo {
            src: msg.src,
            req: msg.req,
            mark: msg.mark,
            trace: msg.trace,
        }
    }
}

/// A processor's handle onto the Active Message layer.
///
/// Obtained from [`crate::AmCluster::port`]; see the crate docs for a full
/// walk-through.
pub struct AmPort {
    inner: Rc<ClusterInner>,
    sim: Sim,
    proc: ProcId,
}

impl fmt::Debug for AmPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmPort").field("proc", &self.proc).finish()
    }
}

impl AmPort {
    pub(crate) fn new(inner: Rc<ClusterInner>, sim: Sim, proc: ProcId) -> Self {
        AmPort { inner, sim, proc }
    }

    /// The cluster this port belongs to.
    pub fn cluster(&self) -> AmCluster {
        let (inner, sim) = (Rc::clone(&self.inner), self.sim.clone());
        AmCluster { inner, sim }
    }

    /// This port's processor id.
    pub fn proc_id(&self) -> ProcId {
        self.proc
    }

    /// Number of processors in the cluster.
    pub fn num_procs(&self) -> usize {
        self.inner.procs.len()
    }

    /// The cluster's network configuration.
    pub fn config(&self) -> NetConfig {
        self.inner.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Parks this task while its processor is inside a crash window
    /// (fail-pause: execution freezes, memory survives). Awaited at every
    /// communication-layer and compute entry, so a crashed processor
    /// stops emitting, polling, and serving — exactly like a host whose
    /// NIC program died. Crash-stop nodes (no recovery) pend forever;
    /// crash-recovery nodes resume at the scheduled wake. Callers test
    /// `node_plan` first, so a healthy run pays one branch and builds no
    /// future.
    async fn crash_gate(&self) {
        loop {
            if !self.inner.cfg.node_faults.frozen(self.proc, self.sim.now()) {
                return;
            }
            self.inner.procs[self.proc]
                .crash_notify
                .notified(&self.sim)
                .await;
        }
    }

    /// True once this processor's failure detector has confirmed `peer`
    /// dead (never true for itself, nor without the reliability protocol,
    /// whose timers and detector are what confirm a death).
    pub fn peer_dead(&self, peer: ProcId) -> bool {
        self.inner.reliable
            && self.inner.procs[self.proc].peer_status.borrow()[peer] == PeerStatus::Dead
    }

    /// This processor's membership view: `alive[p]` is false exactly for
    /// the peers its failure detector has confirmed dead. The self entry
    /// is always true.
    pub fn peers_alive(&self) -> Vec<bool> {
        self.inner.procs[self.proc]
            .peer_status
            .borrow()
            .iter()
            .map(|s| *s != PeerStatus::Dead)
            .collect()
    }

    /// Number of processors this one still considers alive (including
    /// itself).
    pub fn alive_count(&self) -> usize {
        self.peers_alive().iter().filter(|&&a| a).count()
    }

    /// Spends `d` of processor time computing (the network is *not*
    /// serviced meanwhile). A straggler node's charge is scaled by its
    /// slowdown multiplier; a crashed node freezes here until recovery.
    pub async fn compute(&self, d: SimDelta) {
        if self.inner.node_plan {
            self.crash_gate().await;
        }
        let d = self.inner.scale(self.proc, d);
        let start = self.sim.now();
        self.sim.delay(d).await;
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Compute {
                proc: self.proc,
                start,
                dur: d,
            });
        }
    }

    /// Marks the crossing into application phase `name` (a pure
    /// observation with no simulation effect; observers see the name as a
    /// [`nowlab_trace::PhaseLabel`], i.e. its first 16 ASCII bytes).
    pub fn phase_marker(&self, name: &str) {
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Phase {
                proc: self.proc,
                label: nowlab_trace::PhaseLabel::new(name),
                at: self.sim.now(),
            });
        }
    }

    /// Marks a measured-region boundary (observation only; emitted by the
    /// Split-C layer when measurement starts/stops so the trace DAG knows
    /// which span the reported runtime covers).
    pub fn region_marker(&self, begin: bool) {
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Region {
                proc: self.proc,
                begin,
                at: self.sim.now(),
            });
        }
    }

    /// Runs `f` on this processor's user state.
    ///
    /// # Panics
    ///
    /// Panics if no state of type `T` was installed via
    /// [`crate::AmCluster::set_state`].
    pub fn with_state<T: 'static, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let ep = &self.inner.procs[self.proc];
        let mut guard = ep.user_state.borrow_mut();
        let any = guard
            .as_mut()
            .unwrap_or_else(|| panic!("proc {}: no user state installed", self.proc));
        let state = any
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("proc {}: user state has a different type", self.proc));
        f(state)
    }

    /// Records one completed barrier (instrumentation for Table 4).
    pub fn note_barrier(&self) {
        self.inner.procs[self.proc].counters.borrow_mut().barriers += 1;
        self.note_wave();
    }

    /// Records one completed collective operation of the given kind
    /// (instrumentation for the metrics report's per-collective counters;
    /// mirrors [`AmPort::note_barrier`]).
    pub fn note_coll(&self, kind: crate::CollKind) {
        {
            let mut c = self.inner.procs[self.proc].counters.borrow_mut();
            match kind {
                crate::CollKind::Broadcast => c.coll_bcasts += 1,
                crate::CollKind::Reduce => c.coll_reduces += 1,
                crate::CollKind::Allgather => c.coll_allgathers += 1,
                crate::CollKind::AllToAll => c.coll_alltoalls += 1,
            }
        }
        self.note_wave();
    }

    fn note_wave(&self) {
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Wave {
                proc: self.proc,
                at: self.sim.now(),
            });
        }
    }

    /// Services at most `max` visible messages (the bounded poll GAM's
    /// send path performs — an unbounded drain would let a steady inbound
    /// stream starve the sender and serialize pipelines).
    async fn poll_n(&self, max: usize) {
        for _ in 0..max {
            match self.inner.pop_rx(self.proc) {
                Some(slot) => self.process_incoming(slot).await,
                None => return,
            }
        }
    }

    /// Serves the message popped under arena token `slot`: charges
    /// `o_recv`, then completes a reply or runs a request's handler. The
    /// message is read where it lies in the arena and freed once served.
    async fn process_incoming(&self, slot: u32) {
        let reliable = self.inner.reliable;
        let o_recv = self.inner.scale(self.proc, self.inner.cfg.eff_o_recv());
        self.sim.delay(o_recv).await;
        self.inner.procs[self.proc].counters.borrow_mut().recvs += 1;
        let (src, dir, req, ack, trace) = self
            .inner
            .msg(slot, |m| (m.src, m.dir, m.req, m.ack, m.trace));
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Recv(RecvEvent {
                id: trace,
                proc: self.proc,
                o_recv,
                done: self.sim.now(),
            }));
        }
        if reliable {
            // Every message piggybacks the sender's cumulative receipt
            // watermark; apply it before anything else so stale
            // duplicate-suppression state is shed eagerly.
            self.inner.note_ack(self.proc, src, ack);
        }
        match dir {
            Dir::Reply => {
                let (args, payload) = self
                    .inner
                    .consume_msg(slot, |m| (m.args, std::mem::take(&mut m.payload)));
                let ep = &self.inner.procs[self.proc];
                if reliable {
                    // Only the first reply for a request completes it; the
                    // removal doubles as the duplicate filter, so a late
                    // network copy or a re-sent cached reply can neither
                    // double-credit the window nor underflow the posted
                    // count (the lossless path's "stray ack" hazard).
                    let first = ep.rel_tx.borrow_mut()[src].remove(&req).is_some();
                    if !first {
                        ep.counters.borrow_mut().dup_suppressed += 1;
                        return;
                    }
                }
                ep.credits.set(ep.credits.get() + 1);
                if !ep.replies.borrow_mut().fill(req, args, payload) {
                    debug_assert!(ep.pending_posts.get() > 0, "stray ack");
                    ep.pending_posts
                        .set(ep.pending_posts.get().saturating_sub(1));
                }
                // State changed; wake this endpoint's own waiters (the
                // list is shared by everything that waits on rx-driven
                // conditions).
                ep.rx_waiters.notify_all(&self.sim);
            }
            Dir::Request => {
                if !reliable {
                    let (to, reply) = self.inner.consume_msg(slot, |m| {
                        (ReplyTo::of(m), self.inner.run_handler(&self.sim, m))
                    });
                    let o_send = self.o_send();
                    self.sim.delay(o_send).await;
                    self.send_reply(to, reply.args, reply.payload, o_send);
                    return;
                }
                // FIFO restore: the lossless wire delivers per-source
                // in-order and the upper layers rely on it, so a request
                // that overtook a lost predecessor is held back until the
                // gap is retransmitted in. (Its `o_recv` is already
                // charged — the processor did examine it.)
                let msg = self.inner.take_msg(slot);
                let msg = {
                    let ep = &self.inner.procs[self.proc];
                    let mut rx = ep.rel_rx.borrow_mut();
                    let link = &mut rx[src];
                    if msg.seq > link.next_seq {
                        link.reorder.insert(msg.seq, msg);
                        return;
                    }
                    msg
                };
                self.serve_request(msg).await;
                // This arrival may have closed the gap: release held
                // successors in sequence order (no second `o_recv` — it
                // was paid when they first arrived).
                loop {
                    let next = {
                        let ep = &self.inner.procs[self.proc];
                        let mut rx = ep.rel_rx.borrow_mut();
                        let link = &mut rx[src];
                        let key = link.next_seq;
                        link.reorder.remove(&key)
                    };
                    match next {
                        Some(m) => self.serve_request(m).await,
                        None => break,
                    }
                }
            }
        }
    }

    /// Serves one in-order request under the reliability protocol:
    /// duplicate suppression, exactly-once handler execution, reply
    /// caching. The caller has already charged `o_recv` and established
    /// that `msg.seq <= next_seq` on the link.
    async fn serve_request(&self, msg: Msg) {
        enum Verdict {
            Fresh,
            Stale,
            Replay(CachedReply),
        }
        let verdict = {
            let ep = &self.inner.procs[self.proc];
            let mut rx = ep.rel_rx.borrow_mut();
            let link = &mut rx[msg.src];
            if msg.req < link.acked_below {
                // The sender already received our reply; this copy
                // wandered the network too long. Nothing to re-send.
                Verdict::Stale
            } else if let Some(cached) = link.reply_cache.get(&msg.req) {
                // Its handler ran: the reply is cached from the same
                // synchronous step (no await between), until acked.
                Verdict::Replay(cached.clone())
            } else {
                // First processing of this link's next sequence step.
                debug_assert_eq!(msg.seq, link.next_seq, "fresh request out of order");
                link.next_seq = msg.seq + 1;
                Verdict::Fresh
            }
        };
        match verdict {
            Verdict::Stale => {
                let ep = &self.inner.procs[self.proc];
                ep.counters.borrow_mut().dup_suppressed += 1;
                return;
            }
            Verdict::Replay(cached) => {
                // Duplicate of a request we already answered: the handler
                // must NOT run again (exactly-once semantics); re-send the
                // cached reply at full send cost.
                {
                    let ep = &self.inner.procs[self.proc];
                    let mut c = ep.counters.borrow_mut();
                    c.dup_suppressed += 1;
                    c.retransmits += 1;
                }
                let to = ReplyTo {
                    mark: cached.mark,
                    ..ReplyTo::of(&msg)
                };
                let o_send = self.o_send();
                self.sim.delay(o_send).await;
                self.send_reply(to, cached.args, cached.payload, o_send);
                return;
            }
            Verdict::Fresh => {}
        }
        let reply = self.inner.run_handler(&self.sim, &msg);
        {
            let ep = &self.inner.procs[self.proc];
            ep.rel_rx.borrow_mut()[msg.src].reply_cache.insert(
                msg.req,
                CachedReply {
                    args: reply.args,
                    payload: reply.payload.clone(),
                    mark: msg.mark,
                },
            );
        }
        let o_send = self.o_send();
        self.sim.delay(o_send).await;
        self.send_reply(ReplyTo::of(&msg), reply.args, reply.payload, o_send);
    }

    /// Injects the reply `to` a request once its send overhead `o_send`
    /// has been paid — the reply's `ack` carries this processor's own
    /// watermark on the reverse link, so acks flow even when only one
    /// side originates requests.
    fn send_reply(&self, to: ReplyTo, args: [u64; 4], payload: Payload, o_send: SimDelta) {
        let ack = if self.inner.reliable {
            self.inner.ack_watermark(self.proc, to.src)
        } else {
            0
        };
        // Hoist the id draw so the request→reply pairing edge can name the
        // reply before injection; the draw order (and so the id sequence)
        // is identical whether or not tracing is installed.
        let trace = self.inner.next_trace();
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Pair {
                request: to.trace,
                reply: trace,
                at: self.sim.now(),
            });
        }
        self.inner.inject(
            &self.sim,
            Msg {
                src: self.proc,
                dst: to.src,
                dir: Dir::Reply,
                req: to.req,
                ack,
                seq: 0,
                handler: 0,
                args,
                payload,
                mark: to.mark,
                trace,
            },
            o_send,
        );
    }

    /// Services the network until `cond()` holds.
    ///
    /// All blocking conditions in this layer (reply arrival, credit
    /// availability, quiescence, barrier release) are satisfied by incoming
    /// messages. The condition is re-checked after **every** serviced
    /// message — a steady inbound stream must not starve the waiter, or
    /// pipelines through intermediate processors serialize.
    pub async fn wait_until(&self, cond: impl Fn() -> bool) {
        self.wait_until_kind(cond, WaitKind::Rx).await
    }

    /// Opens a network wait of the given stall classification — credit
    /// acquisition is back-pressure ([`WaitKind::Tx`]), everything else a
    /// receive stall. Waits nest (a handler's reply may wait inside a
    /// wait); only the outermost is reported. Returns what
    /// [`AmPort::exit_wait`] needs.
    fn enter_wait(&self, kind: WaitKind) -> bool {
        let was_waiting = self.inner.procs[self.proc].in_wait.replace(true);
        if !was_waiting {
            if let Some(sink) = self.inner.trace.get() {
                sink.record(&TraceEvent::WaitEnter {
                    proc: self.proc,
                    kind,
                    at: self.sim.now(),
                });
            }
        }
        was_waiting
    }

    /// Closes the wait opened by [`AmPort::enter_wait`].
    fn exit_wait(&self, was_waiting: bool) {
        self.inner.procs[self.proc].in_wait.set(was_waiting);
        if !was_waiting {
            if let Some(sink) = self.inner.trace.get() {
                sink.record(&TraceEvent::WaitExit {
                    proc: self.proc,
                    at: self.sim.now(),
                });
            }
        }
    }

    /// [`AmPort::wait_until`] with an explicit stall classification.
    async fn wait_until_kind(&self, cond: impl Fn() -> bool, kind: WaitKind) {
        let wait = self.enter_wait(kind);
        loop {
            if self.inner.node_plan {
                self.crash_gate().await;
            }
            if cond() {
                break;
            }
            match self.inner.pop_rx(self.proc) {
                Some(slot) => self.process_incoming(slot).await,
                None => {
                    let ep = &self.inner.procs[self.proc];
                    ep.rx_waiters.notified(&self.sim).await;
                }
            }
        }
        self.exit_wait(wait);
    }

    /// Services the network until virtual time `deadline` — the processor
    /// is *idle* (e.g. waiting on a disk), so incoming messages are handled
    /// as they arrive, and the wait overlaps their overhead.
    pub async fn idle_until(&self, deadline: SimTime) {
        let enter = self.sim.now();
        let wait = self.enter_wait(WaitKind::Rx);
        loop {
            if self.inner.node_plan {
                self.crash_gate().await;
            }
            if self.sim.now() >= deadline {
                break;
            }
            match self.inner.pop_rx(self.proc) {
                Some(slot) => self.process_incoming(slot).await,
                None => {
                    let ep = &self.inner.procs[self.proc];
                    let _ = nowlab_sim::race(
                        ep.rx_waiters.notified(&self.sim),
                        self.sim.sleep_until(deadline),
                    )
                    .await;
                }
            }
        }
        self.exit_wait(wait);
        if let Some(sink) = self.inner.trace.get() {
            sink.record(&TraceEvent::Idle {
                proc: self.proc,
                enter,
                deadline,
                exit: self.sim.now(),
            });
        }
    }

    async fn acquire_credit(&self) {
        let ep = || &self.inner.procs[self.proc];
        if !self.inner.node_plan && ep().credits.get() > 0 {
            // What the wait below does when the credit is free and no
            // crash gate can close: a Tx wait that opens and closes at once.
            let wait = self.enter_wait(WaitKind::Tx);
            self.exit_wait(wait);
        } else {
            self.wait_until_kind(|| ep().credits.get() > 0, WaitKind::Tx)
                .await;
        }
        let e = ep();
        e.credits.set(e.credits.get() - 1);
    }

    /// This processor's send overhead (a straggler pays its multiple).
    fn o_send(&self) -> SimDelta {
        self.inner.scale(self.proc, self.inner.cfg.eff_o_send())
    }

    fn next_req(&self) -> ReqId {
        let ep = &self.inner.procs[self.proc];
        let id = ep.next_req.get();
        ep.next_req.set(id + 1);
        id
    }

    /// Sends a request and waits for its reply, servicing the network
    /// meanwhile. Returns the reply's argument words and payload.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn request(
        &self,
        dst: ProcId,
        handler: HandlerId,
        args: [u64; 4],
        payload: Payload,
        mark: Mark,
    ) -> impl Future<Output = ([u64; 4], Payload)> + '_ {
        self.send(dst, handler, args, payload, mark, true, |reply| reply)
    }

    /// Sends a request *without* waiting for its acknowledgement (a
    /// pipelined store / one-way active message). The ack is accounted
    /// against [`AmPort::quiesce`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn post(
        &self,
        dst: ProcId,
        handler: HandlerId,
        args: [u64; 4],
        payload: Payload,
        mark: Mark,
    ) -> impl Future<Output = ()> + '_ {
        self.send(dst, handler, args, payload, mark, false, drop)
    }

    /// The whole of [`AmPort::request`] (`await_reply`) and
    /// [`AmPort::post`], one future that holds the message's words once:
    /// passes the crash gate, polls, takes a credit and a request id,
    /// parks a reply slot on it (a request) or counts it against
    /// [`AmPort::quiesce`] (a post), pays the send overhead, injects, and
    /// for a request waits for the reply. Returns what `yields` makes of
    /// the reply; if the detector already confirmed `dst` dead, sends
    /// nothing and hands it the protocol's default reply.
    #[expect(
        clippy::too_many_arguments,
        reason = "the message's words are parameters of this one future, so it stores them once"
    )]
    async fn send<T>(
        &self,
        dst: ProcId,
        handler: HandlerId,
        args: [u64; 4],
        payload: Payload,
        mark: Mark,
        await_reply: bool,
        yields: impl FnOnce(([u64; 4], Payload)) -> T,
    ) -> T {
        assert!(dst < self.num_procs(), "no such processor {dst}");
        if self.inner.node_plan {
            self.crash_gate().await;
        }
        if self.peer_dead(dst) {
            // Fail fast: the request completes locally with the protocol's
            // default reply instead of burning 16 retransmissions
            // re-learning the death. It still costs the send overhead, so a
            // task that loops on the dead peer advances virtual time and a
            // limit can stop it.
            self.sim.delay(self.o_send()).await;
            return yields(([0; 4], Payload::None));
        }
        self.poll_n(4).await;
        self.acquire_credit().await;
        let req = self.next_req();
        let ep = &self.inner.procs[self.proc];
        let slot = if await_reply {
            Some(ep.replies.borrow_mut().park(req))
        } else {
            ep.pending_posts.set(ep.pending_posts.get() + 1);
            None
        };
        let o_send = self.o_send();
        self.sim.delay(o_send).await;
        let msg = Msg {
            src: self.proc,
            dst,
            dir: Dir::Request,
            req,
            ack: 0,
            seq: 0,
            handler,
            args,
            payload,
            mark,
            trace: self.inner.next_trace(),
        };
        self.send_request(msg, o_send);
        let Some(slot) = slot else {
            return yields(([0; 4], Payload::None));
        };
        self.wait_until(|| ep.replies.borrow().filled(slot)).await;
        yields(ep.replies.borrow_mut().take(slot))
    }

    /// Injects a fresh request whose send overhead `o_send` was just paid.
    /// Under the reliability protocol the message additionally carries the
    /// current ack watermark, is retained for retransmission until its
    /// reply arrives, and gets a timeout armed.
    fn send_request(&self, mut msg: Msg, o_send: SimDelta) {
        if self.inner.reliable {
            let (dst, req) = (msg.dst, msg.req);
            let ep = &self.inner.procs[self.proc];
            {
                // Stamp the per-link FIFO position; retransmissions reuse
                // the stored message and so keep the original stamp.
                let mut seqs = ep.tx_seq.borrow_mut();
                msg.seq = seqs[dst];
                seqs[dst] += 1;
            }
            ep.rel_tx.borrow_mut()[dst].insert(
                req,
                TxEntry {
                    msg: msg.clone(),
                    attempts: 1,
                },
            );
            msg.ack = self.inner.ack_watermark(self.proc, dst);
            self.inner.arm_retransmit(&self.sim, self.proc, dst, req, 1);
        }
        self.inner.inject(&self.sim, msg, o_send);
    }

    /// Waits until every [`AmPort::post`] issued by this processor has been
    /// acknowledged (Split-C's `sync()`).
    pub async fn quiesce(&self) {
        let ep = || &self.inner.procs[self.proc];
        self.wait_until(|| ep().pending_posts.get() == 0).await;
    }

    /// Outstanding unacknowledged posts (diagnostic).
    pub fn pending_posts(&self) -> u64 {
        self.inner.procs[self.proc].pending_posts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ReplyData;

    fn two_proc() -> (Sim, AmCluster, HandlerId) {
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
        cluster.set_state(0, Box::new(Vec::<u64>::new()));
        cluster.set_state(1, Box::new(Vec::<u64>::new()));
        let h = cluster.register_handler(|ctx| {
            let v = ctx.state.downcast_mut::<Vec<u64>>().unwrap();
            v.push(ctx.msg.args[0]);
            ReplyData::word(v.len() as u64)
        });
        (sim, cluster, h)
    }

    #[test]
    fn request_round_trip_time_matches_loggp() {
        let (sim, cluster, h) = two_proc();
        let port0 = cluster.port(0);
        let port1 = cluster.port(1);
        // Processor 1 must be polling to serve the request.
        sim.spawn(async move {
            port1.wait_until(|| false).await;
        });
        let done = sim.spawn(async move {
            let (args, _) = port0
                .request(1, h, [42, 0, 0, 0], Payload::None, Mark::Read)
                .await;
            (args[0], port0.now())
        });
        sim.run();
        let (count, t) = done.try_take().unwrap();
        assert_eq!(count, 1);
        // RTT = 2L + 2(o_send + o_recv) = 10 + 2*5.8 = 21.6 µs
        // (paper §2: request-response takes 2L + 4o with o the mean).
        assert!(
            (t.as_micros_f64() - 21.6).abs() < 0.01,
            "RTT was {} µs",
            t.as_micros_f64()
        );
    }

    #[test]
    fn posts_pipeline_and_quiesce_waits_for_acks() {
        let (sim, cluster, h) = two_proc();
        let port0 = cluster.port(0);
        let port1 = cluster.port(1);
        sim.spawn(async move { port1.wait_until(|| false).await });
        let done = sim.spawn(async move {
            for i in 0..4 {
                port0
                    .post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
            let after_posts = port0.now();
            port0.quiesce().await;
            (after_posts, port0.now(), port0.pending_posts())
        });
        sim.run();
        let (after_posts, after_sync, pending) = done.try_take().unwrap();
        assert_eq!(pending, 0);
        // Posting 4 messages costs ~4·o_send of processor time — far less
        // than 4 round trips.
        assert!(after_posts.as_micros_f64() < 4.0 * 5.8);
        assert!(after_sync > after_posts);
        // All four args were delivered in order.
        let delivered = cluster.port(1).with_state(|v: &mut Vec<u64>| v.clone());
        assert_eq!(delivered, vec![0, 1, 2, 3]);
    }

    #[test]
    fn window_limits_outstanding_requests() {
        let (sim, cluster, h) = two_proc();
        let cfgw = cluster.inner.cfg.window as u64;
        let port0 = cluster.port(0);
        let port1 = cluster.port(1);
        sim.spawn(async move { port1.wait_until(|| false).await });
        let probe = sim.spawn(async move {
            let mut max_outstanding = 0u64;
            for i in 0..(cfgw * 3) {
                port0
                    .post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
                max_outstanding = max_outstanding.max(port0.pending_posts());
            }
            port0.quiesce().await;
            max_outstanding
        });
        sim.run();
        let max_outstanding = probe.try_take().unwrap();
        assert!(
            max_outstanding <= cfgw,
            "outstanding {max_outstanding} exceeded window {cfgw}"
        );
    }

    #[test]
    fn handlers_run_while_blocked_in_a_request() {
        // Processor 0 blocks reading from 1; processor 2's writes to 0 are
        // still served (GAM services the network while waiting).
        let sim = Sim::new();
        let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 3);
        for p in 0..3 {
            cluster.set_state(p, Box::new(Vec::<u64>::new()));
        }
        let h = cluster.register_handler(|ctx| {
            let v = ctx.state.downcast_mut::<Vec<u64>>().unwrap();
            v.push(ctx.msg.args[0]);
            ReplyData::word(0)
        });
        let p0 = cluster.port(0);
        let p1 = cluster.port(1);
        let p2 = cluster.port(2);
        sim.spawn(async move { p1.wait_until(|| false).await });
        sim.spawn(async move {
            // Slow responder: p0 will be blocked for a while.
            p0.request(1, h, [0, 0, 0, 0], Payload::None, Mark::Read)
                .await;
            p0.wait_until(|| false).await;
        });
        let writer = sim.spawn(async move {
            for i in 0..5 {
                p2.post(0, h, [i + 100, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
            p2.quiesce().await;
            true
        });
        sim.run();
        assert_eq!(writer.try_take(), Some(true));
        let seen = cluster.port(0).with_state(|v: &mut Vec<u64>| v.clone());
        assert_eq!(seen, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn added_overhead_charges_both_sides() {
        let sim = Sim::new();
        let d_o = SimDelta::from_micros(50.0);
        let cfg = NetConfig::berkeley_now().with_knobs(crate::Knobs::with_overhead(d_o));
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        let h = cluster.register_handler(|_| ReplyData::ack());
        let p0 = cluster.port(0);
        let p1 = cluster.port(1);
        sim.spawn(async move { p1.wait_until(|| false).await });
        let done = sim.spawn(async move {
            p0.request(1, h, [0; 4], Payload::None, Mark::Read).await;
            p0.now()
        });
        sim.run();
        let rtt = done.try_take().unwrap().as_micros_f64();
        // RTT = 2L + 2(o_send+Δ + o_recv+Δ) = 10 + 2(51.8 + 54.0) = 221.6.
        assert!((rtt - 221.6).abs() < 0.01, "rtt={rtt}");
    }
}
