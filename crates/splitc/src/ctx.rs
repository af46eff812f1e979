//! The per-processor Split-C context: the API applications program against.

use std::fmt;

use nowlab_am::{AmPort, Mark, NetConfig, Payload};
use nowlab_coll::{
    ops as coll_ops, CollAccess, CollConfig, CollHandlers, CollState, ReduceAlgo, Selector,
};
use nowlab_sim::{SimDelta, SimTime};

use crate::layer::Prims;
use crate::memory::{GlobalPtr, MailMsg, MailboxId, Memory, RegionId};

/// A processor's view of the Split-C global address space.
///
/// Handed to the SPMD body by [`crate::SplitC::run`]. Remote operations are
/// Active Messages with LogGP costs; operations on the local processor are
/// free (as direct loads/stores are next to the cost of a message).
pub struct Ctx {
    port: AmPort,
    prims: Prims,
    coll: CollHandlers,
    coll_cfg: CollConfig,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("proc", &self.me()).finish()
    }
}

impl Ctx {
    pub(crate) fn new(
        port: AmPort,
        prims: Prims,
        coll: CollHandlers,
        coll_cfg: CollConfig,
    ) -> Self {
        Ctx {
            port,
            prims,
            coll,
            coll_cfg,
        }
    }

    /// This processor's id (0-based).
    pub fn me(&self) -> usize {
        self.port.proc_id()
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.port.num_procs()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.port.now()
    }

    /// The network configuration of this run.
    pub(crate) fn net_config(&self) -> NetConfig {
        self.port.config()
    }

    /// Number of processors not confirmed dead, self included.
    pub fn alive_count(&self) -> usize {
        self.port.alive_count()
    }

    /// Spends `d` of local compute time (the network is not serviced).
    pub async fn compute(&self, d: SimDelta) {
        self.port.compute(d).await;
    }

    /// Services the network until `cond()` holds.
    pub async fn wait_until(&self, cond: impl Fn() -> bool) {
        self.port.wait_until(cond).await;
    }

    /// Idles until virtual time `deadline` while servicing the network —
    /// models waiting on an overlapped device (disk DMA) rather than
    /// computing (compare [`Ctx::compute`], which does *not* poll).
    pub async fn idle_until(&self, deadline: SimTime) {
        self.port.idle_until(deadline).await;
    }

    /// Marks the start of a named application phase on this processor.
    /// Observers (trace and metrics alike) see the name as a
    /// `nowlab_trace::PhaseLabel` — its first 16 ASCII bytes — so two
    /// names that agree that far are one phase in every report. A no-op
    /// when nothing observes the run; never affects simulation state, so
    /// phase-marked runs stay deterministic.
    pub fn phase(&self, name: &str) {
        self.port.phase_marker(name);
    }

    /// Restarts the measured region: zeroes all communication counters and
    /// the stats clock. Call from **one** processor, between barriers.
    pub fn reset_measurement(&self) {
        self.port.cluster().reset_stats();
        self.port.region_marker(true);
    }

    /// Ends the measured region: freezes runtime and message statistics so
    /// later traffic (result verification) is not counted. Call from
    /// **one** processor, after a barrier.
    pub fn freeze_measurement(&self) {
        self.port.cluster().freeze_stats();
        self.port.region_marker(false);
    }

    // ------------------------------------------------------------------
    // Local memory
    // ------------------------------------------------------------------

    /// Runs `f` on this processor's [`Memory`].
    pub fn with_mem<R>(&self, f: impl FnOnce(&mut Memory) -> R) -> R {
        self.port.with_state(f)
    }

    /// Allocates a region of `words` locally. SPMD programs allocate in the
    /// same order everywhere, so the id is symmetric.
    pub fn alloc_region(&self, words: usize) -> RegionId {
        self.with_mem(|m| m.alloc_region(words))
    }

    /// Allocates a mailbox locally (symmetric by convention, like regions).
    pub fn alloc_mailbox(&self) -> MailboxId {
        self.with_mem(|m| m.alloc_mailbox())
    }

    /// Reads a word of local memory.
    pub fn load_local(&self, region: RegionId, offset: usize) -> u64 {
        self.with_mem(|m| m.load(region, offset))
    }

    /// Writes a word of local memory.
    pub(crate) fn store_local(&self, region: RegionId, offset: usize, value: u64) {
        self.with_mem(|m| m.store(region, offset, value));
    }

    // ------------------------------------------------------------------
    // Global address space operations
    // ------------------------------------------------------------------

    /// Blocking read of one word (request/response round trip for remote
    /// targets).
    pub async fn read(&self, gp: GlobalPtr) -> u64 {
        if gp.proc == self.me() {
            return self.load_local(gp.region, gp.offset);
        }
        let (args, _) = self
            .port
            .request(
                gp.proc,
                self.prims.read,
                [gp.region as u64, gp.offset as u64, 0, 0],
                Payload::None,
                Mark::Read,
            )
            .await;
        args[0]
    }

    /// Pipelined write of one word: returns once the message is injected;
    /// completion is observed by [`Ctx::sync`].
    pub async fn write(&self, gp: GlobalPtr, value: u64) {
        if gp.proc == self.me() {
            self.store_local(gp.region, gp.offset, value);
            return;
        }
        self.port
            .post(
                gp.proc,
                self.prims.write,
                [gp.region as u64, gp.offset as u64, value, 0],
                Payload::None,
                Mark::Write,
            )
            .await;
    }

    /// Atomic fetch-and-add at the owner; returns the previous value.
    pub async fn fetch_add(&self, gp: GlobalPtr, delta: u64) -> u64 {
        if gp.proc == self.me() {
            return self.with_mem(|m| m.fetch_add(gp.region, gp.offset, delta));
        }
        let (args, _) = self
            .port
            .request(
                gp.proc,
                self.prims.fadd,
                [gp.region as u64, gp.offset as u64, delta, 0],
                Payload::None,
                Mark::Rmw,
            )
            .await;
        args[0]
    }

    /// Atomic compare-and-swap at the owner; returns the previous value.
    pub async fn compare_swap(&self, gp: GlobalPtr, expected: u64, new: u64) -> u64 {
        if gp.proc == self.me() {
            return self.with_mem(|m| m.compare_swap(gp.region, gp.offset, expected, new));
        }
        let (args, _) = self
            .port
            .request(
                gp.proc,
                self.prims.cswap,
                [gp.region as u64, gp.offset as u64, expected, new],
                Payload::None,
                Mark::Rmw,
            )
            .await;
        args[0]
    }

    /// Bulk store of `words` at `gp` (one bulk message, pipelined; see
    /// [`Ctx::sync`]).
    pub async fn bulk_put(&self, gp: GlobalPtr, words: Vec<u64>) {
        if gp.proc == self.me() {
            self.with_mem(|m| {
                let dst = m.region_mut(gp.region);
                dst[gp.offset..gp.offset + words.len()].copy_from_slice(&words);
            });
            return;
        }
        self.port
            .post(
                gp.proc,
                self.prims.bulk_put,
                [gp.region as u64, gp.offset as u64, words.len() as u64, 0],
                Payload::from_words(words),
                Mark::Bulk,
            )
            .await;
    }

    /// Bulk *scatter* store: each word of `packed` encodes
    /// `(offset << 32) | value` and deposits `value` (≤ 32 bits) at
    /// `region[offset]` on `dst` — one bulk message carrying many
    /// non-contiguous stores (the bulk radix sort's distribution).
    pub async fn bulk_put_scatter(&self, dst: usize, region: RegionId, packed: Vec<u64>) {
        if dst == self.me() {
            self.with_mem(|m| {
                let r = m.region_mut(region);
                for &w in &packed {
                    r[(w >> 32) as usize] = w & 0xFFFF_FFFF;
                }
            });
            return;
        }
        self.port
            .post(
                dst,
                self.prims.bulk_scatter,
                [region as u64, packed.len() as u64, 0, 0],
                Payload::from_words(packed),
                Mark::Bulk,
            )
            .await;
    }

    /// Blocking bulk fetch of `words` starting at `gp`.
    pub async fn bulk_get(&self, gp: GlobalPtr, words: usize) -> Vec<u64> {
        if gp.proc == self.me() {
            return self.with_mem(|m| m.region(gp.region)[gp.offset..gp.offset + words].to_vec());
        }
        let (_, payload) = self
            .port
            .request(
                gp.proc,
                self.prims.bulk_get,
                [gp.region as u64, gp.offset as u64, words as u64, 0],
                Payload::None,
                Mark::Read,
            )
            .await;
        match payload.as_words() {
            Some(w) => w.to_vec(),
            // A request written off against a dead owner completes with
            // the protocol's default (empty) reply: degrade to zeros.
            None if self.port.peer_dead(gp.proc) => vec![0; words],
            None => panic!("bulk_get reply missing payload"),
        }
    }

    /// Waits until every pipelined write/post issued by this processor has
    /// been acknowledged (Split-C `sync()`).
    pub async fn sync(&self) {
        self.port.quiesce().await;
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Dissemination barrier over all processors (`⌈log₂P⌉` rounds of one
    /// message each).
    pub async fn barrier(&self) {
        let p = self.procs();
        let me = self.me();
        let generation = self.with_mem(|m| {
            m.barrier_gen += 1;
            m.barrier_gen
        });
        if p > 1 {
            let rounds = crate::memory::barrier_rounds(p);
            for r in 0..rounds {
                let partner = (me + (1 << r)) % p;
                // The dissemination pattern gives each round exactly one
                // incoming partner; a confirmed-dead partner will never
                // arrive, so waiting on it is waived (degraded barriers
                // synchronize the survivors among themselves).
                let from = (me + p - (1 << r) % p) % p;
                self.port
                    .post(
                        partner,
                        self.prims.barrier,
                        [r as u64, 0, 0, 0],
                        Payload::None,
                        Mark::Barrier,
                    )
                    .await;
                self.port
                    .wait_until(|| {
                        self.with_mem(|m| m.barrier_arrived[r]) >= generation
                            || self.port.peer_dead(from)
                    })
                    .await;
            }
        }
        self.port.note_barrier();
    }

    /// Global sum reduction: every processor contributes `value`, everyone
    /// receives the total. Always the flat gather-at-0 pattern the
    /// paper-era applications ran — fixed, not model-selected and not
    /// subject to `--coll-algo` (compare [`Ctx::coll_allreduce_sum`]).
    pub async fn allreduce_sum(&self, value: u64) -> u64 {
        coll_ops::allreduce_sum(self, ReduceAlgo::Flat, value).await
    }

    // ------------------------------------------------------------------
    // Model-selected collectives (nowlab-coll)
    // ------------------------------------------------------------------

    /// The variant selector for this run: the analytic LogGP model over
    /// this cluster's configuration, constrained by the run's
    /// [`CollConfig`] (`--coll-algo`).
    pub(crate) fn coll_selector(&self) -> Selector {
        Selector::new(self.net_config(), self.procs(), self.coll_cfg)
    }

    /// Model-selected broadcast of `words` from `root` (see
    /// [`nowlab_coll::ops::broadcast`]). `nwords` is the payload length in
    /// words, which every processor must know (non-roots pass an empty
    /// `words` but the selector needs the size to rank variants
    /// identically everywhere).
    pub async fn coll_broadcast(&self, root: usize, words: Vec<u64>, nwords: usize) -> Vec<u64> {
        let algo = self.coll_selector().broadcast(nwords as u64 * 8);
        coll_ops::broadcast(self, algo, root, &words).await
    }

    /// Model-selected global wrapping sum (see
    /// [`nowlab_coll::ops::allreduce_sum`]).
    pub async fn coll_allreduce_sum(&self, value: u64) -> u64 {
        let algo = self.coll_selector().reduce();
        coll_ops::allreduce_sum(self, algo, value).await
    }

    /// Model-selected allgather of this processor's `words` (see
    /// [`nowlab_coll::ops::allgather`]). Block sizes must be symmetric
    /// across processors, or the selectors disagree on the variant.
    pub async fn coll_allgather(&self, words: &[u64]) -> Vec<Vec<u64>> {
        let algo = self.coll_selector().allgather(words.len() as u64 * 8);
        coll_ops::allgather(self, algo, words).await
    }

    /// Model-selected personalized all-to-all (see
    /// [`nowlab_coll::ops::alltoall`]). `nominal_words` is the
    /// per-destination block size the selector ranks by; it must be the
    /// same value on every processor (actual block sizes may vary).
    pub async fn coll_alltoall(&self, blocks: &[Vec<u64>], nominal_words: usize) -> Vec<Vec<u64>> {
        let algo = self.coll_selector().alltoall(nominal_words as u64 * 8);
        coll_ops::alltoall(self, algo, blocks).await
    }

    // ------------------------------------------------------------------
    // Locks (Barnes-style blocking locks with retry)
    // ------------------------------------------------------------------

    /// Acquires a spin lock at `gp` (word must be 0 when free) with a
    /// fixed `LOCK_RETRY` backoff. Returns the number of attempts — the
    /// paper's Barnes instrumentation counts failed acquisitions to
    /// diagnose livelock, and under contention this naive spin exhibits
    /// exactly that retry explosion.
    pub async fn lock(&self, gp: GlobalPtr) -> u64 {
        /// Fixed retry period of the naive spin lock (`max == initial`
        /// disables the exponential growth).
        const LOCK_RETRY: SimDelta = SimDelta::from_micros_int(1);
        self.lock_with_backoff(gp, LOCK_RETRY, LOCK_RETRY).await
    }

    /// Acquires a spin lock with exponential backoff: the retry delay
    /// starts at `initial` and doubles up to `max` (set `max == initial`
    /// for the naive fixed-backoff spin). Returns the number of attempts.
    pub async fn lock_with_backoff(&self, gp: GlobalPtr, initial: SimDelta, max: SimDelta) -> u64 {
        let mut attempts = 0u64;
        let mut backoff = initial;
        loop {
            attempts += 1;
            let old = self.compare_swap(gp, 0, 1).await;
            if old == 0 {
                return attempts;
            }
            // Back off while *polling*: a spinning processor still
            // services the network (GAM discipline). The backoff is
            // jittered deterministically per (processor, attempt):
            // identical spinners otherwise phase-lock into a convoy — a
            // limit cycle in which the holder's own messages queue behind
            // the same retries forever (deterministic simulation has none
            // of the clock skew that breaks such convoys in hardware).
            let jitter = {
                let mut h = (self.me() as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(attempts.wrapping_mul(0xD1B5_4A32_D192_ED03));
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 29;
                SimDelta::from_nanos(h % backoff.as_nanos().max(1))
            };
            self.idle_until(self.now() + backoff + jitter).await;
            backoff = (backoff * 2).min(max);
        }
    }

    /// Releases a lock taken by [`Ctx::lock`].
    pub async fn unlock(&self, gp: GlobalPtr) {
        self.write(gp, 0).await;
    }

    // ------------------------------------------------------------------
    // User active messages and mailboxes
    // ------------------------------------------------------------------

    /// One-way user active message delivering `(args, payload)` into
    /// mailbox `mb` at `dst` (acknowledged at the transport level).
    pub async fn send_mail(&self, dst: usize, mb: MailboxId, args: [u64; 3], payload: Payload) {
        if dst == self.me() {
            let me = self.me();
            self.with_mem(|m| {
                m.push_mail(
                    mb,
                    MailMsg {
                        src: me,
                        args,
                        payload,
                    },
                )
            });
            return;
        }
        self.port
            .post(
                dst,
                self.prims.enqueue,
                [mb as u64, args[0], args[1], args[2]],
                payload,
                Mark::User,
            )
            .await;
    }

    /// Pops the oldest message from a local mailbox.
    pub fn try_recv_mail(&self, mb: MailboxId) -> Option<MailMsg> {
        self.with_mem(|m| m.pop_mail(mb))
    }

    /// Number of messages waiting in a local mailbox.
    pub fn mail_len(&self, mb: MailboxId) -> usize {
        self.with_mem(|m| m.mail_len(mb))
    }
}

impl CollAccess for Ctx {
    fn port(&self) -> &AmPort {
        &self.port
    }

    fn handlers(&self) -> CollHandlers {
        self.coll
    }

    fn with_coll<R>(&self, f: impl FnOnce(&mut CollState) -> R) -> R {
        self.port.with_state(|m: &mut Memory| f(&mut m.coll))
    }
}
