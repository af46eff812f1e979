//! # nowlab-trace — per-message LogGP cost tracing
//!
//! The paper's entire method is attributing per-message time to the LogGP
//! components (`o`, `g`, `L`, `G`). The simulator's end-of-run counters
//! say *how much* communication happened; this crate says *where each
//! simulated microsecond went* inside every message:
//!
//! ```text
//! o_send → tx NIC wait → DMA occupancy → wire L → rx serialization
//!        → rx queue wait → o_recv → handler
//! ```
//!
//! Because the simulator is discrete-event, every boundary above is an
//! exact integer-nanosecond timestamp — attribution is *exact by
//! construction* (the seven component spans telescope to the message's
//! end-to-end time), not a sampling estimate.
//!
//! The layer is **zero-cost when disabled**: producers hold a
//! `OnceCell<Rc<dyn TraceSink>>` and skip event construction entirely when
//! no sink is installed. Recording must never schedule events or advance
//! virtual time, so a traced run is event-count- and result-identical to
//! an untraced run.
//!
//! [`TraceEvent`] is the *only* thing the simulated machine emits about
//! itself, so every report is a projection of the same measurement:
//!
//! * [`TraceRecorder`] — per message: assembles [`MsgRecord`] lifecycles
//!   (kept packed, in [`Records`]) and histogram metrics into a
//!   [`TraceReport`], which
//!   [`chrome::write_chrome_trace`] lays out as `about:tracing` /
//!   Perfetto JSON.
//! * `nowlab_metrics::MetricsRecorder` — per processor-nanosecond: the
//!   same stream folded into utilization timelines (it sits above this
//!   crate and implements [`TraceSink`] too).
//!
//! # Examples
//!
//! Feeding a recorder by hand (the AM layer does this for real runs):
//!
//! ```
//! use nowlab_sim::{SimDelta, SimTime};
//! use nowlab_trace::{Mark, RecvEvent, SendEvent, TraceEvent, TraceRecorder, TraceSink, VisibleEvent};
//!
//! let us = |x| SimTime::ZERO + SimDelta::from_micros(x);
//! let rec = TraceRecorder::new(true);
//! rec.record(&TraceEvent::Send(SendEvent {
//!     id: 1, src: 0, dst: 1, reply: false, kind: Mark::Write, bytes: 0,
//!     o_send: SimDelta::from_micros(1.8), inject: us(1.8), tx_start: us(1.8),
//!     wire_done: us(1.8), tx_free: us(7.6), arrival: us(6.8), in_flight: 1, timer_depth: 1,
//! }));
//! rec.record(&TraceEvent::Visible(VisibleEvent { id: 1, at: us(6.8), rx_depth: 1 }));
//! rec.record(&TraceEvent::Recv(RecvEvent { id: 1, proc: 1, o_recv: SimDelta::from_micros(4.0), done: us(10.8) }));
//! let report = rec.finish();
//! let m = report.records.get(0).unwrap();
//! assert!(m.completed());
//! assert_eq!(m.component_sum(), m.end_to_end()); // exact, always
//! assert_eq!(m.end_to_end(), SimDelta::from_micros(10.8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod cost;
mod records;

pub use cost::{CostClass, Projection, View, COARSE, CRITICAL_PATH, MESSAGE, PROCESSOR, SHARES};
pub use records::Records;

use std::cell::RefCell;
use std::fmt::Write as _;

use nowlab_sim::{SimDelta, SimTime};

/// How much tracing a run performs. `Copy` so run specifications that
/// embed it stay `Copy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No sink installed; the hot path pays a single pointer check.
    #[default]
    Off,
    /// Aggregate metrics only: completed lifecycles fold into totals and
    /// histograms immediately, keeping memory independent of run length.
    Summary,
    /// Keep every per-message [`MsgRecord`] (required for Chrome export
    /// and the per-message property tests).
    Full,
}

/// Semantic class of a message: the AM layer marks every request with one
/// (it re-exports this type as `nowlab_am::Mark`), and the instrumentation
/// uses it to reproduce the paper's Table 4 columns ("% reads", barrier
/// accounting, …) and as the Chrome-trace category.
///
/// A reply inherits the mark of its request, so "read requests **or
/// replies**" are both counted as read traffic, as in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mark {
    /// Remote read (request/response round trip the issuer waits on).
    Read,
    /// Remote write (pipelined store; ack returns asynchronously).
    Write,
    /// Atomic read-modify-write (fetch-add, compare-swap, lock ops).
    Rmw,
    /// Bulk data transfer (put/get payload).
    Bulk,
    /// Barrier/synchronization traffic.
    Barrier,
    /// Application-defined active message.
    User,
}

impl Mark {
    /// True for marks the paper counts as "read requests or replies".
    pub fn is_read(self) -> bool {
        matches!(self, Mark::Read)
    }

    /// Short lowercase label (Chrome-trace category).
    pub fn as_str(self) -> &'static str {
        match self {
            Mark::Read => "read",
            Mark::Write => "write",
            Mark::Rmw => "rmw",
            Mark::Bulk => "bulk",
            Mark::Barrier => "barrier",
            Mark::User => "user",
        }
    }
}

/// A message handed to the source NIC: all sender-side timestamps are
/// known the moment injection is computed, so one event carries them all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendEvent {
    /// Trace correlation id (unique per logical message within a run).
    /// Ids are dense from 1, as `ClusterInner::next_trace` draws them (0
    /// is a raw injection); see [`TraceSink`] for what a consumer may
    /// assume of them.
    pub id: u64,
    /// Source processor.
    pub src: usize,
    /// Destination processor.
    pub dst: usize,
    /// True for replies (which bypass flow control).
    pub reply: bool,
    /// Message category.
    pub kind: Mark,
    /// Payload wire bytes (0 for short messages).
    pub bytes: u32,
    /// Send overhead the host processor paid immediately before this
    /// injection (zero for timer-driven retransmissions, whose overhead
    /// is charged interrupt-style and reported via [`TraceEvent::Retransmit`]).
    pub o_send: SimDelta,
    /// Instant the message reached the NIC (end of `o_send`).
    pub inject: SimTime,
    /// Instant the transmit context picked it up (`≥ inject` when the NIC
    /// is still busy with a predecessor).
    pub tx_start: SimTime,
    /// Instant the last fragment left the NIC (equals `tx_start` for
    /// short messages; DMA occupancy for bulk).
    pub wire_done: SimTime,
    /// Instant the transmit context can inject again: it is busy over
    /// `[tx_start, tx_free)` (the gap for a short message, the fragment
    /// train's DMA and inter-fragment stalls for bulk).
    pub tx_free: SimTime,
    /// Scheduled arrival at the destination NIC (`wire_done + L`, plus
    /// fault-plan jitter if any).
    pub arrival: SimTime,
    /// Flow-control window occupancy at the source when this message was
    /// sent (requests in flight, including this one).
    pub in_flight: u32,
    /// Scheduler pending-timer depth at injection (an executor probe —
    /// how much future the event queue is holding).
    pub timer_depth: u32,
}

/// The message became visible in the destination's receive queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VisibleEvent {
    /// Trace correlation id.
    pub id: u64,
    /// Instant of visibility (after rx-NIC serialization).
    pub at: SimTime,
    /// Receive-queue depth right after this push (this message included).
    pub rx_depth: u32,
}

/// The destination processor finished paying `o_recv` for the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvEvent {
    /// Trace correlation id.
    pub id: u64,
    /// Processor that paid the overhead (the message's destination).
    pub proc: usize,
    /// Receive overhead just paid.
    pub o_recv: SimDelta,
    /// Instant the overhead finished (handler-eligible from here).
    pub done: SimTime,
}

/// What a processor is waiting *for* while it services the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked acquiring a send-window credit (flow-control back-pressure).
    Tx,
    /// Blocked on a condition or deadline (a receive stall).
    Rx,
}

/// A fixed-capacity ASCII phase label. Sixteen bytes inline (longer names
/// truncate, non-ASCII bytes drop) so [`TraceEvent`] stays `Copy` and event
/// construction allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PhaseLabel([u8; 16]);

impl PhaseLabel {
    /// Builds a label from a phase name.
    pub fn new(name: &str) -> Self {
        let mut bytes = [0u8; 16];
        let mut n = 0;
        for &b in name.as_bytes() {
            if n == bytes.len() {
                break;
            }
            if b.is_ascii() && b != 0 {
                bytes[n] = b;
                n += 1;
            }
        }
        PhaseLabel(bytes)
    }

    /// The label text (without padding).
    pub fn as_str(&self) -> &str {
        let len = self.0.iter().position(|&b| b == 0).unwrap_or(self.0.len());
        std::str::from_utf8(&self.0[..len]).unwrap_or("")
    }
}

impl std::fmt::Debug for PhaseLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseLabel({:?})", self.as_str())
    }
}

/// One observation from the message lifecycle. Producers construct events
/// only when a sink is installed; sinks must not mutate simulation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Sender-side injection with full NIC/wire timing.
    Send(SendEvent),
    /// Visibility in the destination receive queue.
    Visible(VisibleEvent),
    /// Receive overhead paid at the destination processor.
    Recv(RecvEvent),
    /// The request handler ran.
    Handler {
        /// Trace correlation id.
        id: u64,
        /// Instant the handler ran.
        at: SimTime,
    },
    /// The fault plan dropped this transmission attempt on the wire. It is
    /// reported *instead of* a [`TraceEvent::Send`] and carries the same
    /// record, because the sender paid the same overhead and NIC occupancy
    /// either way; `arrival` is where the attempt would have landed.
    Drop(SendEvent),
    /// The fault plan scheduled a duplicate delivery.
    DupDelivery {
        /// Trace correlation id.
        id: u64,
        /// Scheduled arrival of the duplicate.
        arrival: SimTime,
    },
    /// A retransmission timer fired and re-injected the message.
    Retransmit {
        /// Trace correlation id.
        id: u64,
        /// Attempt number now being transmitted (2 = first retry).
        attempt: u32,
        /// Interrupt-style send overhead charged for the retry.
        o_send: SimDelta,
        /// Instant the timer fired.
        at: SimTime,
    },
    /// A request→reply happens-before edge: the reply message was issued
    /// by the handler that served the request.
    Pair {
        /// Trace correlation id of the request message.
        request: u64,
        /// Trace correlation id of the reply message.
        reply: u64,
        /// Instant the reply was injected.
        at: SimTime,
    },
    /// A host compute segment the application charged between messages —
    /// the processor was busy with local work, not communication.
    Compute {
        /// Processor that computed.
        proc: usize,
        /// Instant the segment started.
        start: SimTime,
        /// Segment length.
        dur: SimDelta,
    },
    /// A deadline-bounded idle wait: the processor slept until `deadline`
    /// (servicing incoming messages along the way) and resumed at `exit`.
    Idle {
        /// Processor that waited.
        proc: usize,
        /// Instant the wait began.
        enter: SimTime,
        /// Virtual-time deadline of the wait.
        deadline: SimTime,
        /// Instant the wait ended (`≥ deadline`).
        exit: SimTime,
    },
    /// Participation in a synchronization wave: this processor completed a
    /// barrier or a collective operation.
    Wave {
        /// Participating processor.
        proc: usize,
        /// Instant the wave completed on this processor.
        at: SimTime,
    },
    /// A measured-region boundary: the statistics epoch was reset (`begin`)
    /// or frozen (`!begin`) on this processor.
    Region {
        /// Processor that issued the mark (the measuring root).
        proc: usize,
        /// True for region start (reset), false for region end (freeze).
        begin: bool,
        /// Instant of the mark.
        at: SimTime,
    },
    /// An application phase marker.
    Phase {
        /// Processor that entered the phase.
        proc: usize,
        /// Phase name (truncated to 16 ASCII bytes).
        label: PhaseLabel,
        /// Instant the phase began on this processor.
        at: SimTime,
    },
    /// The processor entered its outermost network wait (waits nest; only
    /// the outermost is reported). Emitted at entry, not at exit, so a
    /// consumer can attribute the time between the events it sees
    /// meanwhile to the wait.
    WaitEnter {
        /// Processor that began waiting.
        proc: usize,
        /// What it waits for.
        kind: WaitKind,
        /// Instant of entry.
        at: SimTime,
    },
    /// The processor left its outermost network wait.
    WaitExit {
        /// Processor that stopped waiting.
        proc: usize,
        /// Instant of exit.
        at: SimTime,
    },
    /// The receive NIC context accepted a delivery (duplicates included)
    /// and is held over `[from, to)`: one gap, preceded by `ΔL` on the
    /// slow-receive-path latency mode.
    NicRx {
        /// Destination processor.
        proc: usize,
        /// Instant the context took the message.
        from: SimTime,
        /// Instant the context is free again.
        to: SimTime,
    },
}

/// Receives lifecycle events from the simulation layers.
///
/// Contract: a sink is a pure observer. It must not schedule simulation
/// events, advance virtual time, or otherwise influence anything
/// simulation-visible — traced and untraced runs must be event-count- and
/// result-identical.
///
/// What a producer guarantees about message ids: they are dense from 1,
/// so a sink may index by them. Events of different ids may arrive in any
/// order within the range drawn so far, and an id may be drawn but never
/// sent (a hole). [`TraceRecorder`] relies on exactly that: an id more
/// than 65 536 beyond every id it has seen is not a message of this run,
/// and is counted in [`TraceSummary::orphan_events`] rather than sized
/// for.
pub trait TraceSink {
    /// Observes one lifecycle event.
    fn record(&self, ev: &TraceEvent);
}

/// One message's lifecycle: its identity and the eight instants it passed
/// through, integer nanoseconds all. Nothing derivable is stored — each of
/// the seven component spans is the difference of two adjacent instants,
///
/// ```text
/// send_begin ─o_send─ inject ─tx_wait─ tx_start ─dma─ wire_done ─wire─
///   arrival ─rx_hold─ visible ─rx_queue─ pop ─o_recv─ done
/// ```
///
/// so for a completed, non-[tangled](MsgRecord::tangled) record they
/// telescope to `done − send_begin` by construction. What is stored as it
/// is read is a public field; what is packed or derived is a method.
///
/// The same type is a lifecycle still open (in the recorder's slab, or
/// reported by [`TraceRecorder::finish`] with [`MsgRecord::completed`]
/// false): the receiver-side instants then sit collapsed on `arrival`, and
/// every span past `o_send` reads zero.
///
/// A kept record is stored packed, in [`Records`]; this is the view it
/// reads back as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// Trace correlation id.
    pub id: u64,
    /// Instant the sender started paying `o_send`.
    pub send_begin: SimTime,
    /// Instant the message reached the NIC.
    pub inject: SimTime,
    /// Instant the transmit context picked it up.
    pub tx_start: SimTime,
    /// Instant the last fragment left the NIC.
    pub wire_done: SimTime,
    /// Instant it arrived at the destination NIC.
    pub arrival: SimTime,
    /// Instant it became visible in the receive queue.
    pub visible: SimTime,
    /// Instant the destination processor popped it.
    pub pop: SimTime,
    /// Instant `o_recv` finished.
    pub done: SimTime,
    /// [`SimTime::MAX`] until the request handler ran.
    handler_at: SimTime,
    /// Zero until a pairing edge was observed (ids start at 1).
    pair: u64,
    /// Payload wire bytes.
    pub bytes: u32,
    /// Source processor.
    pub src: u16,
    /// Destination processor.
    pub dst: u16,
    /// Physical transmissions (1 = no retransmit).
    pub attempts: u16,
    /// Attempts the fault plan dropped on the wire.
    pub dropped_attempts: u16,
    /// Message category.
    pub kind: Mark,
    /// True for replies.
    pub reply: bool,
    /// [`COMPLETED`], [`TANGLED`], [`VISIBLE_SEEN`].
    flags: u8,
}

// The view a kept record reads back as, and the slab's open lifecycles.
// A kept record costs its 64-byte packed entry in `Records`, not this:
// 492 960 of those are the `observed` benchmark's record store.
const _: () = assert!(std::mem::size_of::<MsgRecord>() <= 104);

/// `o_recv` completed at the destination.
const COMPLETED: u8 = 1;
/// An instant of the closed lifecycle precedes its predecessor. Stored,
/// not derived: the verdict is taken once, at close, and an attempt count
/// bumped or a handler noted afterwards must not revisit it.
const TANGLED: u8 = 2;
/// The attempt in flight was seen in the receive queue (an open lifecycle
/// only; closing folds it into the verdict). Stored because `visible`
/// cannot say so itself: unseen, it holds `arrival`, which a delivery to
/// an idle receive context reports as well.
const VISIBLE_SEEN: u8 = 4;

/// The record every constructor starts from: no instant, no handler, no
/// pair, no attempt.
const BLANK: MsgRecord = MsgRecord {
    id: 0,
    send_begin: SimTime::ZERO,
    inject: SimTime::ZERO,
    tx_start: SimTime::ZERO,
    wire_done: SimTime::ZERO,
    arrival: SimTime::ZERO,
    visible: SimTime::ZERO,
    pop: SimTime::ZERO,
    done: SimTime::ZERO,
    handler_at: SimTime::MAX,
    pair: 0,
    bytes: 0,
    src: 0,
    dst: 0,
    attempts: 0,
    dropped_attempts: 0,
    kind: Mark::User,
    reply: false,
    flags: 0,
};

impl MsgRecord {
    /// A record assembled from its parts rather than from events — what a
    /// test or an importer of foreign traces holds. `at` is the eight
    /// instants in lifecycle order, `send_begin` to `done`; the record has
    /// one attempt, no handler and no pair, is a request (`reply` is a
    /// public field), and is taken at its word: never tangled.
    pub fn from_instants(
        id: u64,
        src: u16,
        dst: u16,
        kind: Mark,
        bytes: u32,
        at: [SimTime; 8],
        completed: bool,
    ) -> MsgRecord {
        let [send_begin, inject, tx_start, wire_done, arrival, visible, pop, done] = at;
        MsgRecord {
            id,
            send_begin,
            inject,
            tx_start,
            wire_done,
            arrival,
            visible,
            pop,
            done,
            bytes,
            src,
            dst,
            attempts: 1,
            kind,
            flags: if completed { COMPLETED } else { 0 },
            ..BLANK
        }
    }

    /// True once `o_recv` completed at the destination.
    pub fn completed(&self) -> bool {
        self.flags & COMPLETED != 0
    }

    /// True if fault-path races (a duplicate outrunning a retransmitted
    /// original) made one attribution span ambiguous; such spans read
    /// zero and the record is excluded from exactness claims.
    pub fn tangled(&self) -> bool {
        self.flags & TANGLED != 0
    }

    /// Instant the request handler ran, if it did.
    pub fn handler_at(&self) -> Option<SimTime> {
        (self.handler_at != SimTime::MAX).then_some(self.handler_at)
    }

    /// The other half of this message's request→reply pair, when one was
    /// observed: for a request, the id of the reply its handler issued;
    /// for a reply, the id of the request it answers.
    pub fn pair(&self) -> Option<u64> {
        (self.pair != 0).then_some(self.pair)
    }

    /// Send overhead (host processor, source): `inject − send_begin`.
    pub fn o_send(&self) -> SimDelta {
        self.inject.saturating_since(self.send_begin)
    }

    /// Wait for the transmit NIC context: `tx_start − inject`.
    pub fn tx_wait(&self) -> SimDelta {
        self.closed_span(self.tx_start, self.inject)
    }

    /// DMA occupancy of the fragment train (zero for short messages):
    /// `wire_done − tx_start`.
    pub fn dma(&self) -> SimDelta {
        self.closed_span(self.wire_done, self.tx_start)
    }

    /// Wire transit (`L`, plus fault jitter): `arrival − wire_done`.
    pub fn wire(&self) -> SimDelta {
        self.closed_span(self.arrival, self.wire_done)
    }

    /// Receive-NIC serialization before visibility: `visible − arrival`.
    pub fn rx_hold(&self) -> SimDelta {
        self.closed_span(self.visible, self.arrival)
    }

    /// Wait in the receive queue for the processor's poll: `pop − visible`.
    pub fn rx_queue(&self) -> SimDelta {
        self.closed_span(self.pop, self.visible)
    }

    /// Receive overhead (host processor, destination): `done − pop`.
    pub fn o_recv(&self) -> SimDelta {
        self.closed_span(self.done, self.pop)
    }

    /// A span past `o_send`: zero while the lifecycle is open (the
    /// attempt in flight may yet be superseded), and clamped to zero where
    /// a tangled record's instants run backwards.
    fn closed_span(&self, later: SimTime, earlier: SimTime) -> SimDelta {
        if self.completed() {
            later.saturating_since(earlier)
        } else {
            SimDelta::ZERO
        }
    }

    /// The seven component spans, in [`MESSAGE`] column order.
    pub fn spans(&self) -> [SimDelta; 7] {
        [
            self.o_send(),
            self.tx_wait(),
            self.dma(),
            self.wire(),
            self.rx_hold(),
            self.rx_queue(),
            self.o_recv(),
        ]
    }

    /// Sum of the seven component spans.
    pub fn component_sum(&self) -> SimDelta {
        self.spans().into_iter().sum()
    }

    /// End-to-end time: start of `o_send` to end of `o_recv`.
    pub fn end_to_end(&self) -> SimDelta {
        self.done.saturating_since(self.send_begin)
    }

    /// Opens the lifecycle of a message first seen as `e`, whose
    /// processor ids the caller has found below [`PROC_LIMIT`].
    fn open(e: &SendEvent) -> MsgRecord {
        let narrow = |proc| u16::try_from(proc).expect("processor id below PROC_LIMIT");
        let mut rec = MsgRecord {
            id: e.id,
            bytes: e.bytes,
            src: narrow(e.src),
            dst: narrow(e.dst),
            kind: e.kind,
            reply: e.reply,
            ..BLANK
        };
        rec.attempt(e);
        rec
    }

    /// Takes `e` as the attempt now in flight: the sender side as sent,
    /// the receiver side collapsed onto the arrival instant until seen.
    fn attempt(&mut self, e: &SendEvent) {
        self.attempts = self.attempts.saturating_add(1);
        self.send_begin =
            SimTime::from_nanos(e.inject.as_nanos().saturating_sub(e.o_send.as_nanos()));
        self.inject = e.inject;
        self.tx_start = e.tx_start;
        self.wire_done = e.wire_done;
        self.arrival = e.arrival;
        self.visible = e.arrival;
        self.pop = e.arrival;
        self.done = e.arrival;
        self.flags &= !VISIBLE_SEEN;
    }

    /// Closes the lifecycle. Fault-path races that put one instant before
    /// its predecessor, or a receive of an attempt never seen visible,
    /// mark the record tangled.
    fn close(&mut self, e: &RecvEvent) {
        self.pop = SimTime::from_nanos(e.done.as_nanos().saturating_sub(e.o_recv.as_nanos()));
        self.done = e.done;
        let seen = self.flags & VISIBLE_SEEN != 0;
        self.flags = COMPLETED;
        let chain = [
            self.inject,
            self.tx_start,
            self.wire_done,
            self.arrival,
            self.visible,
            self.pop,
        ];
        if !seen || chain.windows(2).any(|w| w[1] < w[0]) {
            self.flags |= TANGLED;
        }
    }
}

/// A power-of-two (log₂ nanosecond / log₂ count) histogram: cheap to
/// update, deterministic, and order-independent to merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

/// Bucket index for a value: 0 holds zero, bucket `i ≥ 1` holds
/// `[2^(i−1), 2^i)`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one observation.
    pub(crate) fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.total
    }

    /// Largest observation (exact).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the inclusive upper bound of the first bucket
    /// whose cumulative count reaches `q·total` (`0.0 < q ≤ 1.0`). Exact
    /// for the max, within 2× below it.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
            }
        }
        self.max
    }
}

/// A host compute segment ([`TraceEvent::Compute`]), as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComputeSeg {
    /// Processor that computed.
    pub proc: usize,
    /// Instant the segment started.
    pub start: SimTime,
    /// Segment length.
    pub dur: SimDelta,
}

/// A deadline-bounded idle wait ([`TraceEvent::Idle`]), as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleSeg {
    /// Processor that waited.
    pub proc: usize,
    /// Instant the wait began.
    pub enter: SimTime,
    /// Virtual-time deadline of the wait.
    pub deadline: SimTime,
    /// Instant the wait ended.
    pub exit: SimTime,
}

/// A measured-region boundary ([`TraceEvent::Region`]), as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionMark {
    /// Processor that issued the mark.
    pub proc: usize,
    /// True for region start (reset), false for region end (freeze).
    pub begin: bool,
    /// Instant of the mark.
    pub at: SimTime,
}

/// An application phase marker ([`TraceEvent::Phase`]), as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseMark {
    /// Processor that entered the phase.
    pub proc: usize,
    /// Phase name.
    pub label: PhaseLabel,
    /// Instant the phase began on this processor.
    pub at: SimTime,
}

/// Aggregate run metrics: plain data (`Clone + PartialEq + Send`), safe to
/// carry across the parallel-sweep boundary and compare bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Logical messages observed (first injections).
    pub msgs: u64,
    /// Messages whose `o_recv` completed.
    pub completed: u64,
    /// Wire drops (fault plan).
    pub drops: u64,
    /// Duplicate deliveries the fault plan scheduled.
    pub dup_deliveries: u64,
    /// Deliveries/receives observed after a record had already completed
    /// (duplicates and stale retransmissions doing redundant work).
    pub extra_deliveries: u64,
    /// Retransmission-timer firings that re-injected a message.
    pub retransmits: u64,
    /// Events that referenced no known record (raw injections, id 0), and
    /// sends whose id lies outside the dense range (see [`TraceSink`]).
    pub orphan_events: u64,
    /// Records whose attribution was clamped (see [`MsgRecord::tangled`]).
    pub tangled: u64,
    /// Request→reply pairing edges observed ([`TraceEvent::Pair`]).
    /// Accumulated identically in Summary and Full mode, so a consumer can
    /// tell a run recorded without per-record edges (`pairs > 0`, records
    /// empty) from a run that genuinely had none.
    pub pairs: u64,
    /// Send events for an already-completed lifecycle (stale
    /// retransmissions doing redundant work). Full mode also bumps the
    /// finished record's attempt count; Summary mode used to drop these on
    /// the evicted-record path — this counter keeps both modes honest.
    pub late_attempts: u64,
    /// Host compute segments observed ([`TraceEvent::Compute`]).
    pub compute_segs: u64,
    /// Total compute time across those segments.
    pub compute_total: SimDelta,
    /// Deadline-bounded idle waits observed ([`TraceEvent::Idle`]).
    pub idle_segs: u64,
    /// Total enter→exit idle time across those waits.
    pub idle_total: SimDelta,
    /// Synchronization-wave participations observed ([`TraceEvent::Wave`]).
    pub waves: u64,
    /// Application phase markers observed ([`TraceEvent::Phase`]).
    pub phase_marks: u64,
    /// Measured-region boundary marks observed ([`TraceEvent::Region`]).
    pub region_marks: u64,
    /// Whole-run sums of the seven component spans over completed
    /// messages, in [`MESSAGE`] column order.
    pub totals: [SimDelta; 7],
    /// Total end-to-end time over completed messages.
    pub e2e_total: SimDelta,
    /// Interrupt-style send overhead charged by retransmission timers
    /// (outside the per-message attribution).
    pub retransmit_o_total: SimDelta,
    /// Per-source gaps between consecutive injections, ns.
    pub interval_hist: Histogram,
    /// Receive-queue depth observed at each visibility.
    pub queue_hist: Histogram,
    /// Flow-control window occupancy observed at each send.
    pub occupancy_hist: Histogram,
    /// Scheduler pending-timer depth observed at each send.
    pub timer_hist: Histogram,
    /// Per-message end-to-end time, ns.
    pub e2e_hist: Histogram,
    /// Unique messages per (source row, destination column).
    pub matrix: Vec<Vec<u64>>,
}

impl TraceSummary {
    /// Shares of completed-message end-to-end time per [`SHARES`] group.
    pub fn shares(&self) -> [f64; 4] {
        SHARES.shares(
            &self.totals.map(SimDelta::as_nanos),
            self.e2e_total.as_nanos(),
        )
    }

    /// Human-readable report: component table, distribution quantiles, and
    /// the communication-balance shade matrix (shared with the AM layer's
    /// Figure-4 rendering).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: {} msgs, {} completed, {} drops, {} retransmits, {} dup deliveries",
            self.msgs, self.completed, self.drops, self.retransmits, self.dup_deliveries
        );
        let _ = writeln!(
            out,
            "  edges: {} req-reply pairs, {} compute segs, {} idle waits, {} waves",
            self.pairs, self.compute_segs, self.idle_segs, self.waves
        );
        let per_msg = |d: SimDelta| {
            if self.completed == 0 {
                0.0
            } else {
                d.as_micros_f64() / self.completed as f64
            }
        };
        let row = |out: &mut String, name: &str, d: SimDelta, total: SimDelta| {
            let pct = if total.is_zero() {
                0.0
            } else {
                100.0 * d.as_nanos() as f64 / total.as_nanos() as f64
            };
            let _ = writeln!(
                out,
                "  {name:<14} {:>14.3}us {:>6.1}% {:>10.3}us/msg",
                d.as_micros_f64(),
                pct,
                per_msg(d)
            );
        };
        let e2e = self.e2e_total;
        for (name, &d) in MESSAGE.labels().iter().zip(&self.totals) {
            row(&mut out, name, d, e2e);
        }
        row(&mut out, "end-to-end", e2e, e2e);
        let q = |h: &Histogram| {
            format!(
                "p50≤{} p99≤{} max={} (n={})",
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
                h.count()
            )
        };
        let _ = writeln!(out, "  send interval ns   {}", q(&self.interval_hist));
        let _ = writeln!(out, "  rx queue depth     {}", q(&self.queue_hist));
        let _ = writeln!(out, "  window occupancy   {}", q(&self.occupancy_hist));
        let _ = writeln!(out, "  timer queue depth  {}", q(&self.timer_hist));
        let _ = writeln!(out, "  e2e per message ns {}", q(&self.e2e_hist));
        if !self.matrix.is_empty() {
            let _ = writeln!(out, "message balance matrix (rows=src, cols=dst):");
            out.push_str(&render_shade_matrix(&self.matrix));
        }
        out
    }
}

/// A finished trace: the aggregate summary plus (in [`TraceMode::Full`])
/// every per-message record in injection order, and the happens-before
/// side channels (compute/idle segments, region and phase marks)
/// the DAG builder in `nowlab-predict` consumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Aggregate metrics.
    pub summary: TraceSummary,
    /// Per-message lifecycle records, ascending by id (empty in
    /// [`TraceMode::Summary`]).
    pub records: Records,
    /// Host compute segments, in emission order (Full mode only).
    pub computes: Vec<ComputeSeg>,
    /// Deadline-bounded idle waits, in emission order (Full mode only).
    pub idles: Vec<IdleSeg>,
    /// Measured-region boundaries, in emission order (Full mode only).
    pub regions: Vec<RegionMark>,
    /// Application phase markers, in emission order (Full mode only).
    pub phases: Vec<PhaseMark>,
}

/// Where the lifecycle of one trace id stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// No `Send` seen: a hole in the id sequence, or beyond it.
    Unseen,
    /// `Recv` closed it (Full mode keeps the record in `records` slot `id`).
    Closed,
    /// In flight; the record in progress sits at this slab position.
    Open(usize),
}

/// How far an id may run ahead of every id seen before it. Ids are drawn
/// densely, so a real run's gap is the handful of first attempts dropped
/// in a row; the bound is what keeps a corrupt id from sizing the index.
const MAX_ID_GAP: u64 = 1 << 16;

/// Processor ids run below this (the bound `nowlab-predict` enforces too).
const PROC_LIMIT: usize = u16::MAX as usize;

/// `index` codes: [`Slot::Unseen`], [`Slot::Closed`], then `OPEN_BASE + k`
/// for [`Slot::Open`]`(k)`.
const UNSEEN: u32 = 0;
const CLOSED: u32 = 1;
const OPEN_BASE: u32 = 2;

/// The recorder's lifecycle store. Trace ids are dense, so an id *is* an
/// index: `index[id]` says where the lifecycle stands in four bytes, open
/// lifecycles sit in a free-listed slab a few hundred entries long, and in
/// Full mode the closed record of id `i` is packed in `records` slot `i`.
/// Every lookup is one or two array reads; iteration is by ascending id,
/// so the store is as deterministic as the ordered maps it replaced.
#[derive(Default)]
struct RecorderState {
    index: Vec<u32>,
    open: Vec<MsgRecord>,
    free: Vec<u32>,
    records: Records,
    /// Last injection instant per source processor.
    last_send: Vec<Option<SimTime>>,
    computes: Vec<ComputeSeg>,
    idles: Vec<IdleSeg>,
    regions: Vec<RegionMark>,
    phases: Vec<PhaseMark>,
    summary: TraceSummary,
}

/// The element of a per-processor table, which grows to the largest
/// processor id seen.
fn per_proc<T: Clone + Default>(table: &mut Vec<T>, proc: usize) -> &mut T {
    if table.len() <= proc {
        table.resize(proc + 1, T::default());
    }
    &mut table[proc]
}

impl RecorderState {
    fn slot(&self, id: u64) -> Slot {
        let code = usize::try_from(id).ok().and_then(|i| self.index.get(i));
        match code {
            None | Some(&UNSEEN) => Slot::Unseen,
            Some(&CLOSED) => Slot::Closed,
            Some(&k) => Slot::Open((k - OPEN_BASE) as usize),
        }
    }

    /// Extends the index to cover `id`, unless it lies more than
    /// [`MAX_ID_GAP`] beyond every id seen so far.
    fn reach(&mut self, id: u64) -> bool {
        let len = self.index.len() as u64;
        if id >= len {
            if id - len >= MAX_ID_GAP {
                return false;
            }
            self.index.resize(id as usize + 1, UNSEEN);
        }
        true
    }

    /// Opens the lifecycle of `id` (which [`RecorderState::reach`]
    /// covers) in a free slab slot.
    fn open(&mut self, id: u64, rec: MsgRecord) {
        let k = match self.free.pop() {
            Some(k) => {
                self.open[k as usize] = rec;
                k
            }
            None => {
                self.open.push(rec);
                u32::try_from(self.open.len() - 1).expect("fewer than 2^32 messages in flight")
            }
        };
        self.index[id as usize] = OPEN_BASE + k;
    }

    /// Closes the open lifecycle of `id`, freeing its slab slot `k`.
    fn close(&mut self, id: u64, k: usize) {
        self.index[id as usize] = CLOSED;
        self.free.push(k as u32);
    }

    /// Notes a late edge on the record of `id` that can still take one:
    /// the one in progress, or, when closed records are `kept`, the closed
    /// one (packed again, which may move it to the side list).
    fn annotate(&mut self, id: u64, kept: bool, note: impl FnOnce(&mut MsgRecord)) {
        match self.slot(id) {
            Slot::Open(k) => note(&mut self.open[k]),
            Slot::Closed if kept => self.records.update(id as usize, note),
            _ => {}
        }
    }
}

/// The standard [`TraceSink`]: pairs lifecycle events into [`MsgRecord`]s
/// and aggregates a [`TraceSummary`]. Deterministic (every collection is
/// indexed by id or processor and read in ascending order; nothing hashes)
/// and purely observational.
pub struct TraceRecorder {
    keep_records: bool,
    state: RefCell<RecorderState>,
}

impl TraceRecorder {
    /// Creates a recorder. With `keep_records` the full per-message record
    /// set is retained ([`TraceMode::Full`]); without it, completed
    /// lifecycles fold into the summary and are evicted, so memory is four
    /// bytes per id seen plus the peak number of messages in flight.
    pub fn new(keep_records: bool) -> Self {
        TraceRecorder {
            keep_records,
            state: RefCell::new(RecorderState::default()),
        }
    }

    /// Hands over the report for everything observed so far — records,
    /// summary and side channels are moved, not copied — and leaves the
    /// recorder empty.
    pub fn finish(&self) -> TraceReport {
        let mut st = std::mem::take(&mut *self.state.borrow_mut());
        if self.keep_records {
            // Open lifecycles (in flight at the end of the run) are
            // reported too, as they stand, in their own slots.
            for id in 0..st.index.len() {
                if let Slot::Open(k) = st.slot(id as u64) {
                    let rec = st.open[k];
                    st.records.put(id, rec);
                }
            }
            // Slot `i` holds id `i`: dropping the unseen ones in place
            // leaves the rest ascending by id.
            let mut slots = st.index.iter();
            st.records.retain_slots(|| slots.next() != Some(&UNSEEN));
            // The report outlives the run (`predict` builds its DAG beside
            // it): hand over no spare growth capacity.
            st.records.shrink_to_fit();
        }
        TraceReport {
            summary: st.summary,
            records: st.records,
            computes: st.computes,
            idles: st.idles,
            regions: st.regions,
            phases: st.phases,
        }
    }
}

/// The largest processor id `ev` names, of the events the recorder acts on.
fn widest_proc(ev: &TraceEvent) -> usize {
    match *ev {
        TraceEvent::Send(ref e) | TraceEvent::Drop(ref e) => e.src.max(e.dst),
        TraceEvent::Recv(ref e) => e.proc,
        TraceEvent::Compute { proc, .. }
        | TraceEvent::Idle { proc, .. }
        | TraceEvent::Wave { proc, .. }
        | TraceEvent::Region { proc, .. }
        | TraceEvent::Phase { proc, .. } => proc,
        _ => 0,
    }
}

impl TraceSink for TraceRecorder {
    fn record(&self, ev: &TraceEvent) {
        let st = &mut *self.state.borrow_mut();
        // A record holds `u16` processor ids and the per-processor tables
        // grow to the largest seen: an id past the range is no processor
        // of this run, and must neither be truncated nor size a table.
        if widest_proc(ev) >= PROC_LIMIT {
            st.summary.orphan_events += 1;
            return;
        }
        match ev {
            TraceEvent::Send(e) => {
                if !st.reach(e.id) {
                    st.summary.orphan_events += 1;
                    return;
                }
                let last = per_proc(&mut st.last_send, e.src);
                if let Some(prev) = last.replace(e.inject) {
                    st.summary
                        .interval_hist
                        .record(e.inject.saturating_since(prev).as_nanos());
                }
                st.summary.occupancy_hist.record(u64::from(e.in_flight));
                st.summary.timer_hist.record(u64::from(e.timer_depth));
                match st.slot(e.id) {
                    // Retransmission of an open lifecycle: the attempt in
                    // flight is this one now.
                    Slot::Open(k) => st.open[k].attempt(e),
                    Slot::Closed => {
                        // A stale retransmission after completion. Summary
                        // mode evicted the record; the counter keeps the
                        // two modes' summaries equal.
                        st.summary.late_attempts += 1;
                        if self.keep_records {
                            st.records.update(e.id as usize, |rec| {
                                rec.attempts = rec.attempts.saturating_add(1);
                            });
                        }
                    }
                    Slot::Unseen => {
                        st.open(e.id, MsgRecord::open(e));
                        st.summary.msgs += 1;
                        let m = &mut st.summary.matrix;
                        let dim = e.src.max(e.dst) + 1;
                        if m.len() < dim {
                            // Rows and columns grow together, so the
                            // matrix stays square between messages.
                            m.resize(dim, Vec::new());
                            for row in m.iter_mut() {
                                row.resize(dim, 0);
                            }
                        }
                        m[e.src][e.dst] += 1;
                    }
                }
            }
            TraceEvent::Visible(e) => {
                st.summary.queue_hist.record(u64::from(e.rx_depth));
                match st.slot(e.id) {
                    Slot::Open(k) if st.open[k].flags & VISIBLE_SEEN == 0 => {
                        st.open[k].visible = e.at;
                        st.open[k].flags |= VISIBLE_SEEN;
                    }
                    Slot::Open(_) | Slot::Closed => st.summary.extra_deliveries += 1,
                    Slot::Unseen => st.summary.orphan_events += 1,
                }
            }
            TraceEvent::Recv(e) => match st.slot(e.id) {
                Slot::Open(k) => {
                    st.open[k].close(e);
                    let rec = st.open[k];
                    st.summary.completed += 1;
                    st.summary.tangled += u64::from(rec.tangled());
                    for (total, span) in st.summary.totals.iter_mut().zip(rec.spans()) {
                        *total += span;
                    }
                    let e2e = rec.end_to_end();
                    st.summary.e2e_total += e2e;
                    st.summary.e2e_hist.record(e2e.as_nanos());
                    st.close(e.id, k);
                    if self.keep_records {
                        st.records.put(e.id as usize, rec);
                    }
                }
                Slot::Closed => st.summary.extra_deliveries += 1,
                Slot::Unseen => st.summary.orphan_events += 1,
            },
            TraceEvent::Handler { id, at } => {
                st.annotate(*id, self.keep_records, |rec| {
                    if rec.handler_at == SimTime::MAX {
                        rec.handler_at = *at;
                    }
                });
            }
            TraceEvent::Drop(e) => {
                st.summary.drops += 1;
                // A dropped first attempt opens nothing, but it is an id
                // seen: the retry's `Send` must find it within reach.
                st.reach(e.id);
                if let Slot::Open(k) = st.slot(e.id) {
                    let rec = &mut st.open[k];
                    rec.dropped_attempts = rec.dropped_attempts.saturating_add(1);
                }
            }
            TraceEvent::DupDelivery { .. } => {
                st.summary.dup_deliveries += 1;
            }
            TraceEvent::Retransmit { o_send, .. } => {
                st.summary.retransmits += 1;
                st.summary.retransmit_o_total += *o_send;
            }
            TraceEvent::Pair { request, reply, .. } => {
                st.summary.pairs += 1;
                // The request has usually completed (its o_recv preceded
                // the handler that sent the reply); the reply was just
                // injected and is pending. Cover both sides anyway.
                for (id, other) in [(*request, *reply), (*reply, *request)] {
                    st.annotate(id, self.keep_records, |rec| {
                        if rec.pair == 0 {
                            rec.pair = other;
                        }
                    });
                }
            }
            TraceEvent::Compute { proc, start, dur } => {
                st.summary.compute_segs += 1;
                st.summary.compute_total += *dur;
                if self.keep_records {
                    st.computes.push(ComputeSeg {
                        proc: *proc,
                        start: *start,
                        dur: *dur,
                    });
                }
            }
            TraceEvent::Idle {
                proc,
                enter,
                deadline,
                exit,
            } => {
                st.summary.idle_segs += 1;
                st.summary.idle_total += exit.saturating_since(*enter);
                if self.keep_records {
                    st.idles.push(IdleSeg {
                        proc: *proc,
                        enter: *enter,
                        deadline: *deadline,
                        exit: *exit,
                    });
                }
            }
            TraceEvent::Wave { .. } => st.summary.waves += 1,
            TraceEvent::Region { proc, begin, at } => {
                st.summary.region_marks += 1;
                if self.keep_records {
                    st.regions.push(RegionMark {
                        proc: *proc,
                        begin: *begin,
                        at: *at,
                    });
                }
            }
            TraceEvent::Phase { proc, label, at } => {
                st.summary.phase_marks += 1;
                if self.keep_records {
                    st.phases.push(PhaseMark {
                        proc: *proc,
                        label: *label,
                        at: *at,
                    });
                }
            }
            // Processor-time and NIC-occupancy accounting: the metrics
            // recorder's half of the stream.
            TraceEvent::WaitEnter { .. }
            | TraceEvent::WaitExit { .. }
            | TraceEvent::NicRx { .. } => {}
        }
    }
}

/// Renders a count matrix as ASCII art, one character per cell, scaled
/// from `' '` (zero) to `'@'` (the matrix maximum). The single formatting
/// path behind both the AM layer's Figure-4 balance matrix and
/// [`TraceSummary::render`].
pub fn render_shade_matrix(rows: &[Vec<u64>]) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let max = rows.iter().flatten().copied().max().unwrap_or(0);
    let mut out = String::new();
    for row in rows {
        for &v in row {
            let idx = if max == 0 {
                0
            } else {
                ((v as f64 / max as f64) * (SHADES.len() - 1) as f64).round() as usize
            };
            out.push(SHADES[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: f64) -> SimTime {
        SimTime::ZERO + SimDelta::from_micros(x)
    }

    fn send(id: u64, src: usize, dst: usize, begin_us: f64) -> TraceEvent {
        TraceEvent::Send(attempt(id, src, dst, begin_us))
    }

    fn attempt(id: u64, src: usize, dst: usize, begin_us: f64) -> SendEvent {
        SendEvent {
            id,
            src,
            dst,
            reply: false,
            kind: Mark::Write,
            bytes: 0,
            o_send: SimDelta::from_micros(1.8),
            inject: us(begin_us + 1.8),
            tx_start: us(begin_us + 1.8),
            wire_done: us(begin_us + 1.8),
            tx_free: us(begin_us + 1.8),
            arrival: us(begin_us + 6.8),
            in_flight: 1,
            timer_depth: 1,
        }
    }

    fn complete(rec: &TraceRecorder, id: u64, begin_us: f64) {
        rec.record(&send(id, 0, 1, begin_us));
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id,
            at: us(begin_us + 6.8),
            rx_depth: 1,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(begin_us + 10.8),
        }));
    }

    #[test]
    fn lifecycle_components_sum_to_end_to_end() {
        let rec = TraceRecorder::new(true);
        complete(&rec, 1, 0.0);
        let rep = rec.finish();
        assert_eq!(rep.summary.msgs, 1);
        assert_eq!(rep.summary.completed, 1);
        let m = rep.records.get(0).unwrap();
        assert!(m.completed() && !m.tangled());
        assert_eq!(m.component_sum(), m.end_to_end());
        assert_eq!(m.end_to_end(), SimDelta::from_micros(10.8));
        assert_eq!(m.o_send(), SimDelta::from_micros(1.8));
        assert_eq!(m.wire(), SimDelta::from_micros(5.0));
        assert_eq!(m.o_recv(), SimDelta::from_micros(4.0));
        assert_eq!(
            m.tx_wait() + m.dma() + m.rx_hold() + m.rx_queue(),
            SimDelta::ZERO
        );
        assert_eq!(rep.summary.e2e_total, SimDelta::from_micros(10.8));
    }

    #[test]
    fn queue_and_nic_waits_are_attributed() {
        let rec = TraceRecorder::new(true);
        rec.record(&TraceEvent::Send(SendEvent {
            id: 7,
            src: 0,
            dst: 1,
            reply: false,
            kind: Mark::Read,
            bytes: 4096,
            o_send: SimDelta::from_micros(1.8),
            inject: us(1.8),
            tx_start: us(3.0),    // tx NIC busy 1.2us
            wire_done: us(110.0), // DMA 107us
            tx_free: us(110.0),
            arrival: us(115.0),
            in_flight: 3,
            timer_depth: 2,
        }));
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id: 7,
            at: us(118.0), // rx context held it 3us
            rx_depth: 2,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id: 7,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(130.0), // popped at 126, queued 8us
        }));
        let m = rec.finish().records.get(0).unwrap();
        assert_eq!(m.tx_wait(), SimDelta::from_micros(1.2));
        assert_eq!(m.dma(), SimDelta::from_micros(107.0));
        assert_eq!(m.wire(), SimDelta::from_micros(5.0));
        assert_eq!(m.rx_hold(), SimDelta::from_micros(3.0));
        assert_eq!(m.rx_queue(), SimDelta::from_micros(8.0));
        assert_eq!(m.component_sum(), m.end_to_end());
        assert_eq!(m.end_to_end(), SimDelta::from_micros(130.0));
    }

    #[test]
    fn summary_mode_evicts_but_matches_full_mode_summary() {
        let full = TraceRecorder::new(true);
        let slim = TraceRecorder::new(false);
        for id in 1..=100 {
            complete(&full, id, id as f64 * 20.0);
            complete(&slim, id, id as f64 * 20.0);
        }
        let a = full.finish();
        let b = slim.finish();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.records.len(), 100);
        assert!(b.records.is_empty());
    }

    #[test]
    fn summary_mode_memory_follows_messages_in_flight_not_messages_seen() {
        // 10 000 lifecycles, never more than three open at once.
        let rec = TraceRecorder::new(false);
        let recv = |id: u64| {
            rec.record(&TraceEvent::Recv(RecvEvent {
                id,
                proc: 1,
                o_recv: SimDelta::from_micros(4.0),
                done: us(id as f64 * 20.0 + 10.8),
            }));
        };
        let n = 10_000;
        for id in 1..=n {
            rec.record(&send(id, 0, 1, id as f64 * 20.0));
            if id > 2 {
                recv(id - 2);
            }
        }
        recv(n - 1);
        recv(n);
        {
            let st = rec.state.borrow();
            assert_eq!(st.open.len(), st.free.len(), "every slab slot is free");
            assert_eq!(st.open.len(), 3, "slab sized by the peak in flight");
            assert!(st.open.capacity() < 64 && st.free.capacity() < 64);
            assert!(st.records.is_empty(), "Summary mode keeps no records");
            assert_eq!(st.index.len() as u64, n + 1, "four bytes per id seen");
        }
        let rep = rec.finish();
        assert_eq!((rep.summary.msgs, rep.summary.completed), (n, n));
        assert!(rep.records.is_empty());
    }

    #[test]
    fn a_store_past_test_scale_is_reserved_as_one_mapping_and_handed_over_exact() {
        use records::{OWN_MAPPING, SMALL_STORE};
        // 64-byte entries: just over 32 MiB.
        assert_eq!(OWN_MAPPING, 524_289);
        let rec = TraceRecorder::new(true);
        let capacity = || rec.state.borrow().records.capacity();
        let mut n = 0;
        while capacity() <= SMALL_STORE {
            assert!(n <= SMALL_STORE as u64, "doubling has an end");
            n += 1;
            complete(&rec, n, n as f64 * 20.0);
        }
        // The step that would have left test scale went straight there.
        assert_eq!(capacity(), OWN_MAPPING);
        let rep = rec.finish();
        assert_eq!(rep.records.len() as u64, n);
        assert_eq!(rep.records.capacity(), rep.records.len());
    }

    #[test]
    fn an_id_outside_the_dense_range_is_an_orphan_not_an_allocation() {
        for keep in [false, true] {
            let rec = TraceRecorder::new(keep);
            complete(&rec, 1, 0.0);
            for id in [u64::MAX, 1 << 40, 2 + MAX_ID_GAP] {
                rec.record(&send(id, 0, 1, 50.0));
                rec.record(&TraceEvent::Drop(attempt(id, 0, 1, 50.0)));
                rec.record(&TraceEvent::Handler { id, at: us(60.0) });
                rec.record(&TraceEvent::Pair {
                    request: id,
                    reply: 1,
                    at: us(60.0),
                });
            }
            assert!(rec.state.borrow().index.len() <= 2, "index sized by value");
            let rep = rec.finish();
            assert_eq!(rep.summary.orphan_events, 3);
            assert_eq!(rep.summary.msgs, 1);
            assert_eq!(rep.summary.interval_hist.count(), 0, "otherwise ignored");
            assert_eq!(rep.records.len(), usize::from(keep));
        }
        // The last id within reach is a message like any other.
        let rec = TraceRecorder::new(true);
        complete(&rec, MAX_ID_GAP - 1, 0.0);
        let rep = rec.finish();
        assert_eq!(rep.summary.orphan_events, 0);
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records.get(0).unwrap().id, MAX_ID_GAP - 1);
    }

    #[test]
    fn a_processor_id_outside_the_record_range_is_an_orphan_not_an_allocation() {
        let at = us(50.0);
        for keep in [false, true] {
            let rec = TraceRecorder::new(keep);
            complete(&rec, 1, 0.0);
            let mut wide = 0;
            for proc in [PROC_LIMIT, 1 << 20, usize::MAX] {
                for ev in [
                    send(2, proc, 1, 50.0),
                    send(2, 0, proc, 50.0),
                    TraceEvent::Drop(attempt(2, proc, 1, 50.0)),
                    TraceEvent::Wave { proc, at },
                    TraceEvent::Compute {
                        proc,
                        start: at,
                        dur: SimDelta::from_micros(1.0),
                    },
                ] {
                    rec.record(&ev);
                    wide += 1;
                }
            }
            {
                let st = rec.state.borrow();
                assert!(st.last_send.len() <= 2);
                assert_eq!(st.summary.matrix.len(), 2, "tables sized by the run");
                assert_eq!(st.index.len(), 2, "the id was not taken either");
            }
            let rep = rec.finish();
            assert_eq!(rep.summary.orphan_events, wide);
            assert_eq!((rep.summary.msgs, rep.summary.drops), (1, 0));
            assert_eq!((rep.summary.waves, rep.summary.compute_segs), (0, 0));
            assert_eq!(rep.records.len(), usize::from(keep));
        }
        // The last id in range is a processor like any other (its row of
        // the matrix is not asked for here: 65 535 squared is 34 GB).
        let rec = TraceRecorder::new(true);
        rec.record(&TraceEvent::Wave {
            proc: PROC_LIMIT - 1,
            at,
        });
        let rep = rec.finish();
        assert_eq!((rep.summary.orphan_events, rep.summary.waves), (0, 1));
    }

    #[test]
    fn out_of_order_ids_and_holes_yield_ascending_records_without_placeholders() {
        let rec = TraceRecorder::new(true);
        // 3, 1, 2 arrive out of order; 4 was drawn but its only attempt
        // was dropped; 5 is still in flight at the end; 6 completes.
        complete(&rec, 3, 0.0);
        complete(&rec, 1, 20.0);
        complete(&rec, 2, 40.0);
        rec.record(&TraceEvent::Drop(attempt(4, 0, 1, 60.0)));
        rec.record(&send(5, 1, 0, 80.0));
        complete(&rec, 6, 100.0);
        let rep = rec.finish();
        let ids: Vec<u64> = rep.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 5, 6]);
        let done: Vec<bool> = rep.records.iter().map(|r| r.completed()).collect();
        assert_eq!(done, [true, true, true, false, true]);
        assert!(rep.records.iter().all(|r| r.attempts == 1));
        assert_eq!(rep.summary.msgs, 5);
        assert_eq!(rep.summary.drops, 1);
        // `finish` handed the store over: the recorder starts again empty.
        assert_eq!(rec.finish(), TraceReport::default());
    }

    #[test]
    fn retransmit_restarts_the_attempt_and_counts() {
        let rec = TraceRecorder::new(true);
        rec.record(&send(1, 0, 1, 0.0)); // original, dropped on the wire
        rec.record(&TraceEvent::Drop(attempt(1, 0, 1, 0.0)));
        rec.record(&TraceEvent::Retransmit {
            id: 1,
            attempt: 2,
            o_send: SimDelta::from_micros(1.8),
            at: us(500.0),
        });
        // Retry injected at the timer instant, o_send charged out of band.
        rec.record(&TraceEvent::Send(SendEvent {
            id: 1,
            src: 0,
            dst: 1,
            reply: false,
            kind: Mark::Write,
            bytes: 0,
            o_send: SimDelta::ZERO,
            inject: us(500.0),
            tx_start: us(500.0),
            wire_done: us(500.0),
            tx_free: us(500.0),
            arrival: us(505.0),
            in_flight: 1,
            timer_depth: 1,
        }));
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id: 1,
            at: us(505.0),
            rx_depth: 1,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id: 1,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(509.0),
        }));
        let rep = rec.finish();
        let m = rep.records.get(0).unwrap();
        assert_eq!(rep.summary.msgs, 1, "retransmit is not a new message");
        assert_eq!(m.attempts, 2);
        assert_eq!(m.dropped_attempts, 1);
        assert!(m.completed() && !m.tangled());
        // Attribution describes the successful attempt.
        assert_eq!(m.send_begin, us(500.0));
        assert_eq!(m.component_sum(), m.end_to_end());
        assert_eq!(rep.summary.retransmits, 1);
        assert_eq!(rep.summary.drops, 1);
        assert_eq!(rep.summary.retransmit_o_total, SimDelta::from_micros(1.8));
    }

    #[test]
    fn duplicate_delivery_after_completion_is_extra() {
        let rec = TraceRecorder::new(true);
        complete(&rec, 1, 0.0);
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id: 1,
            at: us(40.0),
            rx_depth: 1,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id: 1,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(44.0),
        }));
        let rep = rec.finish();
        assert_eq!(rep.summary.completed, 1);
        assert_eq!(rep.summary.extra_deliveries, 2);
        // The completed attribution is untouched.
        assert_eq!(rep.records.get(0).unwrap().done, us(10.8));
    }

    #[test]
    fn incomplete_messages_are_reported_open() {
        let rec = TraceRecorder::new(true);
        rec.record(&send(9, 1, 0, 0.0));
        let rep = rec.finish();
        assert_eq!(rep.summary.msgs, 1);
        assert_eq!(rep.summary.completed, 0);
        let m = rep.records.get(0).unwrap();
        assert!(!m.completed() && !m.tangled());
        // Sender side as sent, receiver side collapsed onto the arrival;
        // no span past `o_send` is claimed for an attempt still in flight.
        assert_eq!(
            (m.send_begin, m.inject, m.arrival),
            (us(0.0), us(1.8), us(6.8))
        );
        assert_eq!(
            (m.visible, m.pop, m.done),
            (m.arrival, m.arrival, m.arrival)
        );
        assert_eq!(m.o_send(), SimDelta::from_micros(1.8));
        assert_eq!(m.component_sum(), m.o_send());
        assert_eq!((m.handler_at(), m.pair()), (None, None));
    }

    #[test]
    fn a_receive_out_of_order_is_tangled_and_its_span_reads_zero() {
        let recv = |rec: &TraceRecorder, done_us: f64| {
            rec.record(&TraceEvent::Recv(RecvEvent {
                id: 1,
                proc: 1,
                o_recv: SimDelta::from_micros(4.0),
                done: us(done_us),
            }));
        };
        // Popped (by way of a duplicate) before the attempt in flight was
        // ever seen visible.
        let rec = TraceRecorder::new(true);
        rec.record(&send(1, 0, 1, 0.0));
        recv(&rec, 10.8);
        // Seen visible, but the retry's arrival lies after the pop.
        let late = TraceRecorder::new(true);
        late.record(&send(1, 0, 1, 0.0));
        late.record(&send(1, 0, 1, 100.0));
        late.record(&TraceEvent::Visible(VisibleEvent {
            id: 1,
            at: us(8.0),
            rx_depth: 1,
        }));
        recv(&late, 12.0);
        // The retry's pop precedes its `send_begin`: no offset holds it, so
        // the record is kept whole.
        for (rec, attempts, wide) in [(rec, 1, 0), (late, 2, 1)] {
            let rep = rec.finish();
            let m = rep.records.get(0).unwrap();
            assert!(m.completed() && m.tangled());
            assert_eq!(m.attempts, attempts);
            assert_eq!(rep.records.wide(), wide);
            assert!(wide == 0 || m.pop < m.send_begin);
            assert_eq!(rep.summary.tangled, 1);
            assert_eq!(
                rep.summary.totals.iter().copied().sum::<SimDelta>(),
                m.component_sum()
            );
        }
    }

    #[test]
    fn a_record_from_instants_equals_the_one_the_recorder_closed() {
        let rec = TraceRecorder::new(true);
        complete(&rec, 1, 0.0);
        rec.record(&send(2, 1, 0, 20.0));
        for m in rec.finish().records.iter() {
            let at = [
                m.send_begin,
                m.inject,
                m.tx_start,
                m.wire_done,
                m.arrival,
                m.visible,
                m.pop,
                m.done,
            ];
            let built =
                MsgRecord::from_instants(m.id, m.src, m.dst, m.kind, m.bytes, at, m.completed());
            assert_eq!(built, m);
        }
    }

    #[test]
    fn a_message_queued_through_a_long_pause_is_kept_whole() {
        // Seen at 6.8 us; its destination, paused, pops it 5 s later.
        let rec = TraceRecorder::new(true);
        rec.record(&send(1, 0, 1, 0.0));
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id: 1,
            at: us(6.8),
            rx_depth: 1,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id: 1,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(5e6),
        }));
        complete(&rec, 2, 10.0);
        let rep = rec.finish();
        assert_eq!((rep.records.len(), rep.records.wide()), (2, 1));
        let m = rep.records.get(0).unwrap();
        assert!(m.completed() && !m.tangled());
        assert_eq!(m.rx_queue(), SimDelta::from_nanos(4_999_989_200));
        assert_eq!(m.component_sum(), m.end_to_end());
        let kept: SimDelta = rep.records.iter().map(|r| r.component_sum()).sum();
        assert_eq!(rep.summary.totals.iter().copied().sum::<SimDelta>(), kept);
    }

    #[test]
    fn a_late_edge_that_overflows_an_offset_moves_the_record_whole() {
        let (late, far) = (us(5e6), 1u64 << 32);
        for edge in [
            TraceEvent::Handler { id: 1, at: late },
            TraceEvent::Pair {
                request: 1,
                reply: far,
                at: late,
            },
        ] {
            let rec = TraceRecorder::new(true);
            complete(&rec, 1, 0.0);
            complete(&rec, 2, 20.0);
            rec.record(&edge);
            // A later patch finds the record where the first one left it.
            rec.record(&send(1, 0, 1, 40.0));
            let rep = rec.finish();
            assert_eq!(rep.records.wide(), 1, "{edge:?}");
            let m = rep.records.get(0).unwrap();
            match edge {
                TraceEvent::Handler { .. } => assert_eq!(m.handler_at(), Some(late)),
                _ => assert_eq!(m.pair(), Some(far)),
            }
            assert_eq!(m.attempts, 2, "the stale retransmission is counted");
            assert_eq!(m.done, us(10.8));
            assert_eq!(rep.summary.late_attempts, 1);
            let fresh = TraceRecorder::new(true);
            complete(&fresh, 2, 20.0);
            assert_eq!(rep.records.get(1), fresh.finish().records.get(0));
        }
    }

    #[test]
    fn read_mark_classification() {
        assert!(Mark::Read.is_read());
        for m in [
            Mark::Write,
            Mark::Rmw,
            Mark::Bulk,
            Mark::Barrier,
            Mark::User,
        ] {
            assert!(!m.is_read());
        }
    }

    #[test]
    fn histograms_bucket_by_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.quantile(1.0), 2047);
        assert_eq!(h.quantile(0.1), 0);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn shade_matrix_renders_two_node_fixture() {
        // The satellite fixture: 2 nodes, each sending only to the other,
        // one link carrying 3x the traffic of the reverse link.
        let m = vec![vec![0, 300], vec![100, 0]];
        let s = render_shade_matrix(&m);
        assert_eq!(s, " @\n- \n");
        // All-zero matrices render blank, not NaN garbage.
        assert_eq!(render_shade_matrix(&[vec![0, 0]]), "  \n");
    }

    #[test]
    fn summary_render_mentions_all_components() {
        let rec = TraceRecorder::new(false);
        complete(&rec, 1, 0.0);
        complete(&rec, 2, 30.0);
        let text = rec.finish().summary.render();
        for part in [
            "o_send",
            "tx_wait",
            "dma",
            "wire",
            "rx_hold",
            "rx_queue",
            "o_recv",
            "end-to-end",
            "balance matrix",
        ] {
            assert!(text.contains(part), "missing {part} in:\n{text}");
        }
    }

    #[test]
    fn axis_shares_partition_end_to_end() {
        let rec = TraceRecorder::new(false);
        complete(&rec, 1, 0.0);
        let total: f64 = rec.finish().summary.shares().iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "shares must partition: {total}"
        );
    }
}
