//! Simulated-time metrics registry for the nowlab cluster laboratory.
//!
//! Where `nowlab-trace` attributes cost *per message*, this crate
//! aggregates *per processor-nanosecond*: every instant of every
//! processor's virtual time is attributed to exactly one of the seven
//! classes of the [`PROCESSOR`] view (compute, baseline send and receive
//! overhead, the Δo busy-loop, send-credit wait, receive stall, other),
//! bucketed into fixed simulated-time windows
//! and segmented by application phase markers. The accounting is
//! *conserving by construction*: a per-processor cursor walks virtual
//! time monotonically and every `[from, to)` span is deposited exactly
//! once, so the components of each window sum exactly to the window
//! length (the aggregate twin of the trace crate's telescoping
//! invariant).
//!
//! The crate has no hooks of its own. The AM layer emits one stream of
//! `nowlab_trace::TraceEvent`s into one observer cell, and
//! [`MetricsRecorder`] is a second consumer of that stream beside the
//! trace recorder — the same measurement projected per processor instead
//! of per message, so the two reports cannot disagree about what a
//! processor paid. With no observer installed the hot path pays one
//! pointer check; with one, events piggyback on state transitions the
//! simulation already performs and schedule nothing, so enabling metrics
//! cannot perturb virtual time, event counts, or any simulation result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;

use nowlab_sim::{SimDelta, SimTime};
use nowlab_trace::{CostClass, SendEvent, TraceEvent, TraceSink, WaitKind, PROCESSOR};

pub mod json;
mod render;
mod report;

pub use render::{render_parsed, render_report};
pub use report::{
    write_sweep_json, CollSummary, DetectorSummary, MetricsReport, MetricsSummary, PhaseSlice,
    ProcSeries, RunMeta, SweepPointMeta, WireBusy,
};

/// Whether the metrics registry records anything for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// No recording; the simulation pays one pointer check per hook.
    #[default]
    Off,
    /// Record utilization timelines, phase tables, and AM counters.
    On,
}

/// Nanoseconds per class of the [`PROCESSOR`] view, in its column order.
pub type StateNs = [u64; PROCESSOR.classes().len()];

/// Default sampling window: 100 µs of simulated time (the suite's
/// test-scale runs last a few ms; benchmark runs hundreds).
pub const DEFAULT_WINDOW: SimDelta = SimDelta::from_micros_int(100);

/// Name attributed to time before the first explicit phase marker.
pub(crate) const INIT_PHASE: &str = "init";

#[derive(Clone, Default)]
struct ProcRec {
    /// Virtual nanosecond up to which this processor is fully attributed.
    cursor: u64,
    /// The outermost wait the processor is currently inside, if any.
    waiting: Option<WaitKind>,
    /// Interned id of the current application phase.
    phase: usize,
    totals: StateNs,
    timeline: Vec<StateNs>,
    nic_tx: Vec<u64>,
    nic_rx: Vec<u64>,
    nic_tx_total: u64,
    nic_rx_total: u64,
}

struct RecState {
    window: u64,
    /// The machine's baseline overheads: what splits an overhead span
    /// into its base part and the Δo busy-loop (or a straggler's excess).
    base_o_send: SimDelta,
    base_o_recv: SimDelta,
    procs: Vec<ProcRec>,
    /// Busy nanoseconds of the directed link `src → dst`, at
    /// `src * wire_dim + dst`: a dense square table, one add per send.
    wire: Vec<u64>,
    wire_dim: usize,
    phase_names: Vec<String>,
    phase_ids: BTreeMap<String, usize>,
    /// Per phase, per class, nanoseconds summed over all processors.
    phase_totals: Vec<StateNs>,
    retransmits: u64,
    depth_max: u64,
    depth_sum: u128,
    depth_n: u64,
}

/// A [`TraceSink`] that projects the event stream onto processor time:
/// cursor-based exact attribution into fixed simulated-time windows.
///
/// Per processor, a cursor tracks the last attributed nanosecond. Leaf
/// busy spans (compute segments, the overhead a send or receive event
/// reports) first flush the gap `[cursor, from)` to the *background*
/// class — the kind of the enclosing wait if the processor is between a
/// `WaitEnter` and its `WaitExit`, otherwise [`CostClass::Other`] — then
/// deposit the span itself. Because every nanosecond is deposited
/// exactly once, each window's components sum exactly to the window
/// length (exact `u64` arithmetic, no float accumulation).
pub struct MetricsRecorder {
    state: RefCell<RecState>,
}

/// Splits `[from, to)` across fixed windows, adding each chunk to
/// `bump(window_index, chunk_ns)`.
fn deposit(window: u64, mut from: u64, to: u64, mut bump: impl FnMut(usize, u64)) {
    while from < to {
        let w = from / window;
        let wend = (w + 1) * window;
        let chunk = to.min(wend) - from;
        bump(w as usize, chunk);
        from += chunk;
    }
}

impl RecState {
    fn account(&mut self, proc: usize, class: CostClass, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let s = PROCESSOR.column(class);
        let phase = self.procs[proc].phase;
        self.phase_totals[phase][s] += to - from;
        let p = &mut self.procs[proc];
        p.totals[s] += to - from;
        let timeline = &mut p.timeline;
        deposit(self.window, from, to, |w, chunk| {
            if timeline.len() <= w {
                timeline.resize(w + 1, StateNs::default());
            }
            timeline[w][s] += chunk;
        });
    }

    /// Flushes `[cursor, to)` to the background class and advances the
    /// cursor.
    fn advance(&mut self, proc: usize, to: u64) {
        let p = &self.procs[proc];
        let (cursor, waiting) = (p.cursor, p.waiting);
        if to > cursor {
            let bg = match waiting {
                Some(WaitKind::Tx) => CostClass::CreditWait,
                Some(WaitKind::Rx) => CostClass::RxStall,
                None => CostClass::Other,
            };
            self.account(proc, bg, cursor, to);
            self.procs[proc].cursor = to;
        }
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.phase_ids.get(name) {
            return id;
        }
        let id = self.phase_names.len();
        self.phase_names.push(name.to_string());
        self.phase_ids.insert(name.to_string(), id);
        self.phase_totals.push(StateNs::default());
        id
    }

    /// Deposits the leaf span `[from, to)` of `class`. Events arrive at
    /// the *end* of the span they describe and never overlap per
    /// processor.
    fn busy(&mut self, proc: usize, class: CostClass, from: u64, to: u64) {
        debug_assert!(
            from >= self.procs[proc].cursor,
            "overlapping busy span for proc {proc}: [{from}, {to}) vs cursor {}",
            self.procs[proc].cursor
        );
        self.advance(proc, from);
        // Release-mode safety: never let a malformed span rewind the
        // cursor (attribution stays conserving, the span is truncated).
        let from = from.max(self.procs[proc].cursor);
        self.account(proc, class, from, to);
        let p = &mut self.procs[proc];
        p.cursor = p.cursor.max(to);
    }

    /// Deposits the overhead span `[end − paid, end)`, split into the
    /// machine's baseline component (`base_class`) and the Δo busy-loop the
    /// overhead knob adds (paper §3). Nothing paid means charged out of
    /// band (a timer-driven retransmission, counted but not timed: it
    /// overlaps whatever the processor was doing, so it cannot be a span
    /// in the conserving timeline).
    fn overhead(&mut self, proc: usize, base_class: CostClass, paid: SimDelta, end: SimTime) {
        if paid.is_zero() {
            return;
        }
        let base = match base_class {
            CostClass::OSendBase => self.base_o_send,
            _ => self.base_o_recv,
        };
        let end = end.as_nanos();
        let start = end.saturating_sub(paid.as_nanos());
        let split = start + base.min(paid).as_nanos();
        self.busy(proc, base_class, start, split);
        self.busy(proc, CostClass::DeltaO, split, end);
    }

    /// Flushes up to `at` under the current wait kind and phase, then
    /// lets `change` switch either.
    fn mark(&mut self, proc: usize, at: SimTime, change: impl FnOnce(&mut ProcRec)) {
        self.advance(proc, at.as_nanos());
        change(&mut self.procs[proc]);
    }

    /// One NIC context of `proc` (`tx` or the receive side) was occupied
    /// over `[from, to)`.
    fn nic(&mut self, proc: usize, tx: bool, from: SimTime, to: SimTime) {
        let p = &mut self.procs[proc];
        let (total, tl) = match tx {
            true => (&mut p.nic_tx_total, &mut p.nic_tx),
            false => (&mut p.nic_rx_total, &mut p.nic_rx),
        };
        *total += to.saturating_since(from).as_nanos();
        deposit(self.window, from.as_nanos(), to.as_nanos(), |w, chunk| {
            if tl.len() <= w {
                tl.resize(w + 1, 0);
            }
            tl[w] += chunk;
        });
    }

    /// The wire table's cell for `src → dst`. The table is sized for the
    /// machine up front; an endpoint beyond it re-lays the table out once.
    fn link(&mut self, src: usize, dst: usize) -> &mut u64 {
        let dim = src.max(dst) + 1;
        if dim > self.wire_dim {
            let mut grown = vec![0; dim * dim];
            for (at, &busy_ns) in self.wire.iter().enumerate() {
                grown[at / self.wire_dim * dim + at % self.wire_dim] = busy_ns;
            }
            self.wire = grown;
            self.wire_dim = dim;
        }
        &mut self.wire[src * self.wire_dim + dst]
    }

    /// What a transmission attempt costs its sender, delivered or
    /// dropped: the overhead just paid, the send context's occupancy, and
    /// one sample of the flow-control window.
    fn attempt(&mut self, e: &SendEvent) {
        self.overhead(e.src, CostClass::OSendBase, e.o_send, e.inject);
        self.nic(e.src, true, e.tx_start, e.tx_free);
        self.depth_max = self.depth_max.max(u64::from(e.in_flight));
        self.depth_sum += u128::from(e.in_flight);
        self.depth_n += 1;
    }
}

impl MetricsRecorder {
    /// Creates a recorder for `procs` processors with the given sampling
    /// window (see [`DEFAULT_WINDOW`]) on a machine whose baseline
    /// overheads are `base_o_send` / `base_o_recv`: whatever an event
    /// reports beyond them is attributed to [`CostClass::DeltaO`].
    pub fn new(
        procs: usize,
        window: SimDelta,
        base_o_send: SimDelta,
        base_o_recv: SimDelta,
    ) -> Self {
        let mut state = RecState {
            window: window.as_nanos().max(1),
            base_o_send,
            base_o_recv,
            procs: vec![ProcRec::default(); procs],
            wire: vec![0; procs * procs],
            wire_dim: procs,
            phase_names: Vec::new(),
            phase_ids: BTreeMap::new(),
            phase_totals: Vec::new(),
            retransmits: 0,
            depth_max: 0,
            depth_sum: 0,
            depth_n: 0,
        };
        state.intern(INIT_PHASE);
        MetricsRecorder {
            state: RefCell::new(state),
        }
    }

    /// Closes the books at simulated time `end` (flushing every
    /// processor's residual span as background time) and produces the
    /// report. `end` is normally the run's final virtual time.
    pub fn finish(&self, end: SimTime) -> MetricsReport {
        let mut st = self.state.borrow_mut();
        let end_ns = end.as_nanos();
        for proc in 0..st.procs.len() {
            st.advance(proc, end_ns);
        }
        let window = st.window;
        let windows = (end_ns as usize).div_ceil(window as usize).max(1);
        let procs: Vec<ProcSeries> = st
            .procs
            .iter()
            .map(|p| {
                let mut timeline = p.timeline.clone();
                timeline.resize(windows, StateNs::default());
                let mut nic_tx = p.nic_tx.clone();
                let mut nic_rx = p.nic_rx.clone();
                nic_tx.resize(windows, 0);
                nic_rx.resize(windows, 0);
                ProcSeries {
                    totals: p.totals,
                    timeline,
                    nic_tx,
                    nic_rx,
                    nic_tx_total: p.nic_tx_total,
                    nic_rx_total: p.nic_rx_total,
                }
            })
            .collect();
        let phase_totals = st.phase_totals.clone();
        let mut totals = StateNs::default();
        for p in &procs {
            for (t, v) in totals.iter_mut().zip(p.totals.iter()) {
                *t += v;
            }
        }
        let phases: Vec<PhaseSlice> = st
            .phase_names
            .iter()
            .zip(phase_totals.iter())
            .map(|(name, tot)| PhaseSlice {
                name: name.clone(),
                totals: *tot,
            })
            .collect();
        let summary = MetricsSummary {
            end_ns,
            procs: procs.len(),
            totals,
            phases,
            retransmits: st.retransmits,
            depth_max: st.depth_max,
            depth_mean: if st.depth_n == 0 {
                0.0
            } else {
                st.depth_sum as f64 / st.depth_n as f64
            },
            // The recorder never sees detector traffic (heartbeats are
            // out-of-band) and cannot tell a collective apart from its
            // constituent messages; the harness stamps both from the
            // run's cluster statistics after `finish`.
            detector: DetectorSummary::default(),
            coll: CollSummary::default(),
        };
        MetricsReport {
            window_ns: window,
            end_ns,
            procs,
            // Row-major over the table is ascending (src, dst); a link that
            // never carried a bit is not a row of the report.
            wire: st
                .wire
                .iter()
                .enumerate()
                .filter(|&(_, &busy_ns)| busy_ns > 0)
                .map(|(at, &busy_ns)| WireBusy {
                    src: at / st.wire_dim,
                    dst: at % st.wire_dim,
                    busy_ns,
                })
                .collect(),
            events_per_window: Vec::new(),
            summary,
        }
    }
}

impl TraceSink for MetricsRecorder {
    fn record(&self, ev: &TraceEvent) {
        let st = &mut *self.state.borrow_mut();
        match ev {
            TraceEvent::Compute { proc, start, dur } => {
                let from = start.as_nanos();
                st.busy(*proc, CostClass::Compute, from, from + dur.as_nanos());
            }
            TraceEvent::Send(e) => {
                st.attempt(e);
                if e.arrival > e.wire_done {
                    *st.link(e.src, e.dst) += e.arrival.since(e.wire_done).as_nanos();
                }
            }
            TraceEvent::Drop(e) => st.attempt(e),
            TraceEvent::Recv(e) => st.overhead(e.proc, CostClass::ORecvBase, e.o_recv, e.done),
            TraceEvent::NicRx { proc, from, to } => st.nic(*proc, false, *from, *to),
            TraceEvent::WaitEnter { proc, kind, at } => {
                st.mark(*proc, *at, |p| p.waiting = Some(*kind));
            }
            TraceEvent::WaitExit { proc, at } => st.mark(*proc, *at, |p| p.waiting = None),
            TraceEvent::Phase { proc, label, at } => {
                let id = st.intern(label.as_str());
                st.mark(*proc, *at, |p| p.phase = id);
            }
            TraceEvent::Retransmit { .. } => st.retransmits += 1,
            // Per-message lifecycle detail: the trace recorder's half of
            // the stream. (`Idle` restates a wait the enter/exit pair
            // already delimited.)
            TraceEvent::Visible(_)
            | TraceEvent::Handler { .. }
            | TraceEvent::DupDelivery { .. }
            | TraceEvent::Pair { .. }
            | TraceEvent::Idle { .. }
            | TraceEvent::Wave { .. }
            | TraceEvent::Region { .. } => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nowlab_trace::{Mark, PhaseLabel, RecvEvent};

    fn col(class: CostClass) -> usize {
        PROCESSOR.column(class)
    }

    pub(crate) fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A recorder for a machine with `o_send` = 30 ns and `o_recv` = 40 ns.
    pub(crate) fn recorder(procs: usize, window_ns: u64) -> MetricsRecorder {
        MetricsRecorder::new(
            procs,
            SimDelta::from_nanos(window_ns),
            SimDelta::from_nanos(30),
            SimDelta::from_nanos(40),
        )
    }

    pub(crate) fn compute(proc: usize, from: u64, to: u64) -> TraceEvent {
        TraceEvent::Compute {
            proc,
            start: t(from),
            dur: SimDelta::from_nanos(to - from),
        }
    }

    /// `src` paid `o_send` up to `inject`; its NIC is busy over `tx`, the
    /// wire to processor 1 over `wire`.
    pub(crate) fn send(
        src: usize,
        o_send: u64,
        inject: u64,
        tx: (u64, u64),
        wire: (u64, u64),
        in_flight: u32,
    ) -> TraceEvent {
        TraceEvent::Send(SendEvent {
            id: 1,
            src,
            dst: 1,
            reply: false,
            kind: Mark::Write,
            bytes: 0,
            o_send: SimDelta::from_nanos(o_send),
            inject: t(inject),
            tx_start: t(tx.0),
            wire_done: t(wire.0),
            tx_free: t(tx.1),
            arrival: t(wire.1),
            in_flight,
            timer_depth: 0,
        })
    }

    fn recv(proc: usize, o_recv: u64, done: u64) -> TraceEvent {
        TraceEvent::Recv(RecvEvent {
            id: 1,
            proc,
            o_recv: SimDelta::from_nanos(o_recv),
            done: t(done),
        })
    }

    pub(crate) fn enter(proc: usize, kind: WaitKind, at: u64) -> TraceEvent {
        TraceEvent::WaitEnter {
            proc,
            kind,
            at: t(at),
        }
    }

    pub(crate) fn exit(proc: usize, at: u64) -> TraceEvent {
        TraceEvent::WaitExit { proc, at: t(at) }
    }

    pub(crate) fn phase(proc: usize, name: &str, at: u64) -> TraceEvent {
        TraceEvent::Phase {
            proc,
            label: PhaseLabel::new(name),
            at: t(at),
        }
    }

    #[test]
    fn every_window_sums_exactly_to_its_length() {
        // Pseudo-random event stream (deterministic LCG) over 3 procs.
        let procs = 3;
        let rec = recorder(procs, 1_000);
        let mut seed = 0x9E37_79B9u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        let mut cursors = vec![0u64; procs];
        for i in 0..5_000 {
            let p = (rng() % procs as u64) as usize;
            let gap = rng() % 700;
            let span = rng() % 900;
            let a = cursors[p] + gap;
            let b = a + span;
            cursors[p] = a;
            rec.record(&match rng() % 7 {
                0 => enter(p, WaitKind::Tx, a),
                1 => enter(p, WaitKind::Rx, a),
                2 => exit(p, a),
                3 => phase(p, if i % 2 == 0 { "alpha" } else { "beta" }, a),
                // Busy spans, on both sides of the base/Δo split.
                busy => {
                    cursors[p] = b;
                    match busy {
                        4 => compute(p, a, b),
                        5 => send(p, span, b, (b, b), (b, b), 1),
                        _ => recv(p, span, b),
                    }
                }
            });
        }
        let end = cursors.iter().copied().max().unwrap() + 137;
        let report = rec.finish(t(end));
        let window = report.window_ns;
        for (pi, p) in report.procs.iter().enumerate() {
            assert_eq!(p.timeline.len(), (end as usize).div_ceil(window as usize));
            for (w, row) in p.timeline.iter().enumerate() {
                let expected = window.min(end - (w as u64) * window);
                let got: u64 = row.iter().sum();
                assert_eq!(got, expected, "proc {pi} window {w}");
            }
            assert_eq!(p.totals.iter().sum::<u64>(), end, "proc {pi} totals");
        }
        // Phase totals also conserve: summed over phases and states they
        // cover every processor-nanosecond.
        let phase_sum: u64 = report
            .summary
            .phases
            .iter()
            .map(|ph| ph.totals.iter().sum::<u64>())
            .sum();
        assert_eq!(phase_sum, end * procs as u64);
    }

    #[test]
    fn background_time_is_attributed_to_the_enclosing_wait() {
        let rec = recorder(1, 1_000);
        rec.record(&compute(0, 0, 100));
        rec.record(&enter(0, WaitKind::Tx, 100));
        rec.record(&recv(0, 40, 340)); // polled during the wait
        rec.record(&exit(0, 500));
        let report = rec.finish(t(600));
        let p = &report.procs[0];
        assert_eq!(p.totals[col(CostClass::Compute)], 100);
        assert_eq!(p.totals[col(CostClass::CreditWait)], 200 + 160);
        assert_eq!(p.totals[col(CostClass::ORecvBase)], 40);
        assert_eq!(p.totals[col(CostClass::Other)], 100);
    }

    #[test]
    fn overhead_beyond_the_machine_baseline_is_delta_o() {
        let rec = recorder(2, 1_000);
        // 100 ns paid on a 30 ns machine: the knob (or a straggler's
        // multiplier) accounts for the other 70.
        rec.record(&send(0, 100, 100, (100, 100), (100, 100), 1));
        rec.record(&recv(1, 40, 200)); // exactly the baseline
        let report = rec.finish(t(200));
        let totals = |p: usize, class| report.procs[p].totals[col(class)];
        assert_eq!(totals(0, CostClass::OSendBase), 30);
        assert_eq!(totals(0, CostClass::DeltaO), 70);
        assert_eq!(totals(1, CostClass::ORecvBase), 40);
        assert_eq!(totals(1, CostClass::DeltaO), 0);
    }

    #[test]
    fn a_timer_driven_retransmission_leaves_the_timeline_alone() {
        // The retry is injected (o_send zero: charged out of band) in the
        // middle of a compute segment that is only reported at its end.
        let rec = recorder(1, 1_000);
        rec.record(&TraceEvent::Retransmit {
            id: 1,
            attempt: 2,
            o_send: SimDelta::from_nanos(30),
            at: t(500),
        });
        rec.record(&send(0, 0, 500, (500, 600), (500, 550), 1));
        rec.record(&compute(0, 0, 1_000));
        let report = rec.finish(t(1_000));
        assert_eq!(report.procs[0].totals[col(CostClass::Compute)], 1_000);
        assert_eq!(report.procs[0].nic_tx_total, 100);
        assert_eq!(report.summary.retransmits, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping busy span")]
    fn overlapping_spans_trip_the_debug_assert() {
        let rec = recorder(1, 1_000);
        rec.record(&compute(0, 0, 100));
        rec.record(&compute(0, 50, 150));
    }

    #[test]
    fn phase_markers_segment_time_exactly() {
        let rec = recorder(2, 500);
        rec.record(&compute(0, 0, 400));
        rec.record(&phase(0, "work", 400));
        rec.record(&compute(0, 400, 900));
        rec.record(&phase(1, "work", 100));
        let report = rec.finish(t(1_000));
        let by_name = |n: &str| {
            report
                .summary
                .phases
                .iter()
                .find(|p| p.name == n)
                .unwrap()
                .totals
        };
        let init = by_name(INIT_PHASE);
        let work = by_name("work");
        // Proc 0: 400ns compute init, 500 compute + 100 idle work.
        // Proc 1: 100ns idle init, 900 idle work.
        assert_eq!(init[col(CostClass::Compute)], 400);
        assert_eq!(init[col(CostClass::Other)], 100);
        assert_eq!(work[col(CostClass::Compute)], 500);
        assert_eq!(work[col(CostClass::Other)], 100 + 900);
        assert_eq!(
            init.iter().sum::<u64>() + work.iter().sum::<u64>(),
            2 * 1_000
        );
    }

    #[test]
    fn nic_and_wire_occupancy_accumulate() {
        let rec = recorder(2, 1_000);
        rec.record(&send(0, 0, 0, (0, 600), (100, 400), 3));
        rec.record(&send(0, 0, 10, (600, 1_200), (400, 450), 5));
        rec.record(&TraceEvent::NicRx {
            proc: 1,
            from: t(500),
            to: t(700),
        });
        let report = rec.finish(t(2_000));
        assert_eq!(report.procs[0].nic_tx_total, 1_200);
        assert_eq!(report.procs[0].nic_tx, vec![1_000, 200]);
        assert_eq!(report.procs[1].nic_rx_total, 200);
        assert_eq!(
            report.wire,
            [WireBusy {
                src: 0,
                dst: 1,
                busy_ns: 350
            }]
        );
        assert_eq!(report.summary.depth_max, 5);
        assert!((report.summary.depth_mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wire_rows_are_the_busy_links_in_src_dst_order() {
        // Sends arrive as 2→0, 0→1, 2→0 on a 3-processor machine; the
        // `send` helper addresses processor 1, so re-aim each event.
        let rec = recorder(3, 1_000);
        for (src, dst, busy) in [(2, 0, 50), (0, 1, 70), (2, 0, 5), (1, 4, 9)] {
            let TraceEvent::Send(e) = send(src, 0, 0, (0, 0), (100, 100 + busy), 1) else {
                unreachable!()
            };
            rec.record(&TraceEvent::Send(SendEvent { dst, ..e }));
        }
        let rows: Vec<(usize, usize, u64)> = rec
            .finish(t(1_000))
            .wire
            .iter()
            .map(|w| (w.src, w.dst, w.busy_ns))
            .collect();
        // 1→4 names an endpoint beyond the machine: the table grew, and
        // the rows it already held kept their links.
        assert_eq!(rows, [(0, 1, 70), (1, 4, 9), (2, 0, 55)]);
    }

    #[test]
    fn a_dropped_attempt_charges_its_sender_but_not_the_wire() {
        let rec = recorder(2, 1_000);
        let TraceEvent::Send(attempt) = send(0, 30, 30, (30, 130), (30, 80), 2) else {
            unreachable!()
        };
        rec.record(&TraceEvent::Drop(attempt));
        let report = rec.finish(t(1_000));
        assert_eq!(report.procs[0].totals[col(CostClass::OSendBase)], 30);
        assert_eq!(report.procs[0].nic_tx_total, 100);
        assert_eq!(report.summary.depth_max, 2);
        assert!(report.wire.is_empty());
    }
}
