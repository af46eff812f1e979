//! Report data model and the versioned machine-readable JSON schema.
//!
//! The JSON is hand-rolled in the same style as the trace crate's
//! Chrome exporter: every value is an integer, a fixed-precision float,
//! or an app/phase label passed through [`crate::json::escape`], so no
//! serializer dependency is taken. Two runs of the same (program, seed,
//! window) produce byte-identical files.

use std::io::{self, Write};

use crate::json::escape;
use crate::{ProcState, N_STATES};

/// Name of the schema emitted in every report file.
pub const SCHEMA_NAME: &str = "nowlab-metrics-report";
/// Version of the schema emitted in every report file. Bump on any
/// field removal or meaning change; additions are backward compatible
/// (see DESIGN.md §10).
pub const SCHEMA_VERSION: u64 = 3;

/// Per-state nanosecond totals for one application phase, summed over
/// all processors.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSlice {
    /// Phase name as passed to `Ctx::phase` (or [`crate::INIT_PHASE`]).
    pub name: String,
    /// Nanoseconds per [`ProcState`], in `ProcState::ALL` order.
    pub totals: [u64; N_STATES],
}

impl PhaseSlice {
    /// Total processor-nanoseconds spent in this phase.
    pub fn elapsed(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Share of this phase spent in `state` (0 when the phase is empty).
    pub fn share(&self, state: ProcState) -> f64 {
        let total = self.elapsed();
        if total == 0 {
            0.0
        } else {
            self.totals[state as usize] as f64 / total as f64
        }
    }
}

/// Compact cross-run digest carried on every sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSummary {
    /// Final simulated time of the run, nanoseconds.
    pub end_ns: u64,
    /// Number of processors.
    pub procs: usize,
    /// Nanoseconds per [`ProcState`] summed over all processors.
    pub totals: [u64; N_STATES],
    /// Per-phase breakdown (first entry is always the init phase).
    pub phases: Vec<PhaseSlice>,
    /// Transport retransmissions during the run.
    pub retransmits: u64,
    /// Deepest observed send window occupancy.
    pub depth_max: u64,
    /// Mean send window occupancy over all injections.
    pub depth_mean: f64,
    /// Failure-detector counters (schema v2; all zero on a healthy run).
    pub detector: DetectorSummary,
    /// Collective-operation counters (schema v3; all zero when the run
    /// uses no collectives).
    pub coll: CollSummary,
}

/// Failure-detector counters for the run, summed over all observers
/// (schema v2). All zero when the node-fault plan is inert — the
/// detector never runs and the report is byte-identical modulo the
/// constant zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorSummary {
    /// Heartbeats received across all processors.
    pub heartbeats: u64,
    /// Suspicions raised (silence exceeded the suspect threshold).
    pub suspicions: u64,
    /// Suspicions retracted after the peer's heartbeat resumed.
    pub false_suspicions: u64,
    /// Peers confirmed dead across all observers.
    pub peer_deaths: u64,
    /// Worst crash-to-confirmation latency observed, nanoseconds.
    pub max_detect_latency_ns: u64,
}

/// Collective-operation counters for the run, summed over all
/// processors (schema v3). Every processor participating in one
/// collective counts once, so a broadcast on `p` processors adds `p`
/// to `bcasts`. All zero when the program never calls the collective
/// layer — the report is byte-identical modulo the constant zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollSummary {
    /// Broadcast participations.
    pub bcasts: u64,
    /// Reduction participations.
    pub reduces: u64,
    /// All-gather participations.
    pub allgathers: u64,
    /// All-to-all participations.
    pub alltoalls: u64,
}

impl MetricsSummary {
    /// Share of all processor time spent in `state`.
    pub fn share(&self, state: ProcState) -> f64 {
        let total: u64 = self.totals.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.totals[state as usize] as f64 / total as f64
        }
    }

    /// Shares of all processor time per coarse class, in
    /// [`ProcState::COARSE`] order (see [`ProcState::coarse`]). The
    /// classes partition the integer totals, so the shares sum to 1.
    pub fn coarse_shares(&self) -> [f64; 4] {
        let mut ns = [0u64; 4];
        for state in ProcState::ALL {
            ns[state.coarse()] += self.totals[state as usize];
        }
        let total: u64 = ns.iter().sum();
        ns.map(|n| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        })
    }
}

/// One processor's sampled series.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcSeries {
    /// Nanoseconds per [`ProcState`] over the whole run.
    pub totals: [u64; N_STATES],
    /// Per window, nanoseconds per [`ProcState`]; each row sums exactly
    /// to the window length (last row: to the residual).
    pub timeline: Vec<[u64; N_STATES]>,
    /// NIC send-context busy nanoseconds per window.
    pub nic_tx: Vec<u64>,
    /// NIC receive-context busy nanoseconds per window.
    pub nic_rx: Vec<u64>,
    /// NIC send-context busy nanoseconds, whole run.
    pub nic_tx_total: u64,
    /// NIC receive-context busy nanoseconds, whole run.
    pub nic_rx_total: u64,
}

/// Busy time of one directed link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireBusy {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Nanoseconds the link carried bits (fragments may pipeline, so
    /// this can exceed elapsed time on a hot link).
    pub busy_ns: u64,
}

/// The full per-run metrics report.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Sampling window, nanoseconds.
    pub window_ns: u64,
    /// Final simulated time, nanoseconds.
    pub end_ns: u64,
    /// One entry per processor.
    pub procs: Vec<ProcSeries>,
    /// Busy time per directed link, sorted by (src, dst).
    pub wire: Vec<WireBusy>,
    /// Simulator events fired per window (executor event-density
    /// sampling; empty when the harness did not enable it).
    pub events_per_window: Vec<u64>,
    /// The compact digest (also what sweeps carry per point).
    pub summary: MetricsSummary,
}

/// Run identification stamped into a report file.
#[derive(Clone, Copy, Debug)]
pub struct RunMeta<'a> {
    /// Application name (e.g. `Radix`).
    pub app: &'a str,
    /// Processor count.
    pub procs: usize,
    /// Seed of the run.
    pub seed: u64,
}

fn write_u64s<W: Write>(w: &mut W, vals: &[u64]) -> io::Result<()> {
    write!(w, "[")?;
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{v}")?;
    }
    write!(w, "]")
}

fn write_states<W: Write>(w: &mut W) -> io::Result<()> {
    write!(w, r#""states":["#)?;
    for (i, s) in ProcState::ALL.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, r#""{}""#, s.label())?;
    }
    write!(w, "]")
}

fn write_summary<W: Write>(w: &mut W, s: &MetricsSummary) -> io::Result<()> {
    write!(
        w,
        r#"{{"end_ns":{},"procs":{},"totals":"#,
        s.end_ns, s.procs
    )?;
    write_u64s(w, &s.totals)?;
    write!(w, r#","phases":["#)?;
    for (i, ph) in s.phases.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, r#"{{"name":"{}","totals":"#, escape(&ph.name))?;
        write_u64s(w, &ph.totals)?;
        write!(w, "}}")?;
    }
    write!(
        w,
        r#"],"am":{{"retransmits":{},"win_depth_max":{},"win_depth_mean":{:.3}}},"#,
        s.retransmits, s.depth_max, s.depth_mean
    )?;
    let d = &s.detector;
    write!(
        w,
        r#""detector":{{"heartbeats":{},"suspicions":{},"false_suspicions":{},"peer_deaths":{},"max_detect_latency_ns":{}}},"#,
        d.heartbeats, d.suspicions, d.false_suspicions, d.peer_deaths, d.max_detect_latency_ns
    )?;
    let c = &s.coll;
    write!(
        w,
        r#""coll":{{"bcasts":{},"reduces":{},"allgathers":{},"alltoalls":{}}}}}"#,
        c.bcasts, c.reduces, c.allgathers, c.alltoalls
    )
}

impl MetricsReport {
    /// Writes the versioned `"kind":"run"` report.
    pub fn write_json<W: Write>(&self, meta: &RunMeta<'_>, w: &mut W) -> io::Result<()> {
        write!(
            w,
            r#"{{"schema":"{SCHEMA_NAME}","version":{SCHEMA_VERSION},"kind":"run","app":"{}","procs":{},"seed":{},"window_ns":{},"end_ns":{},"#,
            escape(meta.app),
            meta.procs,
            meta.seed,
            self.window_ns,
            self.end_ns
        )?;
        write_states(w)?;
        write!(w, r#","proc":["#)?;
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\n  {{\"id\":{i},\"totals\":")?;
            write_u64s(w, &p.totals)?;
            write!(w, r#","timeline":["#)?;
            for (j, row) in p.timeline.iter().enumerate() {
                if j > 0 {
                    write!(w, ",")?;
                }
                write_u64s(w, row)?;
            }
            write!(w, r#"],"nic_tx":"#)?;
            write_u64s(w, &p.nic_tx)?;
            write!(w, r#","nic_rx":"#)?;
            write_u64s(w, &p.nic_rx)?;
            write!(
                w,
                r#","nic_tx_total":{},"nic_rx_total":{}}}"#,
                p.nic_tx_total, p.nic_rx_total
            )?;
        }
        write!(w, "],\n\"wire\":[")?;
        for (i, l) in self.wire.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                r#"{{"src":{},"dst":{},"busy_ns":{}}}"#,
                l.src, l.dst, l.busy_ns
            )?;
        }
        write!(w, r#"],"events_per_window":"#)?;
        write_u64s(w, &self.events_per_window)?;
        write!(w, r#","summary":"#)?;
        write_summary(w, &self.summary)?;
        writeln!(w, "}}")
    }
}

/// One sweep point's metadata for [`write_sweep_json`].
#[derive(Clone, Copy, Debug)]
pub struct SweepPointMeta<'a> {
    /// Swept parameter value in paper units (µs or MB/s).
    pub x: f64,
    /// Measured runtime, nanoseconds.
    pub runtime_ns: u64,
    /// Slowdown relative to the baseline point.
    pub slowdown: f64,
    /// The point's metrics digest.
    pub summary: &'a MetricsSummary,
}

/// Writes the versioned `"kind":"sweep"` report: one summary per swept
/// point, enough to plot per-phase utilization against the knob.
pub fn write_sweep_json<W: Write>(
    app: &str,
    axis: &str,
    procs: usize,
    points: &[SweepPointMeta<'_>],
    w: &mut W,
) -> io::Result<()> {
    write!(
        w,
        r#"{{"schema":"{SCHEMA_NAME}","version":{SCHEMA_VERSION},"kind":"sweep","app":"{}","axis":"{axis}","procs":{procs},"#,
        escape(app),
    )?;
    write_states(w)?;
    write!(w, r#","points":["#)?;
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "\n  {{\"x\":{:.3},\"runtime_ns\":{},\"slowdown\":{:.4},\"summary\":",
            p.x, p.runtime_ns, p.slowdown
        )?;
        write_summary(w, p.summary)?;
        write!(w, "}}")?;
    }
    writeln!(w, "]}}")
}
