//! Report data model and the versioned machine-readable JSON schema.
//!
//! The JSON goes through [`crate::json::Writer`]: every value is an
//! integer, a fixed-precision float, or an escaped app/phase label, so no
//! serializer dependency is taken. Two runs of the same (program, seed,
//! window) produce byte-identical files.

use std::io::{self, Write};

use nowlab_trace::{CostClass, COARSE, PROCESSOR};

use crate::json::Writer;
use crate::StateNs;

/// Name of the schema emitted in every report file.
pub(crate) const SCHEMA_NAME: &str = "nowlab-metrics-report";
/// Version of the schema emitted in every report file. Bump on any
/// field removal or meaning change; additions are backward compatible
/// (see DESIGN.md §10).
pub(crate) const SCHEMA_VERSION: u64 = 4;

/// Per-class nanosecond totals for one application phase, summed over
/// all processors.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSlice {
    /// Phase name as passed to `Ctx::phase` (or `INIT_PHASE`).
    pub name: String,
    /// Nanoseconds per [`PROCESSOR`] class, in its column order.
    pub totals: StateNs,
}

impl PhaseSlice {
    /// Total processor-nanoseconds spent in this phase.
    pub fn elapsed(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Share of this phase spent in `class` (0 when the phase is empty).
    pub fn share(&self, class: CostClass) -> f64 {
        share(&self.totals, class)
    }
}

/// Compact cross-run digest carried on every sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSummary {
    /// Final simulated time of the run, nanoseconds.
    pub end_ns: u64,
    /// Number of processors.
    pub procs: usize,
    /// Nanoseconds per [`PROCESSOR`] class summed over all processors.
    pub totals: StateNs,
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
    /// Share of all processor time spent in `class`.
    pub fn share(&self, class: CostClass) -> f64 {
        share(&self.totals, class)
    }

    /// Shares of all processor time per [`COARSE`] group. The groups
    /// partition the integer totals, so the shares sum to 1.
    pub fn coarse_shares(&self) -> [f64; 4] {
        COARSE.shares(&self.totals, self.totals.iter().sum())
    }
}

/// The share of `totals` spent in `class` (0 when they are all zero).
fn share(totals: &StateNs, class: CostClass) -> f64 {
    let total: u64 = totals.iter().sum();
    if total == 0 {
        0.0
    } else {
        totals[PROCESSOR.column(class)] as f64 / total as f64
    }
}

/// One processor's sampled series.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcSeries {
    /// Nanoseconds per [`PROCESSOR`] class over the whole run.
    pub totals: StateNs,
    /// Per window, nanoseconds per [`PROCESSOR`] class; each row sums
    /// exactly to the window length (last row: to the residual).
    pub timeline: Vec<StateNs>,
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

/// Opens a report: `{"schema":…,"version":…,"kind":…,"app":…`.
fn preamble<W: Write>(w: &mut Writer<W>, kind: &str, app: &str) -> io::Result<()> {
    w.obj()?.key("schema")?.str(SCHEMA_NAME)?;
    w.key("version")?.u64(SCHEMA_VERSION)?;
    w.key("kind")?.str(kind)?.key("app")?.str(app)?;
    Ok(())
}

fn write_states<W: Write>(w: &mut Writer<W>) -> io::Result<()> {
    w.key("states")?.arr()?;
    for label in PROCESSOR.labels() {
        w.str(label)?;
    }
    w.end_arr()?;
    Ok(())
}

fn write_summary<W: Write>(w: &mut Writer<W>, s: &MetricsSummary) -> io::Result<()> {
    w.obj()?.key("end_ns")?.u64(s.end_ns)?;
    w.key("procs")?.u64(s.procs as u64)?;
    w.key("totals")?.u64s(&s.totals)?.key("phases")?.arr()?;
    for ph in &s.phases {
        w.obj()?.key("name")?.str(&ph.name)?;
        w.key("totals")?.u64s(&ph.totals)?.end_obj()?;
    }
    w.end_arr()?.key("am")?.obj()?;
    w.key("retransmits")?.u64(s.retransmits)?;
    w.key("win_depth_max")?.u64(s.depth_max)?;
    w.key("win_depth_mean")?.fixed(s.depth_mean, 3)?.end_obj()?;
    let d = &s.detector;
    w.key("detector")?.obj()?;
    w.key("heartbeats")?.u64(d.heartbeats)?;
    w.key("suspicions")?.u64(d.suspicions)?;
    w.key("false_suspicions")?.u64(d.false_suspicions)?;
    w.key("peer_deaths")?.u64(d.peer_deaths)?;
    w.key("max_detect_latency_ns")?;
    w.u64(d.max_detect_latency_ns)?.end_obj()?;
    let c = &s.coll;
    w.key("coll")?.obj()?.key("bcasts")?.u64(c.bcasts)?;
    w.key("reduces")?.u64(c.reduces)?;
    w.key("allgathers")?.u64(c.allgathers)?;
    w.key("alltoalls")?.u64(c.alltoalls)?.end_obj()?.end_obj()?;
    Ok(())
}

impl MetricsReport {
    /// Writes the versioned `"kind":"run"` report.
    pub fn write_json<W: Write>(&self, meta: &RunMeta<'_>, w: &mut W) -> io::Result<()> {
        let mut w = Writer::new(w);
        preamble(&mut w, "run", meta.app)?;
        w.key("procs")?.u64(meta.procs as u64)?;
        w.key("seed")?.u64(meta.seed)?;
        w.key("window_ns")?.u64(self.window_ns)?;
        w.key("end_ns")?.u64(self.end_ns)?;
        write_states(&mut w)?;
        w.key("proc")?.arr()?;
        for (i, p) in self.procs.iter().enumerate() {
            w.newline(2)?.obj()?.key("id")?.u64(i as u64)?;
            w.key("totals")?.u64s(&p.totals)?.key("timeline")?.arr()?;
            for row in &p.timeline {
                w.u64s(row)?;
            }
            w.end_arr()?.key("nic_tx")?.u64s(&p.nic_tx)?;
            w.key("nic_rx")?.u64s(&p.nic_rx)?;
            w.key("nic_tx_total")?.u64(p.nic_tx_total)?;
            w.key("nic_rx_total")?.u64(p.nic_rx_total)?.end_obj()?;
        }
        w.end_arr()?.newline(0)?.key("wire")?.arr()?;
        for l in &self.wire {
            w.obj()?.key("src")?.u64(l.src as u64)?;
            w.key("dst")?.u64(l.dst as u64)?;
            w.key("busy_ns")?.u64(l.busy_ns)?.end_obj()?;
        }
        w.end_arr()?.key("events_per_window")?;
        w.u64s(&self.events_per_window)?.key("summary")?;
        write_summary(&mut w, &self.summary)?;
        w.end_obj()?;
        w.finish()
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
    let mut w = Writer::new(w);
    preamble(&mut w, "sweep", app)?;
    w.key("axis")?.str(axis)?.key("procs")?.u64(procs as u64)?;
    write_states(&mut w)?;
    w.key("points")?.arr()?;
    for p in points {
        w.newline(2)?.obj()?.key("x")?.fixed(p.x, 3)?;
        w.key("runtime_ns")?.u64(p.runtime_ns)?;
        w.key("slowdown")?.fixed(p.slowdown, 4)?.key("summary")?;
        write_summary(&mut w, p.summary)?;
        w.end_obj()?;
    }
    w.end_arr()?.end_obj()?;
    w.finish()
}
