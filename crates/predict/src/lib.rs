//! # nowlab-predict — latency-tolerance analytics from one traced run
//!
//! This crate turns a single fully-traced baseline run into a predictor
//! for the whole LogGP sensitivity sweep, without re-simulating:
//!
//! 1. The happens-before events the trace layer records (message
//!    lifecycles, compute segments, deadline-bounded idles, region marks)
//!    are assembled into an acyclic **message DAG** whose edge weights are
//!    the seven-component cost attribution plus idle time.
//! 2. Baseline evaluation of the DAG is **validated exactly**: every
//!    node's longest-path time must equal the recorded timestamp to the
//!    nanosecond, and the weighted critical path of the measured region
//!    must equal the measured runtime.
//! 3. Each edge is then **re-priced symbolically** in `(L, o, g, G)` and
//!    the DAG re-evaluated per grid point, predicting the application's
//!    slowdown curve and its latency-tolerance threshold — the knee where
//!    a parameter starts costing wall-clock time.
//!
//! The one modelling approximation is that serialization *order* (NIC
//! transmit pickup, receive visibility, program order) is frozen at the
//! baseline; predictions diverge where a parameter change would reorder
//! contention (see DESIGN.md §13). Runs with active fault injection are
//! refused outright — retransmission schedules do not survive re-pricing.

#![forbid(unsafe_code)]

mod cost;
mod dag;

use std::fmt;

pub use dag::{PathBreakdown, PhaseRow};

use nowlab_am::NetConfig;
use nowlab_sim::SimDelta;
use nowlab_trace::TraceReport;

/// Why a trace could not be turned into a predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictError {
    /// The trace carries no per-message records.
    NoRecords {
        /// True when the summary saw messages or pairing edges, i.e. the
        /// run *was* traced but only in Summary mode — re-run with full
        /// tracing. False when the trace saw no message at all.
        summary_only: bool,
    },
    /// The run had active fault injection or protocol anomalies; the
    /// frozen-order DAG cannot re-price retransmission schedules.
    FaultyRun(String),
    /// The happens-before graph has a cycle (corrupt trace).
    Cyclic(String),
    /// Baseline evaluation did not reproduce the recorded run exactly.
    Mismatch(String),
    /// The trace references state outside the run's declared shape.
    Unsupported(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::NoRecords { summary_only: true } => write!(
                f,
                "trace has no per-message records but pairing was observed: \
                 the run was traced in Summary mode; re-run with full tracing"
            ),
            PredictError::NoRecords {
                summary_only: false,
            } => write!(
                f,
                "the traced run sent no messages; every grid point equals the \
                 baseline and there is nothing to re-price"
            ),
            PredictError::FaultyRun(why) => write!(
                f,
                "run is not predictable under frozen baseline order: {why}"
            ),
            PredictError::Cyclic(why) => write!(f, "{why}"),
            PredictError::Mismatch(why) => write!(f, "{why}"),
            PredictError::Unsupported(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// A validated, re-priceable model of one traced run. Plain data
/// (`Send + Sync`): grid points can be evaluated from worker threads.
pub struct Analysis {
    dag: dag::Dag,
    baseline_runtime: SimDelta,
    warnings: Vec<String>,
}

/// Builds the message DAG from a fully-traced run, verifies it is acyclic,
/// and verifies baseline evaluation reproduces the measured run exactly —
/// both every recorded instant and the measured-region runtime.
pub fn analyze(
    report: &TraceReport,
    cfg: &NetConfig,
    procs: usize,
    measured_runtime: SimDelta,
) -> Result<Analysis, PredictError> {
    if report.records.is_empty() {
        return Err(PredictError::NoRecords {
            summary_only: report.summary.pairs > 0 || report.summary.msgs > 0,
        });
    }
    let s = &report.summary;
    let anomalies: &[(&str, u64)] = &[
        ("wire drops", s.drops),
        ("retransmissions", s.retransmits),
        ("duplicate deliveries", s.dup_deliveries),
        ("extra deliveries", s.extra_deliveries),
        ("tangled records", s.tangled),
        ("late send attempts", s.late_attempts),
        ("orphan events", s.orphan_events),
    ];
    if let Some((what, n)) = anomalies.iter().find(|(_, n)| *n > 0) {
        return Err(PredictError::FaultyRun(format!("{n} {what} in the trace")));
    }
    if cfg.faults.is_active() || cfg.node_faults.is_active() {
        return Err(PredictError::FaultyRun(
            "the run's configuration has an active fault plan".to_string(),
        ));
    }

    let mut warnings = Vec::new();
    if s.pairs == 0 {
        warnings.push(
            "no request→reply pairing edges in the trace; dependency chains \
             rely on program order alone"
                .to_string(),
        );
    }
    let graph = dag::build(report, cfg, procs, &mut warnings)?;
    let span = graph.validate()?;
    if span != measured_runtime {
        return Err(PredictError::Mismatch(format!(
            "critical path of the measured region is {} ns but the run \
             measured {} ns",
            span.as_nanos(),
            measured_runtime.as_nanos()
        )));
    }
    Ok(Analysis {
        dag: graph,
        baseline_runtime: measured_runtime,
        warnings,
    })
}

impl fmt::Debug for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analysis")
            .field("nodes", &self.dag.node_count())
            .field("edges", &self.dag.edge_count())
            .field("baseline_runtime", &self.baseline_runtime)
            .field("warnings", &self.warnings)
            .finish_non_exhaustive()
    }
}

impl Analysis {
    /// The measured (and exactly reproduced) baseline runtime.
    pub fn baseline_runtime(&self) -> SimDelta {
        self.baseline_runtime
    }

    /// Non-fatal observations from DAG assembly.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Nodes in the message DAG.
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Edges in the message DAG.
    pub fn edge_count(&self) -> usize {
        self.dag.edge_count()
    }

    /// Predicted measured-region runtime under `cfg`, by re-pricing every
    /// edge and re-evaluating the longest path — no simulation.
    pub fn predict_runtime(&self, cfg: &NetConfig) -> SimDelta {
        self.predict_runtimes(std::slice::from_ref(cfg))[0]
    }

    /// [`Analysis::predict_runtime`] at every configuration of `cfgs`, in
    /// order, evaluating many per sweep of the DAG. The baseline
    /// configuration is not re-priced: [`analyze`] refused unless its
    /// evaluation landed on the measured runtime.
    pub fn predict_runtimes(&self, cfgs: &[NetConfig]) -> Vec<SimDelta> {
        let base = self.dag.base();
        let repriced: Vec<&NetConfig> = cfgs.iter().filter(|&cfg| cfg != base).collect();
        let mut spans = self.dag.spans(&repriced).into_iter();
        cfgs.iter()
            .map(|cfg| {
                if cfg == base {
                    self.baseline_runtime
                } else {
                    spans.next().expect("one span per re-priced configuration")
                }
            })
            .collect()
    }

    /// Predicted runtime plus critical-path attribution under `cfg`.
    pub fn breakdown(&self, cfg: &NetConfig) -> PathBreakdown {
        self.dag.breakdown(cfg)
    }
}

/// The λ-style tolerance threshold: the parameter value at which the
/// predicted slowdown curve first crosses `1 + tolerance`, linearly
/// interpolated between grid points. `points` are `(parameter, slowdown)`
/// in increasing parameter order; returns `None` if the curve never
/// crosses (the application tolerates the whole sweep).
pub fn tolerance_threshold(points: &[(f64, f64)], tolerance: f64) -> Option<f64> {
    let target = 1.0 + tolerance;
    let mut prev: Option<(f64, f64)> = None;
    for &(x, y) in points {
        if y >= target {
            return Some(match prev {
                Some((px, py)) if y > py => px + (x - px) * (target - py) / (y - py),
                _ => x,
            });
        }
        prev = Some((x, y));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_baseline_is_read_off_and_equals_what_a_pass_computes() {
        use nowlab_apps::{suite_scaled, SuiteScale};
        use nowlab_core::{Axis, RunSpec, TraceMode};

        let suite = suite_scaled(SuiteScale::Test);
        let app = suite.iter().find(|a| a.name() == "Radix").expect("radix");
        let spec = RunSpec::new(4).with_trace(TraceMode::Full);
        let out = app.run(&spec);
        let report = out.trace.as_ref().expect("trace requested");
        let analysis = analyze(report, &spec.net, spec.procs, out.runtime).expect("analyzes");
        let mut slow = spec.net;
        slow.knobs = Axis::Overhead
            .knobs_for(&spec.net.machine, 50.0)
            .expect("overhead knob");
        let mut times = Vec::new();
        let by_pass: Vec<SimDelta> = [spec.net, slow, spec.net]
            .iter()
            .map(|cfg| {
                analysis.dag.times_into(cfg, &mut times);
                analysis.dag.span(&times)
            })
            .collect();
        assert_eq!(
            analysis.predict_runtimes(&[spec.net, slow, spec.net]),
            by_pass
        );
        assert_eq!(by_pass[0], out.runtime);
        assert!(by_pass[1] > by_pass[0]);
    }

    /// However a list of configurations is ordered, repeated or cut, and
    /// wherever the baseline sits in it, each runtime is its own
    /// configuration's: the oracle pass's for a re-priced one, and for
    /// the baseline what `analyze` recorded, not an evaluation.
    #[test]
    fn each_runtime_is_its_configurations_in_any_list() {
        use nowlab_apps::{suite_scaled, SuiteScale};
        use nowlab_core::{Axis, RunSpec, TraceMode};

        let suite = suite_scaled(SuiteScale::Test);
        let app = suite.iter().find(|a| a.name() == "Radix").expect("radix");
        let spec = RunSpec::new(4).with_trace(TraceMode::Full);
        let out = app.run(&spec);
        let report = out.trace.as_ref().expect("trace requested");
        let mut analysis = analyze(report, &spec.net, spec.procs, out.runtime).expect("analyzes");
        let base = spec.net;
        let grid: Vec<NetConfig> = [
            Axis::Overhead,
            Axis::Gap,
            Axis::Latency,
            Axis::BulkBandwidth,
        ]
        .into_iter()
        .flat_map(|axis| {
            axis.paper_values()
                .into_iter()
                .filter_map(move |v| axis.knobs_for(&base.machine, v))
        })
        .map(|knobs| base.with_knobs(knobs))
        .filter(|cfg| *cfg != base)
        .collect();
        let mut times = Vec::new();
        let oracle: Vec<SimDelta> = grid
            .iter()
            .map(|cfg| {
                analysis.dag.times_into(cfg, &mut times);
                analysis.dag.span(&times)
            })
            .collect();
        // Reversed, then every third again; the baseline first, inside and
        // last.
        let n = grid.len();
        let mut order: Vec<Option<usize>> =
            (0..n).rev().chain((0..n).step_by(3)).map(Some).collect();
        order.insert(0, None);
        order.insert(7, None);
        order.push(None);
        assert!(
            order.len() > 2 * dag::LANES,
            "{} configurations",
            order.len()
        );
        let cfgs: Vec<NetConfig> = order.iter().map(|i| i.map_or(base, |i| grid[i])).collect();
        // A runtime no evaluation gives: the baseline entries must be read off.
        analysis.baseline_runtime = SimDelta::from_nanos(1);
        let wanted: Vec<SimDelta> = order
            .iter()
            .map(|i| i.map_or(analysis.baseline_runtime, |i| oracle[i]))
            .collect();
        for len in 0..=cfgs.len() {
            assert_eq!(
                analysis.predict_runtimes(&cfgs[..len]),
                wanted[..len],
                "first {len}"
            );
        }
    }

    #[test]
    fn threshold_interpolates_between_grid_points() {
        let pts = [(5.0, 1.0), (10.0, 1.0), (20.0, 1.2)];
        let t = tolerance_threshold(&pts, 0.05).unwrap();
        // Crosses 1.05 a quarter of the way from 10 to 20.
        assert!((t - 12.5).abs() < 1e-9, "{t}");
    }

    #[test]
    fn threshold_is_none_when_flat() {
        let pts = [(5.0, 1.0), (105.0, 1.01)];
        assert_eq!(tolerance_threshold(&pts, 0.05), None);
    }

    #[test]
    fn threshold_at_first_point_returns_it() {
        let pts = [(5.0, 1.2), (10.0, 1.4)];
        assert_eq!(tolerance_threshold(&pts, 0.05), Some(5.0));
    }
}
