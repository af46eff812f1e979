//! The sensitivity-sweep driver (paper §5).
//!
//! A sweep runs one application repeatedly while one LogGP parameter is
//! dialed from its baseline to a LAN-like value, recording runtime and
//! slowdown at each point — the data behind Figures 5–8 and Tables 5–6.
//!
//! Sweep points are independent simulations, so the driver can fan them
//! out across worker threads ([`sweep_jobs`], [`run_grid`], [`par`])
//! with **byte-identical** results to the sequential path: each point's
//! seed and fault plan derive from its [`RunSpec`], never from execution
//! order, and results are collected by point index.

use std::fmt;

use nowlab_am::{CommStats, Knobs, LoggpParams, NetConfig, RunAbort};
use nowlab_metrics::{MetricsMode, MetricsReport, MetricsSummary};
use nowlab_sim::SimDelta;
use nowlab_splitc::CollConfig;
use nowlab_trace::{TraceMode, TraceReport, TraceSummary};

use crate::models::{fit_linear, LinFit};

pub mod par;

use par::parallel_map;

/// Everything an application needs to execute one measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Number of processors.
    pub procs: usize,
    /// Network configuration (baseline machine + knobs).
    pub net: NetConfig,
    /// Livelock guard: abort after this many simulator events.
    pub event_limit: Option<u64>,
    /// Abort after this much virtual time.
    pub time_limit: Option<SimDelta>,
    /// Seed for the application's workload generator.
    pub seed: u64,
    /// Per-message LogGP cost tracing mode (off by default; tracing never
    /// alters simulation behaviour, only observes it).
    pub trace: TraceMode,
    /// Simulated-time metrics mode (off by default; like tracing, metrics
    /// observe the run without altering it).
    pub metrics: MetricsMode,
    /// Collective-algorithm policy (model-driven selection by default; a
    /// forced variant overrides the LogGP selector on every call site).
    pub coll: CollConfig,
}

impl RunSpec {
    /// A run of `procs` processors on the Berkeley NOW baseline, seed 1.
    pub fn new(procs: usize) -> Self {
        RunSpec {
            procs,
            net: NetConfig::berkeley_now(),
            event_limit: None,
            time_limit: None,
            seed: 1,
            trace: TraceMode::Off,
            metrics: MetricsMode::Off,
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

    /// Sets the virtual-time deadline. Runs on faulty networks should set
    /// one: a permanent outage otherwise retries (with capped backoff)
    /// forever, and only a limit turns that into an "N/A" row.
    pub fn with_time_limit(mut self, limit: SimDelta) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tracing mode.
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the metrics mode.
    pub fn with_metrics(mut self, metrics: MetricsMode) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the collective-algorithm policy.
    pub fn with_coll(mut self, coll: CollConfig) -> Self {
        self.coll = coll;
        self
    }
}

/// The result of one measured application run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Virtual runtime of the measured region.
    pub runtime: SimDelta,
    /// Communication statistics of the measured region.
    pub stats: CommStats,
    /// False if the run hit a limit (the paper's "N/A" entries) or a
    /// node failure kept a processor from finishing.
    pub completed: bool,
    /// Number of processors that finished their SPMD body — equals
    /// [`RunSpec::procs`] on a complete run; smaller on a degraded one
    /// (the completeness a `DegradePolicy::Continue` app reports).
    pub completers: usize,
    /// The confirmed peer death that aborted the run under
    /// `DegradePolicy::Abort` (`None` otherwise).
    pub abort: Option<RunAbort>,
    /// Application-defined correctness checksum (same inputs ⇒ same value,
    /// independent of LogGP parameters).
    pub check: u64,
    /// Simulator events fired during the run (the benchmark harness's
    /// throughput numerator).
    pub events: u64,
    /// Task polls the simulator performed during the run.
    pub polls: u64,
    /// Per-message LogGP cost trace, when [`RunSpec::trace`] requested one
    /// (`None` under [`TraceMode::Off`]).
    pub trace: Option<TraceReport>,
    /// Simulated-time utilization metrics, when [`RunSpec::metrics`]
    /// requested them (`None` under [`MetricsMode::Off`]).
    pub metrics: Option<MetricsReport>,
}

/// An application that can be run under the sweep driver.
///
/// `Send + Sync` because the parallel sweep engine shares the app across
/// worker threads; the app itself is parameters-only — each `run` builds
/// its (single-threaded, `Rc`-internal) simulation from scratch.
pub trait SweepableApp: Send + Sync {
    /// Short name (paper's program column).
    fn name(&self) -> &str;
    /// Executes one run under `spec`.
    fn run(&self, spec: &RunSpec) -> RunOutcome;
}

/// Which LogGP parameter a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Per-message overhead `o` (µs).
    Overhead,
    /// Per-message gap `g` (µs).
    Gap,
    /// Latency `L` (µs).
    Latency,
    /// Bulk bandwidth `1/G` (MB/s) — swept *downward*.
    BulkBandwidth,
}

impl Axis {
    /// Parses an `--axis` spelling: the `Axis::slug` or an alias.
    pub fn parse(s: &str) -> Option<Axis> {
        match s {
            "overhead" | "o" => Some(Axis::Overhead),
            "gap" | "g" => Some(Axis::Gap),
            "latency" | "l" => Some(Axis::Latency),
            "bulk" | "bandwidth" | "mbps" => Some(Axis::BulkBandwidth),
            _ => None,
        }
    }

    /// The `--axis` spelling, also the predict report's JSON `"axis"`.
    pub(crate) fn slug(self) -> &'static str {
        match self {
            Axis::Overhead => "overhead",
            Axis::Gap => "gap",
            Axis::Latency => "latency",
            Axis::BulkBandwidth => "bulk",
        }
    }

    /// Human-readable axis label with unit.
    pub fn label(self) -> &'static str {
        match self {
            Axis::Overhead => "overhead (us)",
            Axis::Gap => "gap (us)",
            Axis::Latency => "latency (us)",
            Axis::BulkBandwidth => "bulk bandwidth (MB/s)",
        }
    }

    /// The sweep values used in the paper's figures for this axis
    /// (desired *absolute* parameter values, baseline first).
    pub fn paper_values(self) -> Vec<f64> {
        match self {
            Axis::Overhead => vec![2.9, 3.9, 4.9, 6.9, 7.9, 13.0, 23.0, 53.0, 103.0],
            Axis::Gap => vec![5.8, 8.0, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0],
            Axis::Latency => vec![5.0, 7.5, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0],
            Axis::BulkBandwidth => vec![38.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.5, 5.0, 2.0, 1.0],
        }
    }

    /// Converts a desired absolute value into knobs on `base`.
    ///
    /// Returns `None` if the desired value is more aggressive than the
    /// baseline (the apparatus can only slow the machine down).
    pub fn knobs_for(self, base: &LoggpParams, desired: f64) -> Option<Knobs> {
        let delta_us = |base_us: f64| {
            let d = desired - base_us;
            // Tolerate tiny negative deltas from decimal rounding.
            if d < -1e-9 {
                None
            } else {
                Some(SimDelta::from_micros(d.max(0.0)))
            }
        };
        match self {
            Axis::Overhead => Some(Knobs::with_overhead(delta_us(
                base.o_mean().as_micros_f64(),
            )?)),
            Axis::Gap => Some(Knobs::with_gap(delta_us(base.gap.as_micros_f64())?)),
            Axis::Latency => Some(Knobs::with_latency(delta_us(base.latency.as_micros_f64())?)),
            Axis::BulkBandwidth => Knobs::with_bulk_bandwidth(base, desired),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of a sensitivity sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Desired absolute parameter value (µs, or MB/s for bulk bandwidth).
    pub desired: f64,
    /// Measured runtime.
    pub runtime: SimDelta,
    /// Runtime ÷ baseline runtime.
    pub slowdown: f64,
    /// False if the run hit its limit (reported as N/A).
    pub completed: bool,
    /// Max messages per processor at this point.
    pub max_msgs: u64,
    /// Messages the fault model swallowed on the wire.
    pub drops: u64,
    /// Retransmissions the reliability protocol issued.
    pub retransmits: u64,
    /// Retransmit timers that matured.
    pub timeouts: u64,
    /// Simulator events fired at this point.
    pub events: u64,
    /// Per-component cost attribution at this point, when the sweep ran
    /// with tracing enabled.
    pub trace: Option<TraceSummary>,
    /// Per-phase utilization summary at this point, when the sweep ran
    /// with metrics enabled.
    pub metrics: Option<MetricsSummary>,
}

/// A full sweep of one application along one axis.
#[derive(Clone, Debug, PartialEq)]
pub struct AxisSweep {
    /// Application name.
    pub app: String,
    /// Swept parameter.
    pub axis: Axis,
    /// Processor count.
    pub procs: usize,
    /// The baseline run (first sweep value).
    pub baseline: RunOutcome,
    /// Measured points, baseline included.
    pub points: Vec<SweepPoint>,
}

impl AxisSweep {
    /// Linear fit of slowdown vs desired value over completed points
    /// (§5.5: "applications display a linear dependence to both overhead
    /// and gap").
    ///
    /// Returns `None` when fewer than two points completed.
    pub fn linearity(&self) -> Option<LinFit> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self
            .points
            .iter()
            .filter(|p| p.completed)
            .map(|p| (p.desired, p.slowdown))
            .unzip();
        if xs.len() < 2 {
            return None;
        }
        Some(fit_linear(&xs, &ys))
    }

    /// The largest completed slowdown.
    pub fn max_slowdown(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.completed)
            .map(|p| p.slowdown)
            .fold(1.0, f64::max)
    }
}

/// Why a sweep could not produce slowdown data (the paper's "N/A" column,
/// reported structurally instead of by panicking).
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// `desired` was empty, or every requested value was more aggressive
    /// than the baseline machine (the apparatus can only slow it down).
    NoBaselinePoint {
        /// Application name.
        app: String,
        /// Swept parameter.
        axis: Axis,
    },
    /// The baseline run hit its event or time budget, so slowdown = 1 is
    /// undefined. Carries the outcome so callers can report the
    /// graceful-degradation counters (drops/retransmits/timeouts) behind
    /// the failure.
    IncompleteBaseline {
        /// Application name.
        app: String,
        /// Swept parameter.
        axis: Axis,
        /// The truncated baseline run (boxed: a `RunOutcome` carries full
        /// per-processor statistics and an optional trace, far bigger
        /// than the `Ok` path should pay for on every return).
        outcome: Box<RunOutcome>,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::NoBaselinePoint { app, axis } => write!(
                f,
                "{app}: no sweep point at or below the {axis} baseline \
                 (the apparatus can only slow the machine down)"
            ),
            SweepError::IncompleteBaseline { app, axis, outcome } => write!(
                f,
                "{app}: baseline run did not complete along {axis} \
                 (N/A; ran {} of virtual time, {} drops, {} retransmits, \
                 {} timeouts)",
                outcome.runtime,
                outcome.stats.total_drops(),
                outcome.stats.total_retransmits(),
                outcome.stats.total_timeouts(),
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Builds an [`AxisSweep`] from the outcomes of the points at `values`,
/// in that order. Shared by [`sweep_jobs`] and [`sweep_many`] so both
/// assemble byte-identical results.
fn assemble(
    app: &str,
    template: &RunSpec,
    axis: Axis,
    values: &[f64],
    outcomes: Vec<RunOutcome>,
) -> Result<AxisSweep, SweepError> {
    let Some(baseline) = outcomes.first() else {
        return Err(SweepError::NoBaselinePoint {
            app: app.to_string(),
            axis,
        });
    };
    if !baseline.completed {
        return Err(SweepError::IncompleteBaseline {
            app: app.to_string(),
            axis,
            outcome: Box::new(baseline.clone()),
        });
    }
    let baseline = baseline.clone();
    let base_rt = baseline.runtime.as_secs_f64();
    let points = values
        .iter()
        .zip(outcomes)
        .map(|(&value, outcome)| SweepPoint {
            desired: value,
            runtime: outcome.runtime,
            slowdown: if base_rt > 0.0 {
                outcome.runtime.as_secs_f64() / base_rt
            } else {
                1.0
            },
            completed: outcome.completed,
            max_msgs: outcome.stats.max_msgs_per_proc(),
            drops: outcome.stats.total_drops(),
            retransmits: outcome.stats.total_retransmits(),
            timeouts: outcome.stats.total_timeouts(),
            events: outcome.events,
            trace: outcome.trace.map(|r| r.summary),
            metrics: outcome.metrics.map(|r| r.summary),
        })
        .collect();
    Ok(AxisSweep {
        app: app.to_string(),
        axis,
        procs: template.procs,
        baseline,
        points,
    })
}

/// The values a sweep will run and their specs: one per desired value at
/// or below the baseline, in `desired` order.
fn point_specs(template: &RunSpec, axis: Axis, desired: &[f64]) -> (Vec<f64>, Vec<RunSpec>) {
    let base_machine = template.net.machine;
    desired
        .iter()
        .filter_map(|&value| {
            let knobs = axis.knobs_for(&base_machine, value)?;
            Some((value, template.with_net(template.net.with_knobs(knobs))))
        })
        .unzip()
}

/// Sweeps `app` along `axis` through `desired` absolute parameter values,
/// fanning the points across up to `jobs` worker threads.
///
/// The first value should be the baseline (it defines slowdown = 1). Values
/// more aggressive than the baseline are skipped. Returns a [`SweepError`]
/// if no value survives the skip or the baseline run does not complete —
/// sensitivity is undefined without a baseline.
///
/// The baseline point always runs first (on the calling thread) so an
/// incomplete baseline is reported before any fan-out; the remaining
/// points run in parallel and are collected by index, making the result
/// byte-identical to `jobs = 1`.
pub fn sweep_jobs(
    app: &dyn SweepableApp,
    template: &RunSpec,
    axis: Axis,
    desired: &[f64],
    jobs: usize,
) -> Result<AxisSweep, SweepError> {
    let (values, specs) = point_specs(template, axis, desired);
    let Some(first_spec) = specs.first() else {
        return Err(SweepError::NoBaselinePoint {
            app: app.name().to_string(),
            axis,
        });
    };
    let first = app.run(first_spec);
    if !first.completed {
        return Err(SweepError::IncompleteBaseline {
            app: app.name().to_string(),
            axis,
            outcome: Box::new(first),
        });
    }
    let rest = parallel_map(jobs, &specs[1..], |_, spec| app.run(spec));
    let outcomes = std::iter::once(first).chain(rest).collect();
    assemble(app.name(), template, axis, &values, outcomes)
}

/// Runs every app at every spec on up to `jobs` worker threads sharing one
/// app-major queue, so workers stay busy across app boundaries: per app,
/// its outcomes in `specs` order, byte-identical for every `jobs`.
pub fn run_grid(
    apps: &[Box<dyn SweepableApp>],
    specs: &[RunSpec],
    jobs: usize,
) -> Vec<Vec<RunOutcome>> {
    let points: Vec<(&dyn SweepableApp, &RunSpec)> = apps
        .iter()
        .flat_map(|app| specs.iter().map(move |spec| (app.as_ref(), spec)))
        .collect();
    let mut outs = parallel_map(jobs, &points, |_, (app, spec)| app.run(spec)).into_iter();
    apps.iter()
        .map(|_| outs.by_ref().take(specs.len()).collect())
        .collect()
}

/// Sweeps every app in `apps` along `axis` on one [`run_grid`].
///
/// Results come back in `apps` order and are byte-identical to calling
/// [`sweep_jobs`] per app; a failed sweep yields its `Err` without
/// disturbing the other apps' results.
pub fn sweep_many(
    apps: &[Box<dyn SweepableApp>],
    template: &RunSpec,
    axis: Axis,
    desired: &[f64],
    jobs: usize,
) -> Vec<Result<AxisSweep, SweepError>> {
    let (values, specs) = point_specs(template, axis, desired);
    apps.iter()
        .zip(run_grid(apps, &specs, jobs))
        .map(|(app, outcomes)| assemble(app.name(), template, axis, &values, outcomes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "application" with a closed-form LogGP response, used to
    /// test the driver without the real benchmark suite.
    struct FakeApp {
        msgs: u64,
    }

    impl SweepableApp for FakeApp {
        fn name(&self) -> &str {
            "fake"
        }
        fn run(&self, spec: &RunSpec) -> RunOutcome {
            // Runtime = 1ms + 2·m·Δo + m·Δg.
            let rt = SimDelta::from_millis(1.0)
                + 2 * self.msgs * spec.net.knobs.d_o
                + self.msgs * spec.net.knobs.d_g;
            let mut stats = CommStats {
                per_proc: vec![nowlab_am::ProcCounters::new(spec.procs)],
                elapsed: rt,
            };
            stats.per_proc[0].sends = self.msgs;
            RunOutcome {
                runtime: rt,
                stats,
                completed: true,
                completers: spec.procs,
                abort: None,
                check: 42,
                events: 3 * self.msgs,
                polls: 0,
                trace: None,
                metrics: None,
            }
        }
    }

    #[test]
    fn axis_values_start_at_baseline() {
        let base = LoggpParams::berkeley_now();
        for axis in [
            Axis::Overhead,
            Axis::Gap,
            Axis::Latency,
            Axis::BulkBandwidth,
        ] {
            let first = axis.paper_values()[0];
            let knobs = axis.knobs_for(&base, first).unwrap();
            assert_eq!(knobs, Knobs::baseline(), "axis {axis} first value");
        }
    }

    #[test]
    fn every_slug_parses_back_to_its_axis() {
        use Axis::*;
        for axis in [Overhead, Gap, Latency, BulkBandwidth] {
            assert_eq!(Axis::parse(axis.slug()), Some(axis));
        }
        assert_eq!(Axis::parse("mbps"), Some(BulkBandwidth));
        assert_eq!(Axis::parse("O"), None);
    }

    #[test]
    fn knob_conversion_matches_desired() {
        let base = LoggpParams::berkeley_now();
        let k = Axis::Overhead.knobs_for(&base, 103.0).unwrap();
        assert!((k.d_o.as_micros_f64() - 100.1).abs() < 1e-9);
        let k = Axis::Gap.knobs_for(&base, 105.0).unwrap();
        assert!((k.d_g.as_micros_f64() - 99.2).abs() < 1e-9);
        let k = Axis::Latency.knobs_for(&base, 30.0).unwrap();
        assert!((k.d_lat.as_micros_f64() - 25.0).abs() < 1e-9);
        assert!(Axis::Latency.knobs_for(&base, 1.0).is_none());
    }

    #[test]
    fn sweep_computes_slowdowns_and_linearity() {
        let app = FakeApp { msgs: 1000 };
        let template = RunSpec::new(4);
        let result = sweep_jobs(
            &app,
            &template,
            Axis::Overhead,
            &Axis::Overhead.paper_values(),
            1,
        )
        .expect("fake app always completes");
        assert_eq!(result.points.len(), 9);
        assert!((result.points[0].slowdown - 1.0).abs() < 1e-12);
        // At o=103 (Δo=100.1): rt = 1ms + 2·1000·100.1µs = 201.2ms ⇒ 201.2x.
        let last = result.points.last().unwrap();
        assert!((last.slowdown - 201.2).abs() < 0.01, "{}", last.slowdown);
        let fit = result.linearity().unwrap();
        assert!(fit.r2 > 0.999999, "exact linear app must fit: {}", fit.r2);
        assert!((result.max_slowdown() - last.slowdown).abs() < 1e-9);
        // A lossless fake app leaves the fault counters at zero.
        assert!(result
            .points
            .iter()
            .all(|p| p.drops == 0 && p.retransmits == 0 && p.timeouts == 0));
    }

    #[test]
    fn run_spec_builders_set_limits() {
        let spec = RunSpec::new(4)
            .with_event_limit(1_000)
            .with_time_limit(SimDelta::from_millis(5.0));
        assert_eq!(spec.event_limit, Some(1_000));
        assert_eq!(spec.time_limit, Some(SimDelta::from_millis(5.0)));
    }

    #[test]
    fn gap_axis_uses_burst_cost_in_fake_app() {
        let app = FakeApp { msgs: 1000 };
        let template = RunSpec::new(4);
        let result = sweep_jobs(&app, &template, Axis::Gap, &Axis::Gap.paper_values(), 1)
            .expect("fake app always completes");
        // At g=105 (Δg=99.2): rt = 1ms + 1000·99.2µs = 100.2ms.
        let last = result.points.last().unwrap();
        assert!((last.runtime.as_millis_f64() - 100.2).abs() < 0.01);
    }

    struct Dud;
    impl SweepableApp for Dud {
        fn name(&self) -> &str {
            "dud"
        }
        fn run(&self, _spec: &RunSpec) -> RunOutcome {
            RunOutcome {
                runtime: SimDelta::ZERO,
                stats: CommStats::default(),
                completed: false,
                completers: 0,
                abort: None,
                check: 0,
                events: 0,
                polls: 0,
                trace: None,
                metrics: None,
            }
        }
    }

    #[test]
    fn incomplete_baseline_is_a_structured_error() {
        let err = sweep_jobs(&Dud, &RunSpec::new(2), Axis::Overhead, &[2.9, 10.0], 1)
            .expect_err("dud baseline never completes");
        match &err {
            SweepError::IncompleteBaseline {
                app, axis, outcome, ..
            } => {
                assert_eq!(app, "dud");
                assert_eq!(*axis, Axis::Overhead);
                assert!(!outcome.completed);
            }
            other => panic!("wrong error variant: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("did not complete"), "{msg}");
        assert!(msg.contains("N/A"), "{msg}");
    }

    #[test]
    fn empty_or_all_aggressive_values_yield_no_baseline() {
        let err = sweep_jobs(
            &FakeApp { msgs: 1 },
            &RunSpec::new(2),
            Axis::Latency,
            &[],
            1,
        )
        .expect_err("empty value list");
        assert!(matches!(err, SweepError::NoBaselinePoint { .. }));
        // Latency below the NOW baseline is unreachable for every value.
        let err = sweep_jobs(
            &FakeApp { msgs: 1 },
            &RunSpec::new(2),
            Axis::Latency,
            &[1.0, 2.0],
            1,
        )
        .expect_err("all values more aggressive than baseline");
        assert!(matches!(err, SweepError::NoBaselinePoint { .. }));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let app = FakeApp { msgs: 1000 };
        let template = RunSpec::new(4);
        let values = Axis::Overhead.paper_values();
        let seq = sweep_jobs(&app, &template, Axis::Overhead, &values, 1).unwrap();
        for jobs in [2, 4, 8] {
            let par = sweep_jobs(&app, &template, Axis::Overhead, &values, jobs).unwrap();
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_many_matches_per_app_sweeps_and_isolates_failures() {
        let apps: Vec<Box<dyn SweepableApp>> = vec![
            Box::new(FakeApp { msgs: 100 }),
            Box::new(Dud),
            Box::new(FakeApp { msgs: 2000 }),
        ];
        let template = RunSpec::new(4);
        let values = Axis::Gap.paper_values();
        for jobs in [1, 3] {
            let results = sweep_many(&apps, &template, Axis::Gap, &values, jobs);
            assert_eq!(results.len(), 3);
            let solo0 = sweep_jobs(apps[0].as_ref(), &template, Axis::Gap, &values, 1).unwrap();
            let solo2 = sweep_jobs(apps[2].as_ref(), &template, Axis::Gap, &values, 1).unwrap();
            assert_eq!(results[0].as_ref().unwrap(), &solo0, "jobs={jobs}");
            assert_eq!(results[2].as_ref().unwrap(), &solo2, "jobs={jobs}");
            assert!(matches!(
                results[1],
                Err(SweepError::IncompleteBaseline { .. })
            ));
        }
    }
}
