//! Structural properties of the happens-before message DAG.
//!
//! Four guarantees the predictor makes, checked across the benchmark
//! suite:
//!
//! 1. **Acyclicity** — the happens-before graph of every traced run is a
//!    DAG (checked constructively by `analyze`, which topologically sorts
//!    it or refuses).
//! 2. **Exact baseline critical path** — with edges priced at the run's
//!    own configuration, the weighted critical path of the measured
//!    region equals the measured runtime to the integer nanosecond, and
//!    every DAG node's longest-path time equals its recorded timestamp.
//!    `analyze` verifies both and returns an error otherwise, so these
//!    tests assert it succeeds.
//! 3. **Telescoping breakdown** — the critical-path bucket attribution
//!    sums exactly to the predicted span, at the baseline and at every
//!    re-priced grid point, mirroring the per-message telescoping law of
//!    `trace_properties.rs`.
//! 4. **Observation only** — emitting happens-before edges does not
//!    perturb the run: the outcome equals the pre-edge trace-off outcome
//!    (already covered by `traced_run_is_identical_to_untraced_run`; here
//!    we re-check the runtime/checksum/event-count triple explicitly).

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{Axis, RunSpec, TraceMode};
use nowlab::predict::analyze;
use nowlab::trace::CRITICAL_PATH;
use nowlab::NetConfig;
use nowlab_sim::SimDelta;

fn spec() -> RunSpec {
    RunSpec::new(4).with_event_limit(300_000_000)
}

/// Every app in the suite yields an acyclic DAG whose baseline critical
/// path reproduces the measured runtime exactly.
#[test]
fn baseline_critical_path_equals_measured_makespan_for_every_app() {
    for app in suite_scaled(SuiteScale::Test) {
        let spec = spec().with_trace(TraceMode::Full);
        let out = app.run(&spec);
        assert!(out.completed, "{}", app.name());
        let report = out.trace.as_ref().expect("trace requested");
        let analysis = analyze(report, &spec.net, spec.procs, out.runtime)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        assert_eq!(
            analysis.predict_runtime(&spec.net),
            out.runtime,
            "{}: baseline prediction must be exact",
            app.name()
        );
        assert!(analysis.node_count() > 2, "{}", app.name());
        assert!(analysis.edge_count() > 0, "{}", app.name());
    }
}

/// The critical-path bucket attribution telescopes to the predicted span
/// exactly — at the baseline and under re-priced configurations.
#[test]
fn breakdown_buckets_telescope_to_the_predicted_span() {
    for app in suite_scaled(SuiteScale::Test) {
        let spec = spec().with_trace(TraceMode::Full);
        let out = app.run(&spec);
        let report = out.trace.as_ref().expect("trace requested");
        let analysis = analyze(report, &spec.net, spec.procs, out.runtime)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let mut cfgs = vec![spec.net];
        for &desired in &[30.0, 105.0] {
            let knobs = Axis::Latency
                .knobs_for(&spec.net.machine, desired)
                .expect("latency knob");
            let mut cfg = spec.net;
            cfg.knobs = knobs;
            cfgs.push(cfg);
        }
        for cfg in &cfgs {
            let b = analysis.breakdown(cfg);
            let sum: u64 = b.buckets.iter().map(|d| d.as_nanos()).sum();
            assert_eq!(
                sum,
                b.total.as_nanos(),
                "{}: buckets must telescope",
                app.name()
            );
            let phase_sum: u64 = b.phases.iter().map(|row| row.total.as_nanos()).sum();
            assert_eq!(
                phase_sum,
                b.total.as_nanos(),
                "{}: phase rows must telescope",
                app.name()
            );
            for row in &b.phases {
                let row_sum: u64 = row.buckets.iter().map(|d| d.as_nanos()).sum();
                assert_eq!(row_sum, row.total.as_nanos(), "{}", app.name());
            }
            assert_eq!(b.buckets.len(), CRITICAL_PATH.classes().len());
        }
        // Raising latency never speeds the region up.
        let base = analysis.predict_runtime(&spec.net);
        let slow = analysis.predict_runtime(cfgs.last().unwrap());
        assert!(slow >= base, "{}: latency cannot help", app.name());
    }
}

/// Emitting happens-before edges is pure observation: a fully-traced run
/// has the same runtime, checksum, and event count as an untraced one.
#[test]
fn edge_emission_does_not_perturb_the_run() {
    for app in suite_scaled(SuiteScale::Test) {
        let plain = app.run(&spec());
        let traced = app.run(&spec().with_trace(TraceMode::Full));
        assert_eq!(plain.runtime, traced.runtime, "{}", app.name());
        assert_eq!(plain.check, traced.check, "{}", app.name());
        assert_eq!(plain.events, traced.events, "{}", app.name());
    }
}

/// Summary-mode traces are refused with a hint rather than mispredicted,
/// and fault-injected runs are refused outright.
#[test]
fn predict_refuses_summary_and_faulty_runs() {
    let app = suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == "Radix")
        .expect("radix in suite");
    let spec = spec().with_trace(TraceMode::Summary);
    let out = app.run(&spec);
    let report = out.trace.as_ref().expect("summary trace");
    let err = analyze(report, &spec.net, spec.procs, out.runtime)
        .expect_err("summary mode must be refused");
    assert!(
        err.to_string().contains("Summary mode"),
        "hint should name the mode: {err}"
    );

    let net = NetConfig::berkeley_now().with_faults(nowlab::FaultPlan::with_drop_rate(0.05, 7));
    let spec = RunSpec::new(4)
        .with_net(net)
        .with_event_limit(50_000_000)
        .with_time_limit(SimDelta::from_secs(120.0))
        .with_trace(TraceMode::Full);
    let out = app.run(&spec);
    let report = out.trace.as_ref().expect("trace requested");
    let err = analyze(report, &spec.net, spec.procs, out.runtime)
        .expect_err("faulty runs must be refused");
    assert!(
        err.to_string().contains("not predictable"),
        "refusal should explain itself: {err}"
    );
}
