//! Prediction accuracy: slowdown curves re-priced from ONE baseline trace
//! versus curves measured by actually re-simulating every sweep point.
//!
//! This is the predictor's end-to-end promise: run the app once with full
//! tracing, and the symbolic re-pricing of the message DAG reproduces the
//! measured `--axis L` and `--axis o` sensitivity curves. The golden
//! bounds below are pinned from observed behavior; they are deliberately
//! tight so a regression in either the transport or the DAG pricing shows
//! up as a bound violation rather than a silent drift.
//!
//! Where error remains, it is the frozen-baseline-order approximation:
//! re-pricing keeps the baseline's NIC serialization order, while the
//! re-simulated run may interleave differently (see DESIGN.md §13).

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{sweep_jobs, Axis, RunSpec, SweepableApp, TraceMode};
use nowlab::predict::analyze;

fn spec() -> RunSpec {
    RunSpec::new(4).with_event_limit(300_000_000)
}

fn app_named(name: &str) -> Box<dyn SweepableApp> {
    suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("{name} in suite"))
}

/// Predicts the slowdown at each `desired` value of `axis` from one traced
/// baseline run, returns `(desired, predicted, measured)` triples.
fn curves(app: &dyn SweepableApp, axis: Axis, values: &[f64]) -> Vec<(f64, f64, f64)> {
    let spec = spec();
    let traced = app.run(&spec.with_trace(TraceMode::Full));
    assert!(traced.completed, "{} baseline", app.name());
    let report = traced.trace.as_ref().expect("trace requested");
    let analysis = analyze(report, &spec.net, spec.procs, traced.runtime)
        .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
    let base_ns = analysis.baseline_runtime().as_nanos() as f64;

    let measured = sweep_jobs(app, &spec, axis, values, 1).expect("sweep completes");
    values
        .iter()
        .zip(&measured.points)
        .map(|(&desired, point)| {
            let knobs = axis
                .knobs_for(&spec.net.machine, desired)
                .expect("on-axis value");
            let mut cfg = spec.net;
            cfg.knobs = knobs;
            let predicted = analysis.predict_runtime(&cfg).as_nanos() as f64 / base_ns;
            (desired, predicted, point.slowdown)
        })
        .collect()
}

fn max_rel_error(curve: &[(f64, f64, f64)]) -> f64 {
    curve
        .iter()
        .map(|&(_, pred, meas)| (pred - meas).abs() / meas)
        .fold(0.0, f64::max)
}

/// `bound` is the pinned golden maximum relative error over the whole
/// curve; `knee_bound` is the (tighter) bound applied to grid points up to
/// `knee_max` — the region around the tolerance threshold, where accuracy
/// matters most. Runs are deterministic, so the observed errors are exact;
/// the pins carry a small margin only so that benign transport changes
/// surface as a bound update rather than noise.
fn assert_curve(app: &str, axis: Axis, values: &[f64], bound: f64, knee_max: f64, knee_bound: f64) {
    let app = app_named(app);
    let curve = curves(app.as_ref(), axis, values);
    let err = max_rel_error(&curve);
    eprintln!(
        "{} {:?}: max relative error {:.4} over {:?}",
        app.name(),
        axis,
        err,
        curve
    );
    assert!(
        err <= bound,
        "{} {:?}: max relative error {err:.4} exceeds the pinned bound \
         {bound}: {curve:?}",
        app.name(),
        axis
    );
    for &(desired, pred, meas) in curve.iter().filter(|&&(d, _, _)| d <= knee_max) {
        let e = (pred - meas).abs() / meas;
        assert!(
            e <= knee_bound,
            "{} {:?} at {desired}: knee-region error {e:.4} exceeds \
             {knee_bound}",
            app.name(),
            axis
        );
    }
    // The predictor's known bias is pessimistic: where it errs beyond the
    // knee bound, it must err by over-predicting, never by promising a
    // speedup the machine cannot deliver.
    for &(desired, pred, meas) in &curve {
        let e = (pred - meas) / meas;
        assert!(
            e >= -knee_bound,
            "{} {:?} at {desired}: under-prediction {e:.4}",
            app.name(),
            axis
        );
    }
}

/// Radix sort's latency curve, predicted within the pinned bounds.
#[test]
fn radix_latency_curve_is_predicted_from_one_run() {
    assert_curve(
        "Radix",
        Axis::Latency,
        &[5.0, 15.0, 55.0, 105.0],
        0.31,
        15.0,
        0.10,
    );
}

/// Radix sort's overhead curve, predicted within the pinned bounds.
#[test]
fn radix_overhead_curve_is_predicted_from_one_run() {
    assert_curve(
        "Radix",
        Axis::Overhead,
        &[2.9, 6.9, 23.0, 103.0],
        0.10,
        6.9,
        0.10,
    );
}

/// EM3D's latency curve, predicted within the pinned bounds.
#[test]
fn em3d_latency_curve_is_predicted_from_one_run() {
    assert_curve(
        "EM3D(write)",
        Axis::Latency,
        &[5.0, 15.0, 55.0, 105.0],
        0.42,
        15.0,
        0.10,
    );
}

/// EM3D's overhead curve, predicted within the pinned bounds.
#[test]
fn em3d_overhead_curve_is_predicted_from_one_run() {
    assert_curve(
        "EM3D(write)",
        Axis::Overhead,
        &[2.9, 6.9, 23.0, 103.0],
        0.20,
        2.9,
        0.10,
    );
}
