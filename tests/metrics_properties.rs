//! Cross-layer properties of the metrics subsystem, on real application
//! runs (not the metrics crate's synthetic unit fixtures):
//!
//! 1. **Observer neutrality** — enabling metrics changes *nothing* the
//!    simulation can see: runtime, checksum, completion, event count,
//!    and every per-processor communication counter are bit-identical
//!    between a metered and an unmetered run.
//! 2. **Conservation** — per processor, every sampled window's state
//!    components sum exactly to the window's length, and the run totals
//!    sum exactly to elapsed simulated time. No nanosecond is lost or
//!    double-counted, in integers, with no epsilon.
//! 3. **One vocabulary** — where the trace, metrics and predict views
//!    (or two projections of them) report one label, they report one
//!    number: equal where both count the whole run, bounded as DESIGN.md
//!    §9 documents where one counts the critical path only.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{Axis, MetricsMode, RunSpec, SimDelta, SweepableApp, TraceMode};
use nowlab::metrics::json::{parse, Value};
use nowlab::predict::analyze;
use nowlab::trace::CostClass::{self, *};
use nowlab::trace::{COARSE, CRITICAL_PATH, MESSAGE, PROCESSOR, SHARES};
use nowlab::NetConfig;

fn app_named(name: &str) -> Box<dyn SweepableApp> {
    suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("app {name} not in the test suite"))
}

fn spec(metrics: MetricsMode) -> RunSpec {
    RunSpec::new(4).with_metrics(metrics)
}

#[test]
fn enabling_metrics_never_changes_simulation_results() {
    for name in ["Radix", "EM3D(write)", "Sample"] {
        let app = app_named(name);
        let off = app.run(&spec(MetricsMode::Off));
        let on = app.run(&spec(MetricsMode::On));
        assert!(off.metrics.is_none());
        assert!(on.metrics.is_some(), "{name}: metrics requested but absent");
        assert_eq!(off.runtime, on.runtime, "{name}: runtime perturbed");
        assert_eq!(off.check, on.check, "{name}: checksum perturbed");
        assert_eq!(off.completed, on.completed, "{name}: completion perturbed");
        assert_eq!(off.events, on.events, "{name}: event count perturbed");
        assert_eq!(off.stats, on.stats, "{name}: comm counters perturbed");
    }
}

#[test]
fn sampled_components_sum_exactly_to_elapsed_time_in_every_window() {
    for name in ["Radix", "EM3D(write)"] {
        let app = app_named(name);
        let report = app
            .run(&spec(MetricsMode::On))
            .metrics
            .expect("metrics requested");
        assert!(report.end_ns > 0, "{name}: empty run");
        for (p, series) in report.procs.iter().enumerate() {
            assert!(!series.timeline.is_empty(), "{name} p{p}: no windows");
            for (w, row) in series.timeline.iter().enumerate() {
                let start = w as u64 * report.window_ns;
                let expect = (report.end_ns - start).min(report.window_ns);
                let got: u64 = row.iter().sum();
                assert_eq!(
                    got, expect,
                    "{name} p{p} window {w}: components sum to {got} ns, \
                     window covers {expect} ns"
                );
            }
            let total: u64 = series.totals.iter().sum();
            assert_eq!(
                total, report.end_ns,
                "{name} p{p}: totals must sum to elapsed simulated time"
            );
            let from_windows: u64 = series.timeline.iter().flatten().sum();
            assert_eq!(total, from_windows, "{name} p{p}: timeline disagrees");
        }
        // The phase partition covers the same processor-nanoseconds.
        let phase_ns: u64 = report.summary.phases.iter().map(|ph| ph.elapsed()).sum();
        assert_eq!(
            phase_ns,
            report.end_ns * report.procs.len() as u64,
            "{name}: phases must partition total processor time"
        );
        // Event-density sampling accounts for every fired event.
        let windows = report.end_ns.div_ceil(report.window_ns).max(1) as usize;
        assert_eq!(report.events_per_window.len(), windows, "{name}");
    }
}

#[test]
fn event_density_sampling_accounts_for_every_event() {
    let app = app_named("Radix");
    let out = app.run(&spec(MetricsMode::On));
    let report = out.metrics.expect("metrics requested");
    let sampled: u64 = report.events_per_window.iter().sum();
    assert_eq!(
        sampled, out.events,
        "per-window event counts must sum to the run's total"
    );
}

#[test]
fn one_label_carries_one_number_in_every_view_that_reports_it() {
    let app = app_named("Radix");
    let procs = 8;
    // Every overhead paid, per the parent build's trace and metrics alike.
    for (o_us, overhead_ns) in [(2.9, 86_524_400), (10.0, 298_360_000)] {
        let base = NetConfig::berkeley_now();
        let knobs = Axis::Overhead
            .knobs_for(&base.machine, o_us)
            .expect("on the axis");
        let spec = RunSpec::new(procs)
            .with_net(base.with_knobs(knobs))
            .with_trace(TraceMode::Full)
            .with_metrics(MetricsMode::On);
        let out = app.run(&spec);
        assert!(out.completed, "o = {o_us}: run incomplete");
        let trace = out.trace.expect("trace requested");
        let metrics = out.metrics.expect("metrics requested");
        let summary = &trace.summary;
        assert_eq!(
            summary.completed, summary.msgs,
            "o = {o_us}: a message is open"
        );
        let msg_ns = summary.totals.map(SimDelta::as_nanos);
        let proc_ns = metrics.summary.totals;
        let msg = |c: CostClass| msg_ns[MESSAGE.column(c)];
        let proc = |c: CostClass| proc_ns[PROCESSOR.column(c)];

        // The message and processor views name no class in common; what
        // relates them is the overhead identity, exact to the nanosecond.
        assert!(MESSAGE
            .classes()
            .iter()
            .all(|c| !PROCESSOR.classes().contains(c)));
        assert_eq!(msg(OSend) + msg(ORecv), overhead_ns, "o = {o_us}: trace");
        assert_eq!(
            proc(OSendBase) + proc(ORecvBase) + proc(DeltaO),
            overhead_ns,
            "o = {o_us}: metrics"
        );
        // It is the one group name the two projections share.
        let shared: Vec<&str> = SHARES
            .names
            .into_iter()
            .filter(|name| COARSE.names.contains(name))
            .collect();
        assert_eq!(shared, ["overhead"]);
        let group = |names: [&str; 4]| names.iter().position(|&n| n == "overhead").unwrap();
        assert_eq!(
            SHARES.fold(&msg_ns)[group(SHARES.names)],
            COARSE.fold(&proc_ns)[group(COARSE.names)],
            "o = {o_us}: the projections disagree"
        );

        // The critical path is one chain through the run: no class holds
        // more of it than the run spent on that class. Its `tx_wait` and
        // `rx_hold` are NIC contexts held by the message ahead, so their
        // bound is the contexts' busy time.
        let analysis = analyze(&trace, &spec.net, procs, out.runtime).expect("analyzable");
        let path = analysis.breakdown(&spec.net);
        let nic_tx: u64 = metrics.procs.iter().map(|p| p.nic_tx_total).sum();
        let nic_rx: u64 = metrics.procs.iter().map(|p| p.nic_rx_total).sum();
        for (&class, on_path) in CRITICAL_PATH.classes().iter().zip(path.buckets) {
            let whole = match class {
                TxWait => nic_tx,
                RxHold => nic_rx,
                Idle => summary.idle_total.as_nanos(),
                c if MESSAGE.classes().contains(&c) => msg(c),
                c => proc(c),
            };
            assert!(
                on_path.as_nanos() <= whole,
                "o = {o_us}: {} holds {} ns of the path, {whole} ns of the run",
                class.label(),
                on_path.as_nanos()
            );
        }
    }
}

#[test]
fn the_schemas_pin_each_views_labels() {
    let labels = |schema: &str, path: &[&str]| -> Vec<String> {
        let doc = parse(schema).expect("schema parses");
        let node = path.iter().fold(&doc, |v, key| v.get(key).expect(key));
        let labels = node.get("enum").and_then(Value::as_arr).expect("an enum");
        labels
            .iter()
            .map(|l| l.as_str().unwrap().to_string())
            .collect()
    };
    let metrics = include_str!("../schemas/metrics_report.schema.json");
    let predict = include_str!("../schemas/predict_report.schema.json");
    assert_eq!(
        labels(metrics, &["properties", "states", "items"]),
        PROCESSOR.labels()
    );
    let bucket = [
        "properties",
        "critical_path",
        "properties",
        "buckets",
        "items",
        "properties",
        "name",
    ];
    assert_eq!(labels(predict, &bucket), CRITICAL_PATH.labels());
}
