//! Properties of the per-message LogGP cost trace.
//!
//! Three guarantees the tracing subsystem makes, checked across the whole
//! benchmark suite:
//!
//! 1. **Exact attribution** — for every completed, untangled message, the
//!    seven component spans sum *exactly* (to the nanosecond) to the
//!    end-to-end time. The spans are differences of adjacent
//!    discrete-event timestamps, so this is a telescoping identity the
//!    recorder must not break.
//! 2. **Causal ordering** — the lifecycle timestamps are monotone:
//!    `send_begin ≤ inject ≤ tx_start ≤ wire_done ≤ arrival ≤ visible ≤
//!    pop ≤ done`.
//! 3. **Observation only** — a traced run is *identical* to an untraced
//!    run in every observable output (runtime, checksum, statistics, and
//!    simulator event count): the sink observes, never schedules.

use nowlab::am::{NodeFault, NodeFaultPlan};
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{MetricsMode, RunSpec, SimDelta, TraceMode, TraceReport};
use nowlab::{FaultPlan, NetConfig};

fn spec() -> RunSpec {
    RunSpec::new(4).with_event_limit(300_000_000)
}

fn full_trace(report: &TraceReport) -> &TraceReport {
    assert!(
        !report.records.is_empty(),
        "full-mode trace must keep records"
    );
    report
}

/// Exactness and causality for every message of every app in the suite.
#[test]
fn component_costs_sum_exactly_to_end_to_end_across_the_suite() {
    for app in suite_scaled(SuiteScale::Test) {
        let out = app.run(&spec().with_trace(TraceMode::Full));
        assert!(out.completed, "{}", app.name());
        let report = full_trace(out.trace.as_ref().expect("trace requested"));
        assert!(report.summary.completed > 0, "{}", app.name());
        for r in &report.records {
            if !r.completed() {
                continue;
            }
            assert!(
                !r.tangled(),
                "{} msg {} tangled on a fault-free wire",
                app.name(),
                r.id
            );
            assert_eq!(
                r.component_sum(),
                r.end_to_end(),
                "{} msg {}: components must sum to end-to-end",
                app.name(),
                r.id
            );
            // Causal ordering of the lifecycle timestamps.
            assert!(r.send_begin <= r.inject, "{} msg {}", app.name(), r.id);
            assert!(r.inject <= r.tx_start, "{} msg {}", app.name(), r.id);
            assert!(r.tx_start <= r.wire_done, "{} msg {}", app.name(), r.id);
            assert!(r.wire_done <= r.arrival, "{} msg {}", app.name(), r.id);
            assert!(r.arrival <= r.visible, "{} msg {}", app.name(), r.id);
            assert!(r.visible <= r.pop, "{} msg {}", app.name(), r.id);
            assert!(r.pop <= r.done, "{} msg {}", app.name(), r.id);
            if let Some(h) = r.handler_at() {
                assert!(
                    h >= r.pop,
                    "{} msg {}: handler before pop",
                    app.name(),
                    r.id
                );
            }
        }
        // The per-run totals inherit exactness: component totals plus the
        // e2e histogram agree over the same message population.
        assert_eq!(
            report.summary.totals.iter().copied().sum::<SimDelta>(),
            report.summary.e2e_total,
            "{}: summary totals must telescope too",
            app.name()
        );
    }
}

/// A traced run must be indistinguishable from an untraced run in every
/// observable output — tracing observes the simulation, never perturbs it.
#[test]
fn traced_run_is_identical_to_untraced_run() {
    for app in suite_scaled(SuiteScale::Test) {
        let plain = app.run(&spec());
        assert!(plain.trace.is_none(), "{}", app.name());
        let mut traced = app.run(&spec().with_trace(TraceMode::Full));
        assert!(traced.trace.take().is_some(), "{}", app.name());
        // With the report removed, every remaining field — runtime, stats,
        // checksum, and the simulator event count — must be equal.
        assert_eq!(plain, traced, "{}: tracing changed the run", app.name());
    }
}

/// Both recorders consume one event stream behind one observer cell:
/// whichever of them a run installs — either, or the fan-out of both — it
/// fires the same events and reaches the same results as a run with none.
#[test]
fn every_observer_combination_leaves_the_run_alone() {
    use MetricsMode::{Off, On};
    for name in ["Radix", "EM3D(read)", "Sample"] {
        let app = suite_scaled(SuiteScale::Test)
            .into_iter()
            .find(|a| a.name() == name)
            .expect("app in suite");
        let plain = app.run(&spec());
        for (trace, metrics) in [
            (TraceMode::Summary, Off),
            (TraceMode::Off, On),
            (TraceMode::Summary, On),
            (TraceMode::Full, On),
        ] {
            let mut seen = app.run(&spec().with_trace(trace).with_metrics(metrics));
            assert_eq!(seen.trace.take().is_some(), trace != TraceMode::Off);
            assert_eq!(seen.metrics.take().is_some(), metrics == On);
            assert_eq!(plain, seen, "{name}: {trace:?}/{metrics:?} changed the run");
        }
    }
}

/// The send overhead a record reports is the overhead its sender paid. A
/// straggler pays a multiple of `o_send`, so its records must say so, and
/// `send_begin` must be the instant it started paying — for a reply, the
/// instant the request's receive overhead finished.
#[test]
fn a_stragglers_records_carry_the_overhead_it_paid() {
    let plan = NodeFaultPlan::none().with_fault(NodeFault::straggler(1, 2.0));
    let net = NetConfig::berkeley_now().with_node_faults(plan);
    let app = suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == "EM3D(read)")
        .expect("em3d-read in suite");
    let out = app.run(
        &RunSpec::new(8)
            .with_net(net)
            .with_event_limit(300_000_000)
            .with_trace(TraceMode::Full),
    );
    assert!(out.completed);
    let report = out.trace.expect("trace requested");
    let by_id = |id: u64| {
        let at = report.records.binary_search_by_key(&id, |r| r.id);
        &report.records[at.expect("paired record present")]
    };
    let (mut sends, mut replies) = (0, 0);
    for r in report.records.iter().filter(|r| r.attempts == 1) {
        let paid = if r.src == 1 { 2 } else { 1 };
        assert_eq!(r.o_send(), net.eff_o_send() * paid, "msg {}", r.id);
        sends += u32::from(r.src == 1);
        // The pairing edge hangs on the request (the reply is not yet
        // injected when the edge is observed).
        if let (1, Some(reply)) = (r.dst, r.pair()) {
            assert_eq!(by_id(reply).send_begin, r.done, "reply to {}", r.id);
            replies += 1;
        }
    }
    assert!(
        sends > 100 && replies > 100,
        "{sends} sends, {replies} replies"
    );
}

/// Summary mode (bounded memory) aggregates to exactly the same summary
/// as full mode, just without the per-message records.
#[test]
fn summary_mode_matches_full_mode_aggregation() {
    for app in suite_scaled(SuiteScale::Test) {
        let full = app.run(&spec().with_trace(TraceMode::Full));
        let summary = app.run(&spec().with_trace(TraceMode::Summary));
        let full = full.trace.expect("full trace");
        let summary = summary.trace.expect("summary trace");
        assert!(summary.records.is_empty(), "{}", app.name());
        assert_eq!(full.summary, summary.summary, "{}", app.name());
    }
}

/// On a faulty wire the trace sees the reliability protocol at work —
/// drops and retransmits are recorded — while attribution stays exact for
/// every untangled message.
#[test]
fn faulty_wire_traces_retransmissions_with_exact_attribution() {
    let net = NetConfig::berkeley_now().with_faults(FaultPlan::with_drop_rate(0.05, 7));
    let spec = RunSpec::new(4)
        .with_net(net)
        .with_event_limit(50_000_000)
        .with_time_limit(SimDelta::from_secs(120.0))
        .with_trace(TraceMode::Full);
    let app = suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == "Radix")
        .expect("radix in suite");
    let out = app.run(&spec);
    assert!(out.completed, "radix under 5% drops");
    let report = out.trace.expect("trace requested");
    assert!(report.summary.drops > 0, "fault plan must bite");
    assert!(report.summary.retransmits > 0, "protocol must recover");
    let mut retransmitted = 0u64;
    for r in &report.records {
        if !r.completed() || r.tangled() {
            continue;
        }
        assert_eq!(
            r.component_sum(),
            r.end_to_end(),
            "msg {}: exactness must survive retransmission",
            r.id
        );
        if r.attempts > 1 {
            retransmitted += 1;
        }
    }
    assert!(
        retransmitted > 0,
        "some surviving message was retransmitted"
    );
}
