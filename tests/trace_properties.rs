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
//! 4. **Lossless storage** — every record reads back from the packed
//!    store as the recorder closed it, healthy or faulty.

use nowlab::am::{NodeFault, NodeFaultPlan};
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{MetricsMode, RunSpec, SimDelta, SimTime, TraceMode, TraceReport};
use nowlab::trace::Records;
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
        for r in report.records.iter() {
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
    let ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
    let by_id = |id: u64| {
        let at = ids.binary_search(&id).expect("paired record present");
        report.records.get(at).expect("a record per id")
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
    for r in report.records.iter() {
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

/// The packed store loses nothing. The recorder folded each record into
/// the summary as it closed it, before packing it, so the summary is a
/// witness of every instant: the spans, end-to-end times and verdicts read
/// back must add up to it exactly. (In a build with debug assertions the
/// recorder also reads back every record it packs, and every late patch,
/// and compares it with the one it holds.) A store rebuilt from the
/// records read back equals the recorder's. The store keeps whole exactly
/// the records a 64-byte entry cannot hold: none in a healthy run, the
/// tangled retransmissions whose pop precedes their `send_begin` under
/// faults, and the messages queued through a 5 s pause.
#[test]
fn every_record_reads_back_as_the_recorder_closed_it() {
    let now = NetConfig::berkeley_now();
    let node =
        |f: NodeFault| now.with_node_faults(NodeFaultPlan::none().with_seed(1).with_fault(f));
    let ms = |x: u64| SimDelta::from_micros_int(1_000 * x);
    let plans = [
        ("healthy", now),
        (
            "drop 0.03",
            now.with_faults(FaultPlan::with_drop_rate(0.03, 5)),
        ),
        (
            "crash p2@2ms+1ms",
            node(NodeFault::crash_recovery(2, SimTime::ZERO + ms(2), ms(1))),
        ),
        ("straggler p1x2.0", node(NodeFault::straggler(1, 2.0))),
        // Messages queued through a pause longer than an offset holds.
        (
            "crash p2@2ms+5s",
            node(NodeFault::crash_recovery(
                2,
                SimTime::ZERO + ms(2),
                ms(5_000),
            )),
        ),
    ];
    // An instant before `send_begin`, one 2³² − 1 ns or more after it.
    let (mut before, mut beyond) = (0, 0);
    for (plan, net) in plans {
        let spec = spec()
            .with_net(net)
            .with_time_limit(SimDelta::from_secs(120.0))
            .with_trace(TraceMode::Full);
        for app in suite_scaled(SuiteScale::Test) {
            let what = format!("{} under {plan}", app.name());
            let report = app.run(&spec).trace.expect("trace requested");
            let records = &report.records;
            let s = &report.summary;
            let mut totals = [SimDelta::ZERO; 7];
            let (mut e2e, mut completed, mut tangled) = (SimDelta::ZERO, 0, 0);
            let (mut last_id, mut unfit) = (0, 0);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(records.get(i), Some(r), "{what}: record {i}");
                assert!(r.id > last_id, "{what}: ids ascend");
                last_id = r.id;
                let offsets = [
                    r.inject,
                    r.tx_start,
                    r.wire_done,
                    r.arrival,
                    r.visible,
                    r.pop,
                    r.done,
                ]
                .into_iter()
                .chain(r.handler_at())
                .map(|t| t.as_nanos().checked_sub(r.send_begin.as_nanos()));
                let (b, l) = offsets.fold((false, false), |(b, l), d| {
                    (b || d.is_none(), l || d >= Some(u64::from(u32::MAX)))
                });
                let big = r.id.max(r.pair().unwrap_or(0)) > u64::from(u32::MAX);
                (before, beyond) = (before + u32::from(b), beyond + u32::from(l));
                unfit += usize::from(b || l || big);
                if r.completed() {
                    for (total, span) in totals.iter_mut().zip(r.spans()) {
                        *total += span;
                    }
                    e2e += r.end_to_end();
                    completed += 1;
                    tangled += u64::from(r.tangled());
                }
            }
            assert_eq!(totals, s.totals, "{what}: spans");
            assert_eq!(e2e, s.e2e_total, "{what}: end-to-end");
            assert_eq!((completed, tangled), (s.completed, s.tangled), "{what}");
            assert_eq!(records.len() as u64, s.msgs, "{what}: one record a message");
            let rebuilt: Records = records.iter().collect();
            assert_eq!(&rebuilt, records, "{what}: a store of the same records");
            assert_eq!(records.wide(), unfit, "{what}: kept whole");
            if plan == "healthy" {
                assert_eq!(unfit, 0, "{what}: a healthy record fits");
            }
        }
    }
    assert!(before > 0 && beyond > 0, "{before} before, {beyond} beyond");
}
