//! Byte-for-byte goldens for the `nowlab-predict-report` file, and the
//! two `analyze` outcomes no application run reaches.
//!
//! The JSON files under `tests/golden/` were written by the commit
//! *before* the DAG was compiled into price classes (PR 13). Every
//! predicted runtime, threshold, `edges_on_path`, phase row and critical
//! message id is in those bytes, so an evaluation-path change that moves
//! any of them — at any `--jobs` setting — fails here.
//!
//! `predict_digests.txt` digests the same file for all ten apps along all
//! four axes — the DAG shapes Radix and EM3D(write) do not have: idle
//! exits, several payload sizes, lock back-off. It was written by
//! `f640445`, the last commit whose DAG stored its edges; never
//! regenerate it with the build under test.
//!
//! Both kinds have since moved once under DESIGN.md §7's rename-only
//! protocol (the cost vocabulary's critical-path view): the JSON files'
//! `version` and bucket names, and hence the digests' `fnv1a64` column,
//! which is FNV-1a-64 of the parent's file with those renames applied.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{predict_app, Axis, RunSpec};
use nowlab::predict::{analyze, PredictError};
use nowlab::trace::{Mark, MsgRecord, TraceReport};
use nowlab::NetConfig;
use nowlab_sim::{SimDelta, SimTime};

fn report_json(name: &str, jobs: usize) -> String {
    let app = suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("{name} in suite"));
    let spec = RunSpec::new(8).with_event_limit(300_000_000);
    let p = predict_app(app.as_ref(), &spec, &[Axis::Overhead, Axis::Latency], jobs)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut buf = Vec::new();
    p.write_json(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("writer emits ASCII")
}

#[test]
fn report_bytes_match_the_pre_compilation_golden_at_every_job_count() {
    for (name, golden) in [
        ("Radix", include_str!("golden/predict_radix_p8.json")),
        (
            "EM3D(write)",
            include_str!("golden/predict_em3d_write_p8.json"),
        ),
    ] {
        for jobs in [1, 2, 4] {
            assert!(
                report_json(name, jobs) == golden,
                "{name}: report differs from the golden at --jobs {jobs}"
            );
        }
    }
}

/// One line per suite app at four processors: the DAG's size, the length
/// of the baseline critical path, and FNV-1a-64 of the report file.
fn digests(jobs: usize) -> String {
    let axes = [
        Axis::Overhead,
        Axis::Gap,
        Axis::Latency,
        Axis::BulkBandwidth,
    ];
    let spec = RunSpec::new(4).with_event_limit(300_000_000);
    let mut text = String::new();
    for app in suite_scaled(SuiteScale::Test) {
        let p = predict_app(app.as_ref(), &spec, &axes, jobs)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let mut buf = Vec::new();
        p.write_json(&mut buf).expect("in-memory write");
        let fnv = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        text += &format!(
            "{} nodes={} edges={} edges_on_path={} fnv1a64={fnv:016x}\n",
            p.app, p.nodes, p.edges, p.breakdown.edges_on_path
        );
    }
    text
}

#[test]
fn every_app_matches_its_parent_written_digest_at_every_job_count() {
    let golden = include_str!("golden/predict_digests.txt");
    for jobs in [1, 2] {
        let ours = digests(jobs);
        assert!(
            ours == golden,
            "--jobs {jobs}: digests differ from the golden\n{ours}"
        );
    }
}

/// A short message whose host-side instants are given; everything the
/// DAG builder does not read is left at zero.
fn record(
    id: u64,
    src: u16,
    dst: u16,
    send: (u64, u64),
    tx_start: u64,
    visible: u64,
    recv: Option<(u64, u64)>,
) -> MsgRecord {
    let (pop, done) = recv.unwrap_or((0, 0));
    let at = [
        send.0, send.1, tx_start, tx_start, visible, visible, pop, done,
    ];
    MsgRecord::from_instants(
        id,
        src,
        dst,
        Mark::User,
        0,
        at.map(SimTime::from_nanos),
        recv.is_some(),
    )
}

/// Two messages, each popped (blocking) before the *other* was sent: the
/// receive of B precedes the send of A on processor 0 and vice versa on
/// processor 1, so happens-before loops. Only a corrupt trace looks like
/// this, and it must be refused, not evaluated.
#[test]
fn a_cyclic_trace_is_refused() {
    let report = TraceReport {
        records: [
            record(1, 0, 1, (30, 40), 40, 10, Some((10, 20))),
            record(2, 1, 0, (30, 40), 40, 10, Some((10, 20))),
        ]
        .into_iter()
        .collect(),
        ..TraceReport::default()
    };
    let cfg = NetConfig::berkeley_now();
    match analyze(&report, &cfg, 2, SimDelta::from_nanos(40)) {
        Err(PredictError::Cyclic(why)) => assert!(why.contains("cycle"), "{why}"),
        other => panic!("expected Cyclic, got {other:?}"),
    }
}

/// A run cut short: the second message reached the wire but was never
/// received. Its receive side is left out of the DAG, the rest still
/// validates to the nanosecond, and the caller is told.
#[test]
fn a_truncated_run_analyzes_with_a_warning() {
    let cfg = NetConfig::berkeley_now();
    let (gap, lat) = (cfg.eff_gap().as_nanos(), cfg.eff_latency().as_nanos());
    let o = 1_000;
    let vis_a = o + lat;
    let tx_b = (2 * o).max(o + gap);
    let report = TraceReport {
        records: [
            record(1, 0, 1, (0, o), o, vis_a, Some((vis_a, vis_a + o))),
            record(2, 0, 1, (o, 2 * o), tx_b, 0, None),
        ]
        .into_iter()
        .collect(),
        ..TraceReport::default()
    };
    // No region marks: the prediction is the whole-run makespan.
    let makespan = SimDelta::from_nanos((vis_a + o).max(tx_b));
    let analysis = analyze(&report, &cfg, 2, makespan).expect("truncated run still analyzes");
    assert_eq!(analysis.predict_runtime(&cfg), makespan);
    assert!(
        analysis
            .warnings()
            .iter()
            .any(|w| w.contains("1 message(s) never completed")),
        "{:?}",
        analysis.warnings()
    );
}
