//! Byte-for-byte goldens for the two projections of the observation
//! stream: the `--metrics FILE` report (run and sweep) and the
//! `--trace-summary` text.
//!
//! The files under `tests/golden/observe_*` were written by the commit
//! *before* `MetricsRecorder` became a consumer of `TraceEvent`s (PR 14),
//! when the AM layer still fed it through its own hooks. Each case is the
//! library form of an 8-processor test-scale `nowlab run … --metrics FILE
//! --trace-summary` line, so both recorders sit behind the cluster's one
//! observer cell at once. The one regenerated file is the straggler trace
//! text: `SendEvent::o_send` now carries the overhead the straggler
//! actually paid, which moves its `o_send` and `end-to-end` rows (diff in
//! CHANGES.md).
//!
//! The metrics files' `version` and `states` labels, alone, have since
//! moved once under DESIGN.md §7's rename-only protocol (the cost
//! vocabulary's processor view); every number is the parent's.
//!
//! `golden/observe_chrome.txt` pins the third projection, the Chrome
//! export: byte length and FNV-1a-64 of `write_chrome_trace` over each
//! case's Full-mode records, plus the critical-path-highlighted export of
//! `predict_golden`'s Radix case. It was written by the commit *before*
//! the recorder's id-indexed store and the integer-formatting writer
//! (PR 16), so neither may move a byte of a `--trace FILE`.

use std::io::{self, Write};

use nowlab::am::{NodeFault, NodeFaultPlan};
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{
    parallel_map, predict_app, sweep_jobs, write_sweep_json, Axis, MetricsMode, RunMeta,
    SweepPointMeta,
};
use nowlab::trace::chrome::{write_chrome_trace, write_chrome_trace_highlighted};
use nowlab::trace::MsgRecord;
use nowlab::{FaultPlan, NetConfig, RunSpec, TraceMode};
use nowlab_sim::{SimDelta, SimTime};

struct Case {
    name: &'static str,
    app: &'static str,
    net: NetConfig,
    metrics: &'static str,
    trace: &'static str,
}

fn cases() -> Vec<Case> {
    let now = NetConfig::berkeley_now();
    let node =
        |f: NodeFault| now.with_node_faults(NodeFaultPlan::none().with_seed(1).with_fault(f));
    vec![
        // nowlab run --app radix
        Case {
            name: "radix",
            app: "Radix",
            net: now,
            metrics: include_str!("golden/observe_radix.metrics.json"),
            trace: include_str!("golden/observe_radix.trace.txt"),
        },
        // … --app em3d-read --drop-rate 0.02 --fault-seed 7
        Case {
            name: "em3d_read_drop",
            app: "EM3D(read)",
            net: now.with_faults(FaultPlan::with_drop_rate(0.02, 7)),
            metrics: include_str!("golden/observe_em3d_read_drop.metrics.json"),
            trace: include_str!("golden/observe_em3d_read_drop.trace.txt"),
        },
        // … --app sample --crash p3@1ms (Sample's policy is Continue)
        Case {
            name: "sample_crash",
            app: "Sample",
            net: node(NodeFault::crash(
                3,
                SimTime::ZERO + SimDelta::from_micros_int(1_000),
            )),
            metrics: include_str!("golden/observe_sample_crash.metrics.json"),
            trace: include_str!("golden/observe_sample_crash.trace.txt"),
        },
        // … --app em3d-read --straggler p1x2.0
        Case {
            name: "em3d_read_straggler",
            app: "EM3D(read)",
            net: node(NodeFault::straggler(1, 2.0)),
            metrics: include_str!("golden/observe_em3d_read_straggler.metrics.json"),
            trace: include_str!("golden/observe_em3d_read_straggler.trace.txt"),
        },
    ]
}

/// The CLI's `guard`: an event budget always, a 120 s virtual deadline on
/// a faulty machine.
fn spec_of(net: NetConfig) -> RunSpec {
    let spec = RunSpec::new(8)
        .with_net(net)
        .with_event_limit(300_000_000)
        .with_trace(TraceMode::Summary)
        .with_metrics(MetricsMode::On);
    if net.faults.is_active() || net.node_faults.is_active() {
        spec.with_time_limit(SimDelta::from_micros_int(120_000_000))
    } else {
        spec
    }
}

#[test]
fn both_projections_match_the_parent_goldens_at_every_job_count() {
    let cases = cases();
    for jobs in [1, 2, 4] {
        let got = parallel_map(jobs, &cases, |_, case| {
            let app = suite_scaled(SuiteScale::Test)
                .into_iter()
                .find(|a| a.name() == case.app)
                .unwrap_or_else(|| panic!("{} in suite", case.app));
            let spec = spec_of(case.net);
            let out = app.run(&spec);
            let meta = RunMeta {
                app: app.name(),
                procs: spec.procs,
                seed: spec.seed,
            };
            let mut buf = Vec::new();
            out.metrics
                .expect("metrics requested")
                .write_json(&meta, &mut buf)
                .expect("in-memory write");
            let metrics = String::from_utf8(buf).expect("writer emits ASCII");
            (
                metrics,
                out.trace.expect("trace requested").summary.render(),
            )
        });
        for (case, (metrics, trace)) in cases.iter().zip(got) {
            assert!(
                metrics == case.metrics,
                "{}: metrics report differs from the golden at --jobs {jobs}",
                case.app
            );
            assert_eq!(
                trace, case.trace,
                "{}: trace summary differs from the golden at --jobs {jobs}",
                case.app
            );
        }
    }
}

/// `golden/sweep_radix_overhead.metrics.json` pins the one report kind the
/// run goldens do not, the sweep report: the library form of `nowlab sweep
/// --app radix --procs 4 --scale test --axis overhead --metrics FILE`,
/// written by the commit *before* the report writers became one
/// `json::Writer`, its `version` and `states` renamed since as the run
/// goldens' were.
#[test]
fn the_sweep_report_matches_the_parent_golden_at_every_job_count() {
    let app = suite_scaled(SuiteScale::Test)
        .into_iter()
        .find(|a| a.name() == "Radix")
        .expect("Radix in suite");
    let spec = RunSpec::new(4)
        .with_event_limit(300_000_000)
        .with_metrics(MetricsMode::On);
    let axis = Axis::Overhead;
    for jobs in [1, 2] {
        let sweep = sweep_jobs(app.as_ref(), &spec, axis, &axis.paper_values(), jobs)
            .expect("baseline completes");
        let metas: Vec<SweepPointMeta<'_>> = sweep
            .points
            .iter()
            .map(|p| SweepPointMeta {
                x: p.desired,
                runtime_ns: p.runtime.as_nanos(),
                slowdown: p.slowdown,
                summary: p.metrics.as_ref().expect("metrics requested"),
            })
            .collect();
        let mut buf = Vec::new();
        write_sweep_json(&sweep.app, axis.label(), spec.procs, &metas, &mut buf)
            .expect("in-memory write");
        assert!(
            buf == include_bytes!("golden/sweep_radix_overhead.metrics.json"),
            "sweep report differs from the golden at --jobs {jobs}"
        );
    }
}

/// A byte sink that keeps only the length and the FNV-1a-64 of what it
/// was handed, so a megabyte export is digested without being held.
struct Fnv {
    hash: u64,
    bytes: u64,
}

impl Fnv {
    fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }

    fn line(&self, name: &str) -> String {
        format!("{name} {} {:016x}\n", self.bytes, self.hash)
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `name bytes fnv1a64` line per export: the four cases in Full mode,
/// then the Radix prediction with its critical messages highlighted.
fn chrome_digests(jobs: usize) -> String {
    let cases = cases();
    let items: Vec<Option<&Case>> = cases.iter().map(Some).chain([None]).collect();
    parallel_map(jobs, &items, |_, item| {
        let suite = suite_scaled(SuiteScale::Test);
        let app = |name: &str| {
            suite
                .iter()
                .find(|a| a.name() == name)
                .unwrap_or_else(|| panic!("{name} in suite"))
        };
        let mut digest = Fnv::new();
        match item {
            Some(case) => {
                let spec = spec_of(case.net).with_trace(TraceMode::Full);
                let report = app(case.app).run(&spec).trace.expect("trace requested");
                write_chrome_trace(&report.records, &mut digest).expect("in-memory write");
                digest.line(case.name)
            }
            None => {
                let spec = RunSpec::new(8).with_event_limit(300_000_000);
                let axes = [Axis::Overhead, Axis::Latency];
                let p = predict_app(app("Radix").as_ref(), &spec, &axes, 1)
                    .unwrap_or_else(|e| panic!("Radix: {e}"));
                let critical = &p.breakdown.critical_msgs;
                write_chrome_trace_highlighted(&p.trace.records, critical, &mut digest)
                    .expect("in-memory write");
                digest.line("predict_radix_highlighted")
            }
        }
    })
    .concat()
}

#[test]
fn chrome_exports_match_the_parent_goldens_at_every_job_count() {
    let golden = include_str!("golden/observe_chrome.txt");
    for jobs in [1, 2, 4] {
        assert_eq!(
            chrome_digests(jobs),
            golden,
            "Chrome export differs from the golden at --jobs {jobs}"
        );
    }
}

/// Everything a record says, as words: identity, the eight instants, the
/// seven spans, the two optional edges, the two verdicts.
fn words(r: &MsgRecord) -> [u64; 29] {
    let at = |t: SimTime| t.as_nanos();
    let opt = |v: Option<u64>| [u64::from(v.is_some()), v.unwrap_or(0)];
    let [has_handler, handler] = opt(r.handler_at().map(at));
    let [has_pair, pair] = opt(r.pair());
    [
        r.id,
        u64::from(r.src),
        u64::from(r.dst),
        u64::from(r.reply),
        r.kind as u64,
        u64::from(r.bytes),
        u64::from(r.attempts),
        u64::from(r.dropped_attempts),
        at(r.send_begin),
        at(r.inject),
        at(r.tx_start),
        at(r.wire_done),
        at(r.arrival),
        at(r.visible),
        at(r.pop),
        at(r.done),
        r.o_send().as_nanos(),
        r.tx_wait().as_nanos(),
        r.dma().as_nanos(),
        r.wire().as_nanos(),
        r.rx_hold().as_nanos(),
        r.rx_queue().as_nanos(),
        r.o_recv().as_nanos(),
        has_handler,
        handler,
        has_pair,
        pair,
        u64::from(r.completed()),
        u64::from(r.tangled()),
    ]
}

/// `golden/trace_records.txt` pins what the Chrome export cannot (it skips
/// incomplete records): per case, the record count, how many are
/// incomplete, how many tangled, and an FNV-1a-64 over [`words`] of every
/// record in id order. Written by the commit *before* the record stopped
/// storing its spans (PR 22), by this test reading the stored fields where
/// it now calls accessors.
#[test]
fn records_match_the_parent_golden() {
    let cases = cases();
    let got = parallel_map(2, &cases, |_, case| {
        let app = suite_scaled(SuiteScale::Test)
            .into_iter()
            .find(|a| a.name() == case.app)
            .unwrap_or_else(|| panic!("{} in suite", case.app));
        let spec = spec_of(case.net).with_trace(TraceMode::Full);
        let records = app.run(&spec).trace.expect("trace requested").records;
        let mut digest = Fnv::new();
        for r in records.iter() {
            for w in words(&r) {
                digest.write_all(&w.to_le_bytes()).expect("in-memory write");
            }
        }
        format!(
            "{} {} {} {} {:016x}\n",
            case.name,
            records.len(),
            records.iter().filter(|r| !r.completed()).count(),
            records.iter().filter(|r| r.tangled()).count(),
            digest.hash
        )
    })
    .concat();
    assert_eq!(got, include_str!("golden/trace_records.txt"));
}
