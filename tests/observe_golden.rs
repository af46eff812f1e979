//! Byte-for-byte goldens for the two projections of the observation
//! stream: the `--metrics FILE` report and the `--trace-summary` text.
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

use nowlab::am::{NodeFault, NodeFaultPlan};
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{parallel_map, MetricsMode, RunMeta};
use nowlab::{FaultPlan, NetConfig, RunSpec, TraceMode};
use nowlab_sim::{SimDelta, SimTime};

struct Case {
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
            app: "Radix",
            net: now,
            metrics: include_str!("golden/observe_radix.metrics.json"),
            trace: include_str!("golden/observe_radix.trace.txt"),
        },
        // … --app em3d-read --drop-rate 0.02 --fault-seed 7
        Case {
            app: "EM3D(read)",
            net: now.with_faults(FaultPlan::with_drop_rate(0.02, 7)),
            metrics: include_str!("golden/observe_em3d_read_drop.metrics.json"),
            trace: include_str!("golden/observe_em3d_read_drop.trace.txt"),
        },
        // … --app sample --crash p3@1ms (Sample's policy is Continue)
        Case {
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
