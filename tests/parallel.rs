//! Parallel-sweep equivalence: the worker pool must be invisible in the
//! results. For every job count, an `AxisSweep` — slowdowns, checksums,
//! per-processor `CommStats`, and the drop/retransmit/timeout counters of
//! a seeded fault plan — must compare equal (`PartialEq` over every
//! field) to the sequential `--jobs 1` sweep. Any divergence means run
//! state leaked across the run boundary.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{sweep_jobs, sweep_many, Axis, NetConfig, SimDelta, SweepError, TraceMode};
use nowlab::{FaultPlan, RunSpec};

/// A faulty-wire spec: deterministic drops engage the reliability
/// protocol, so retransmit/timeout counters are live and any cross-thread
/// nondeterminism would show up in them. The time limit turns a total
/// stall into an N/A instead of a hang.
fn faulty_spec(procs: usize) -> RunSpec {
    let net = NetConfig::berkeley_now().with_faults(FaultPlan::with_drop_rate(0.05, 7));
    RunSpec::new(procs)
        .with_net(net)
        .with_seed(11)
        .with_event_limit(50_000_000)
        .with_time_limit(SimDelta::from_secs(120.0))
}

/// A short axis: baseline plus two slowed points, enough to produce
/// distinct per-point outcomes without benchmark-scale runtimes.
const O_VALUES: [f64; 3] = [2.9, 13.0, 53.0];

#[test]
fn full_suite_parallel_sweep_is_byte_identical_to_sequential() {
    let apps = suite_scaled(SuiteScale::Test);
    let spec = faulty_spec(4);
    for app in &apps {
        let seq = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 1);
        for jobs in [2, 4] {
            let par = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, jobs);
            assert_eq!(par, seq, "{}: jobs={jobs} diverged", app.name());
        }
        // The seeded fault plan must actually be exercising the reliable
        // path — otherwise this test proves nothing about those counters.
        if let Ok(s) = &seq {
            assert!(
                s.baseline.stats.total_drops() > 0,
                "{}: fault plan injected no drops",
                app.name()
            );
        }
    }
}

#[test]
fn suite_level_fanout_matches_per_app_sequential_sweeps() {
    let apps = suite_scaled(SuiteScale::Test);
    let spec = faulty_spec(4);
    let seq: Vec<Result<_, SweepError>> = apps
        .iter()
        .map(|app| sweep_jobs(app.as_ref(), &spec, Axis::Latency, &O_VALUES, 1))
        .collect();
    for jobs in [2, 4] {
        let par = sweep_many(&apps, &spec, Axis::Latency, &O_VALUES, jobs);
        assert_eq!(par, seq, "jobs={jobs} suite fan-out diverged");
    }
}

#[test]
fn parallel_sweep_with_tracing_matches_sequential() {
    // Tracing adds per-run recorder state (the sink lives inside each
    // simulation); a parallel sweep must neither share nor reorder it —
    // every point's `TraceSummary` compares equal to the sequential run's.
    let apps = suite_scaled(SuiteScale::Test);
    let spec = faulty_spec(4).with_trace(TraceMode::Summary);
    let app = &apps[0];
    let seq = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 1)
        .expect("baseline completes under 5% drops");
    for p in &seq.points {
        let s = p.trace.as_ref().expect("tracing was requested");
        assert!(s.completed > 0, "{}: empty trace", app.name());
    }
    let par = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 2)
        .expect("baseline completes under 5% drops");
    assert_eq!(par, seq, "jobs=2 traced sweep diverged");
}

#[test]
fn sequential_and_parallel_agree_on_sweep_errors() {
    // An app whose baseline cannot complete: zero time budget.
    let apps = suite_scaled(SuiteScale::Test);
    let spec = faulty_spec(4).with_time_limit(SimDelta::from_micros(1.0));
    let app = &apps[0];
    let seq = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 1)
        .expect_err("1us budget cannot fit a baseline");
    let par = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 4)
        .expect_err("1us budget cannot fit a baseline");
    assert_eq!(seq, par, "error payloads must match across job counts");
    assert!(matches!(seq, SweepError::IncompleteBaseline { .. }));
}

/// A node-fault spec: processor 1 freezes at 500 µs and thaws 300 µs
/// later — short enough that no detector confirms a death (the run
/// completes on all processors), long enough that heartbeat, suspicion,
/// and retransmission state are all live across worker threads.
fn crash_recovery_spec(procs: usize) -> RunSpec {
    use nowlab::core::{NodeFault, NodeFaultPlan, SimTime};
    let plan = NodeFaultPlan::none()
        .with_seed(0xC4A5)
        .with_fault(NodeFault::crash_recovery(
            1,
            SimTime::ZERO + SimDelta::from_micros(500.0),
            SimDelta::from_micros(300.0),
        ));
    RunSpec::new(procs)
        .with_net(NetConfig::berkeley_now().with_node_faults(plan))
        .with_seed(11)
        .with_event_limit(50_000_000)
        .with_time_limit(SimDelta::from_secs(120.0))
}

#[test]
fn crash_recovery_sweep_is_byte_identical_across_job_counts() {
    let apps = suite_scaled(SuiteScale::Test);
    let spec = crash_recovery_spec(4);
    for app in &apps {
        let seq = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, 1);
        for jobs in [2, 4] {
            let par = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &O_VALUES, jobs);
            assert_eq!(
                par,
                seq,
                "{}: jobs={jobs} diverged under node faults",
                app.name()
            );
        }
        // The plan must actually engage the detector plane, or this test
        // proves nothing about its determinism.
        if let Ok(s) = &seq {
            assert!(
                s.baseline.stats.total_heartbeats() > 0,
                "{}: no heartbeats flowed",
                app.name()
            );
        }
    }
}

#[test]
fn crash_stop_degraded_outcome_is_identical_across_concurrent_replicas() {
    use nowlab::apps::sample::{Sample, SampleParams};
    use nowlab::core::{parallel_map, NodeFault, NodeFaultPlan, SimTime};
    use nowlab::SweepableApp as _;
    // Sample runs under DegradePolicy::Continue: with processor 1 dead
    // for good, the survivors confirm the death and finish degraded.
    let plan = NodeFaultPlan::none()
        .with_seed(0xDEAD)
        .with_fault(NodeFault::crash(
            1,
            SimTime::ZERO + SimDelta::from_micros(800.0),
        ));
    let spec = RunSpec::new(4)
        .with_net(NetConfig::berkeley_now().with_node_faults(plan))
        .with_seed(7)
        .with_event_limit(50_000_000)
        .with_time_limit(SimDelta::from_secs(120.0));
    let app = Sample::new(SampleParams::small());
    let seq = app.run(&spec);
    assert!(
        seq.stats.total_peer_deaths() > 0,
        "p1 was never confirmed dead"
    );
    assert_eq!(seq.completers, 3, "three survivors must finish");
    for jobs in [2, 4] {
        let replicas = parallel_map(jobs, &[(), (), (), ()], |_, _| app.run(&spec));
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(*r, seq, "replica {i} of jobs={jobs} diverged");
        }
    }
}
