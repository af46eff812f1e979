//! A run frees its whole simulation, however it ends.
//!
//! An unfinished task's future holds `Sim` handles (through its port, its
//! `Ctx`, a pending `Sleep`), and the simulation holds the task: a cycle
//! that nothing frees unless the run drops its unfinished tasks. A run
//! that stops short (an event limit, a crashed processor whose body never
//! returns, a halt on a confirmed death) or a calibration burst whose tasks
//! end waiting forever would otherwise leave its whole cluster live.
//!
//! The cluster's own state must not join that cycle: it holds no `Sim`,
//! while the kernel's hook table and pending timers hold it. A bare
//! cluster (no Split-C) with those timers pending checks this directly.
//!
//! Alone in its binary, so the counting allocator (`common`) sees these
//! runs and nothing else.

mod common;

use common::{residual_bytes, Counting};
use nowlab_am::{AmCluster, FaultPlan, Mark, Payload, ReplyData};
use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::calib::burst_total;
use nowlab_core::{NetConfig, NodeFault, NodeFaultPlan, RunOutcome, RunSpec, SimDelta, SimTime};
use nowlab_sim::{Sim, StopReason};

#[global_allocator]
static ALLOC: Counting = Counting;

const PROCS: usize = 8;

/// Runs `app` at test scale under `spec`, checks the outcome, and returns
/// the bytes the run left live after its outcome was dropped.
fn leaked(app: &str, spec: RunSpec, check: impl Fn(&RunOutcome)) -> isize {
    let suite = suite_scaled(SuiteScale::Test);
    let app = suite
        .iter()
        .find(|a| a.name() == app)
        .unwrap_or_else(|| panic!("no app named {app}"));
    residual_bytes(|| {
        let out = app.run(&spec);
        check(&out);
        out
    })
}

fn crash_p3_at_2ms() -> NetConfig {
    let at = SimTime::ZERO + SimDelta::from_millis(2.0);
    NetConfig::berkeley_now()
        .with_node_faults(NodeFaultPlan::none().with_fault(NodeFault::crash(3, at)))
}

#[test]
fn a_healthy_run_leaves_nothing_live() {
    let bytes = leaked("Radix", RunSpec::new(PROCS), |out| assert!(out.completed));
    assert_eq!(bytes, 0, "a healthy run left {bytes} B live");
}

#[test]
fn an_event_limited_run_leaves_nothing_live() {
    let spec = RunSpec::new(PROCS).with_event_limit(2_000);
    let bytes = leaked("EM3D(read)", spec, |out| assert!(!out.completed));
    assert_eq!(bytes, 0, "an event-limited run left {bytes} B live");
}

#[test]
fn a_crash_stop_run_leaves_nothing_live() {
    // Sample continues past a dead member: the run ends idle with the
    // crashed processor's body still pending.
    let spec = RunSpec::new(PROCS).with_net(crash_p3_at_2ms());
    let bytes = leaked("Sample", spec, |out| {
        assert!(!out.completed);
        assert!(out.abort.is_none());
    });
    assert_eq!(bytes, 0, "a crash-stop run left {bytes} B live");
}

#[test]
fn a_halted_run_leaves_nothing_live() {
    // Radix aborts on a confirmed death: the kernel halts mid-run.
    let spec = RunSpec::new(PROCS).with_net(crash_p3_at_2ms());
    let bytes = leaked("Radix", spec, |out| assert!(out.abort.is_some()));
    assert_eq!(bytes, 0, "a halted run left {bytes} B live");
}

#[test]
fn a_calibration_burst_leaves_nothing_live() {
    // Both of its tasks end waiting forever, so every burst stops short.
    let bytes = residual_bytes(|| burst_total(NetConfig::berkeley_now(), 16, SimDelta::ZERO));
    assert_eq!(bytes, 0, "a calibration burst left {bytes} B live");
}

/// When processor 3 of [`timers_of_every_kind`] recovers.
const RECOVERY_MS: f64 = 20.0;

/// Heartbeat ticks, one crash-recovery wake and, on a wire that drops 2 %
/// of messages, retransmit timers: every kind of timer the cluster
/// schedules that holds its state.
fn timers_of_every_kind() -> NetConfig {
    let at = SimTime::ZERO + SimDelta::from_millis(1.0);
    let recovery = NodeFault::crash_recovery(3, at, SimDelta::from_millis(RECOVERY_MS - 1.0));
    NetConfig::berkeley_now()
        .with_faults(FaultPlan::with_drop_rate(0.02, 7))
        .with_node_faults(NodeFaultPlan::none().with_fault(recovery))
}

#[test]
fn a_bare_cluster_stopped_with_timers_pending_leaves_nothing_live() {
    let net = timers_of_every_kind();
    let bytes = residual_bytes(|| {
        let cluster = AmCluster::new(Sim::new(), net, 4);
        let sim = cluster.sim().clone();
        let h = cluster.register_handler(|_| ReplyData::ack());
        for me in 0..4 {
            let port = cluster.port(me);
            let next = (me + 1) % 4;
            sim.spawn(async move {
                while !port.peer_dead(next) {
                    port.request(next, h, [0; 4], Payload::None, Mark::Read)
                        .await;
                }
                port.wait_until(|| false).await;
            });
        }
        sim.set_event_limit(Some(5_000));
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::EventLimit);
        assert!(report.final_time < SimTime::ZERO + SimDelta::from_millis(RECOVERY_MS));
        let stats = cluster.stats();
        assert!(stats.per_proc.iter().any(|c| c.retransmits > 0));
        assert!(stats.per_proc.iter().all(|c| c.heartbeats > 0));
        assert!(sim.pending_timers() > 0);
        sim.drop_unfinished_tasks();
    });
    assert_eq!(bytes, 0, "a bare cluster left {bytes} B live");
}

#[test]
fn a_bare_cluster_dropped_unrun_leaves_nothing_live() {
    // Its first heartbeat tick and its recovery wake are already pending.
    let net = timers_of_every_kind();
    let bytes = residual_bytes(|| AmCluster::new(Sim::new(), net, 4));
    assert_eq!(bytes, 0, "an unrun cluster left {bytes} B live");
}
