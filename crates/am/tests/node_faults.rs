//! Properties of the node-level failure model (ISSUE: crash/recovery
//! faults, heartbeat failure detection; DESIGN.md §11).
//!
//! The headline properties:
//!
//! 1. an inert [`NodeFaultPlan`] leaves runs bit-identical to the healthy
//!    transport, even with customized detector timing (zero-cost default);
//! 2. a crash-stop node is confirmed dead by every survivor's detector,
//!    and every requester blocked on it unblocks with the protocol's
//!    default reply — bounded events, never a hang;
//! 3. a crash-recovery downtime shorter than the confirm threshold is a
//!    retracted (false) suspicion, not a death, and the frozen task
//!    resumes exactly where it paused;
//! 4. a straggler's host charges scale by its multiplier while the wire
//!    itself stays at full speed;
//! 5. the same plan reproduces the identical run.

mod util;

use std::cell::Cell;
use std::rc::Rc;

use nowlab_am::{AmCluster, Mark, NetConfig, NodeFault, NodeFaultPlan, Payload, ReplyData};
use nowlab_rng::{SeedableRng, SmallRng};
use nowlab_sim::{Sim, SimDelta, SimTime, StopReason};

fn at(us: f64) -> SimTime {
    SimTime::ZERO + SimDelta::from_micros(us)
}

#[test]
fn inert_node_plan_is_bit_identical_to_default() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_FA17);
    let mut ran = 0;
    while ran < 8 {
        let (procs, ops) = util::draw_case(&mut rng);
        if ops.is_empty() {
            continue;
        }
        ran += 1;
        let base = util::run_traffic(procs, &ops, NetConfig::berkeley_now());
        // A seeded, re-timed, but fault-free node plan must not change a
        // single event: no heartbeats, no detector, no reliability.
        let inert = NodeFaultPlan::none().with_seed(0xBEEF).with_detector(
            SimDelta::from_micros(10.0),
            SimDelta::from_micros(40.0),
            SimDelta::from_micros(120.0),
        );
        let cfg = NetConfig::berkeley_now().with_node_faults(inert);
        let out = util::run_traffic(procs, &ops, cfg);
        assert_eq!(base.final_time, out.final_time);
        assert_eq!(base.stats.per_proc, out.stats.per_proc);
        assert_eq!(base.stats.elapsed, out.stats.elapsed);
        assert_eq!(out.stats.total_heartbeats(), 0);
        assert_eq!(out.stats.total_peer_deaths(), 0);
    }
}

#[test]
fn crash_stop_peer_is_confirmed_dead_and_requester_unblocks() {
    let sim = Sim::new();
    let plan = NodeFaultPlan::none().with_fault(NodeFault::crash(1, SimTime::ZERO));
    let cluster = AmCluster::new(
        sim.clone(),
        NetConfig::berkeley_now().with_node_faults(plan),
        2,
    );
    let h = cluster.register_handler(|_| ReplyData::word(7));
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    let done = sim.spawn(async move {
        let (args, _) = port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        (args[0], port.peer_dead(1), port.alive_count(), port.now())
    });
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::Idle);
    let (word, dead, alive, when) = done.try_take().expect("requester never unblocked");
    // The handler never ran (the node froze before polling): the request
    // completed with the default reply once the detector confirmed death.
    assert_eq!(word, 0);
    assert!(dead);
    assert_eq!(alive, 1);
    // Confirmation happens at the first heartbeat tick past the confirm
    // threshold — well before retransmission exhaustion (~175 ms).
    assert!(
        when > at(1200.0) && when < at(2000.0),
        "unblocked at {when}"
    );
    let stats = cluster.stats();
    assert_eq!(stats.total_peer_deaths(), 1);
    assert!(stats.per_proc[0].suspicions >= 1);
    assert_eq!(stats.total_false_suspicions(), 0);
    // Detection latency = confirmation minus the actual crash instant.
    assert_eq!(stats.max_detect_latency(), when.since(SimTime::ZERO));
    // The frozen node emitted no heartbeats; the survivor kept beating.
    assert_eq!(stats.per_proc[1].heartbeats, 0);
    assert!(stats.per_proc[0].heartbeats > 0);
}

#[test]
fn a_task_looping_on_a_confirmed_dead_peer_is_stopped_by_the_event_limit() {
    // Once the detector has written the peer off, every request and post
    // to it fails fast but still pays the send overhead, so the loop
    // advances virtual time, events fire and the limit ends the run. A
    // fail-fast path that awaited nothing would spin inside one poll.
    let sim = Sim::new();
    sim.set_event_limit(Some(20_000));
    let plan = NodeFaultPlan::none().with_fault(NodeFault::crash(1, SimTime::ZERO));
    let net = NetConfig::berkeley_now().with_node_faults(plan);
    let cluster = AmCluster::new(sim.clone(), net, 2);
    let h = cluster.register_handler(|_| ReplyData::word(7));
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    // (loop iterations, what the last one cost)
    let seen = Rc::new(Cell::new((0u64, SimDelta::ZERO)));
    let log = Rc::clone(&seen);
    sim.spawn(async move {
        // The first request waits for the confirmation.
        port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        assert!(port.peer_dead(1));
        loop {
            let t0 = port.now();
            port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
            port.post(1, h, [0; 4], Payload::None, Mark::Write).await;
            log.set((log.get().0 + 1, port.now().since(t0)));
        }
    });
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::EventLimit);
    let (iterations, cost) = seen.get();
    assert!(iterations > 1_000, "{iterations} loop iterations");
    assert_eq!(cost, 2 * net.eff_o_send());
}

#[test]
fn short_downtime_is_a_false_suspicion_not_a_death() {
    let sim = Sim::new();
    // Frozen for [150 µs, 750 µs): silence crosses the 400 µs suspect
    // threshold but recovery beats resume before the 1.2 ms confirm.
    let plan = NodeFaultPlan::none().with_fault(NodeFault::crash_recovery(
        1,
        at(150.0),
        SimDelta::from_micros(600.0),
    ));
    let cluster = AmCluster::new(
        sim.clone(),
        NetConfig::berkeley_now().with_node_faults(plan),
        2,
    );
    cluster.register_handler(|_| ReplyData::ack());
    for p in 0..2 {
        let port = cluster.port(p);
        sim.spawn(async move { port.idle_until(at(3000.0)).await });
    }
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::Idle);
    let stats = cluster.stats();
    assert_eq!(stats.per_proc[0].suspicions, 1);
    assert_eq!(stats.per_proc[0].false_suspicions, 1);
    assert_eq!(stats.total_peer_deaths(), 0);
    assert_eq!(stats.max_detect_latency(), SimDelta::ZERO);
}

#[test]
fn crash_recovery_resumes_the_frozen_server() {
    let sim = Sim::new();
    // The server freezes at 50 µs and thaws at 350 µs — spanning the
    // second request, which must be served *after* recovery with the
    // real handler reply (fail-pause: memory and protocol state survive).
    let plan = NodeFaultPlan::none().with_fault(NodeFault::crash_recovery(
        1,
        at(50.0),
        SimDelta::from_micros(300.0),
    ));
    let cluster = AmCluster::new(
        sim.clone(),
        NetConfig::berkeley_now().with_node_faults(plan),
        2,
    );
    cluster.set_state(1, Box::new(0u64));
    let h = cluster.register_handler(|ctx| {
        let served = ctx.state.downcast_mut::<u64>().unwrap();
        *served += 1;
        ReplyData::word(*served)
    });
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    let done = sim.spawn(async move {
        let (a, _) = port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        let first_rtt_end = port.now();
        port.compute(SimDelta::from_micros(80.0)).await;
        let (b, _) = port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        (a[0], b[0], first_rtt_end, port.now())
    });
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::Idle);
    let (first, second, t1, t2) = done.try_take().expect("requester never finished");
    assert_eq!(
        (first, second),
        (1, 2),
        "handler lost state across the freeze"
    );
    assert!(t1 < at(50.0), "first request should precede the crash");
    assert!(
        t2 > at(350.0),
        "second reply cannot precede recovery, got {t2}"
    );
    let stats = cluster.stats();
    assert_eq!(stats.total_peer_deaths(), 0);
    // Exactly-once held across the freeze even if the RTO retransmitted
    // into the down window.
    assert_eq!(cluster.port(1).with_state(|v: &mut u64| *v), 2);
}

#[test]
fn straggler_scales_host_charges_only() {
    let rtt_with = |plan: NodeFaultPlan| {
        let sim = Sim::new();
        let cfg = NetConfig::berkeley_now().with_node_faults(plan);
        let cluster = AmCluster::new(sim.clone(), cfg, 2);
        let h = cluster.register_handler(|_| ReplyData::ack());
        let server = cluster.port(1);
        sim.spawn(async move { server.wait_until(|| false).await });
        let port = cluster.port(0);
        let done = sim.spawn(async move {
            port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
            port.now()
        });
        sim.run();
        done.try_take().expect("request did not finish")
    };
    // Healthy RTT = 2L + o_send0 + o_recv1 + o_send1 + o_recv0 = 21.6 µs.
    // Doubling node 0's host charges adds o_send0 + o_recv0 = 5.8 µs;
    // L and g are wire properties and must not move.
    let slow = rtt_with(NodeFaultPlan::none().with_fault(NodeFault::straggler(0, 2.0)));
    assert!(
        (slow.as_micros_f64() - 27.4).abs() < 0.01,
        "straggler RTT was {} µs",
        slow.as_micros_f64()
    );
}

#[test]
fn same_node_plan_reproduces_the_run() {
    let crash_case = || {
        let mut rng = SmallRng::seed_from_u64(0x5EED_CA5E);
        let (procs, ops) = loop {
            let (p, o) = util::draw_case(&mut rng);
            if p >= 3 && o.len() >= 30 {
                break (p, o);
            }
        };
        let plan = NodeFaultPlan::none()
            .with_fault(NodeFault::crash_recovery(
                0,
                at(40.0),
                SimDelta::from_micros(500.0),
            ))
            .with_fault(NodeFault::straggler(1, 1.5));
        util::run_traffic(
            procs,
            &ops,
            NetConfig::berkeley_now().with_node_faults(plan),
        )
    };
    let a = crash_case();
    let b = crash_case();
    assert_eq!(a.final_time, b.final_time);
    assert_eq!(a.stats.per_proc, b.stats.per_proc);
    assert_eq!(a.stop, b.stop);
}
