//! Properties of the reliable-delivery protocol under the deterministic
//! fault model (ISSUE: fault injection + reliability; DESIGN.md §3).
//!
//! The three headline properties:
//!
//! 1. an inert [`FaultPlan`] leaves virtual times bit-identical to the
//!    lossless transport (zero-cost default);
//! 2. under any drop/duplication/jitter plan short of total loss, every
//!    request's handler runs exactly once and every sender quiesces;
//! 3. the same fault seed reproduces the identical run, a different seed
//!    a different fault pattern.

mod util;

use nowlab_am::{
    AmCluster, FaultPlan, Mark, NetConfig, Outage, Payload, ReplyData, MAX_ATTEMPTS, RTO,
};
use nowlab_rng::{Rng, RngCore, SeedableRng, SmallRng};
use nowlab_sim::{Sim, SimDelta, SimTime, StopReason};

/// A moderately nasty plan: drops both classes, duplicates, jitters.
fn nasty_plan(rng: &mut SmallRng) -> FaultPlan {
    FaultPlan::none()
        .with_seed(rng.next_u64())
        .with_drops(
            rng.gen_range(1..300_000u64) as f64 / 1e6,
            rng.gen_range(1..300_000u64) as f64 / 1e6,
        )
        .with_dup(rng.gen_range(0..100_000u64) as f64 / 1e6)
        .with_jitter(SimDelta::from_nanos(rng.gen_range(0..50_000u64)))
}

#[test]
fn inert_plan_is_bit_identical_to_default() {
    let mut rng = SmallRng::seed_from_u64(0x0FF_FA17);
    let mut ran = 0;
    while ran < 8 {
        let (procs, ops) = util::draw_case(&mut rng);
        if ops.is_empty() {
            continue;
        }
        ran += 1;
        let base = util::run_traffic(procs, &ops, NetConfig::berkeley_now());
        // An explicit inert plan (even a seeded one) must not change a
        // single event: the protocol is disengaged, no timers exist.
        let cfg = NetConfig::berkeley_now().with_faults(FaultPlan::none().with_seed(0xDEAD));
        let inert = util::run_traffic(procs, &ops, cfg);
        assert_eq!(base.final_time, inert.final_time);
        assert_eq!(base.stats.per_proc, inert.stats.per_proc);
        assert_eq!(base.stats.elapsed, inert.stats.elapsed);
    }
}

#[test]
fn protocol_is_quiet_on_a_healthy_network() {
    // An outage that starts at the end of time makes the plan active but
    // never covers a message: the protocol engages on a fault-free wire.
    // Sequence/ack bookkeeping runs, but replies beat the 250 µs RTO by an
    // order of magnitude, so no timer ever matures into a retransmission.
    let mut rng = SmallRng::seed_from_u64(0x9_EA17);
    let (procs, ops) = util::draw_case(&mut rng);
    let quiet = FaultPlan::none().with_outage(Outage::permanent(SimTime::MAX));
    let cfg = NetConfig::berkeley_now().with_faults(quiet);
    assert!(cfg.reliability_active());
    let out = util::run_traffic(procs, &ops, cfg);
    assert!(out.senders_done.iter().all(|&d| d));
    assert_eq!(out.stats.total_retransmits(), 0);
    assert_eq!(out.stats.total_timeouts(), 0);
    assert_eq!(out.stats.total_dup_suppressed(), 0);
    let runs: u64 = out.handler_runs.iter().sum();
    assert_eq!(runs, ops.len() as u64);
    // Message counts match the lossless run exactly.
    let base = util::run_traffic(procs, &ops, NetConfig::berkeley_now());
    assert_eq!(out.stats.total_sends(), base.stats.total_sends());
}

#[test]
fn handlers_run_exactly_once_under_random_faults() {
    let mut rng = SmallRng::seed_from_u64(0xE1AC71);
    let mut ran = 0;
    while ran < 12 {
        let (procs, ops) = util::draw_case(&mut rng);
        let plan = nasty_plan(&mut rng);
        if ops.is_empty() {
            continue;
        }
        ran += 1;
        let out = util::run_traffic(procs, &ops, NetConfig::berkeley_now().with_faults(plan));
        assert_eq!(out.stop, StopReason::Idle, "plan {plan} did not quiesce");
        assert!(
            out.senders_done.iter().all(|&d| d),
            "plan {plan}: a sender never finished"
        );
        // Exactly-once: dropped requests were retransmitted, duplicated
        // ones suppressed — each op's handler ran precisely once.
        let runs: u64 = out.handler_runs.iter().sum();
        assert_eq!(runs, ops.len() as u64, "plan {plan}");
        // The wire really misbehaved in most cases; when it did, the
        // protocol left a visible trace.
        if out.stats.total_drops() > 0 {
            assert!(
                out.stats.total_timeouts() > 0,
                "plan {plan}: drops but no timeouts"
            );
        }
        if out.stats.total_dups() > 0 {
            assert!(
                out.stats.total_dup_suppressed() > 0,
                "plan {plan}: wire dups but none suppressed"
            );
        }
    }
}

#[test]
fn same_fault_seed_reproduces_the_run() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut ran = 0;
    while ran < 6 {
        let (procs, ops) = util::draw_case(&mut rng);
        let plan = nasty_plan(&mut rng);
        if ops.len() < 20 {
            continue;
        }
        ran += 1;
        let cfg = NetConfig::berkeley_now().with_faults(plan);
        let a = util::run_traffic(procs, &ops, cfg);
        let b = util::run_traffic(procs, &ops, cfg);
        assert_eq!(a.final_time, b.final_time);
        assert_eq!(a.stats.per_proc, b.stats.per_proc);
    }
}

#[test]
fn different_fault_seed_changes_the_pattern() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let (procs, ops) = loop {
        let (p, o) = util::draw_case(&mut rng);
        if o.len() >= 60 {
            break (p, o);
        }
    };
    let plan = FaultPlan::with_drop_rate(0.15, 1).with_jitter(SimDelta::from_micros(3.0));
    let a = util::run_traffic(procs, &ops, NetConfig::berkeley_now().with_faults(plan));
    let b = util::run_traffic(
        procs,
        &ops,
        NetConfig::berkeley_now().with_faults(plan.with_seed(2)),
    );
    assert!(
        a.final_time != b.final_time || a.stats.total_drops() != b.stats.total_drops(),
        "two seeds produced identical runs"
    );
}

/// Runs `n` ordered posts from proc 0 to proc 1 under `plan` and returns
/// the order in which the receiver's handler saw them.
fn delivery_order(n: u64, plan: FaultPlan) -> Vec<u64> {
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now().with_faults(plan), 2);
    cluster.set_state(1, Box::new(Vec::<u64>::new()));
    let h = cluster.register_handler(|ctx| {
        ctx.state
            .downcast_mut::<Vec<u64>>()
            .unwrap()
            .push(ctx.msg.args[0]);
        ReplyData::ack()
    });
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    sim.spawn(async move {
        for i in 0..n {
            port.post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                .await;
        }
        port.quiesce().await;
    });
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::Idle);
    cluster.port(1).with_state(|v: &mut Vec<u64>| v.clone())
}

#[test]
fn retransmission_preserves_per_link_fifo() {
    // The 1 ns outage swallows exactly the first post (it hits the wire at
    // t=0); its successors escape and arrive ~250 µs before the retransmit
    // matures. The lossless wire delivers per-source FIFO and the upper
    // layers rely on it, so the receiver must hold the early arrivals back
    // and run all handlers in send order.
    let plan = FaultPlan::none().with_outage(Outage::window(SimTime::ZERO, SimTime::from_nanos(1)));
    assert_eq!(delivery_order(6, plan), vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn heavy_loss_still_preserves_per_link_fifo() {
    for seed in 1..=20 {
        let order = delivery_order(50, FaultPlan::with_drop_rate(0.25, seed));
        assert_eq!(
            order,
            (0..50).collect::<Vec<u64>>(),
            "seed {seed}: handlers ran out of order"
        );
    }
}

#[test]
fn permanent_outage_escalates_to_peer_death_not_a_hang() {
    let sim = Sim::new();
    let plan = FaultPlan::none().with_outage(Outage::permanent(SimTime::ZERO));
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now().with_faults(plan), 2);
    let h = cluster.register_handler(|_| ReplyData::ack());
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    let done = sim.spawn(async move {
        let (args, _) = port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        (args, port.peer_dead(1), port.peers_alive())
    });
    let report = sim.run();
    // The reply can never arrive. After `MAX_ATTEMPTS` injections the
    // sender writes the peer off: the request completes locally with the
    // protocol's default reply and the event queue drains to Idle —
    // bounded retransmissions, no spin into the livelock guard.
    assert_eq!(report.stop_reason, StopReason::Idle);
    let (args, dead, alive) = done.try_take().expect("requester never unblocked");
    assert_eq!(args, [0; 4]);
    assert!(dead, "detector did not mark the peer dead");
    assert_eq!(alive, vec![true, false]);
    let stats = cluster.stats();
    let max = u64::from(MAX_ATTEMPTS);
    // Every injection was swallowed by the outage; each but the last
    // retransmission was driven by a timeout; the final timer escalated.
    assert_eq!(stats.per_proc[0].sends, max);
    assert_eq!(stats.per_proc[0].drops, max);
    assert_eq!(stats.per_proc[0].timeouts, max - 1);
    assert_eq!(stats.per_proc[0].peer_deaths, 1);
    // The backoff visibly escalated beyond the initial RTO.
    assert!(stats.max_retry_backoff() > RTO);
    let note = cluster.death_note().expect("no death note recorded");
    assert_eq!((note.observer, note.peer), (0, 1));
}

#[test]
fn time_limit_also_guards_the_outage() {
    let sim = Sim::new();
    sim.set_time_limit(Some(SimTime::ZERO + SimDelta::from_millis(50.0)));
    let plan = FaultPlan::none().with_outage(Outage::permanent(SimTime::ZERO));
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now().with_faults(plan), 2);
    let h = cluster.register_handler(|_| ReplyData::ack());
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    sim.spawn(async move {
        port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
    });
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::TimeLimit);
    assert!(cluster.stats().per_proc[0].timeouts > 0);
}

#[test]
fn transient_outage_is_survived() {
    // The wire is dead for the first 2 ms; retransmissions push every
    // message through once it heals.
    let mut rng = SmallRng::seed_from_u64(0x0A7A6E);
    let (procs, ops) = loop {
        let (p, o) = util::draw_case(&mut rng);
        if !o.is_empty() {
            break (p, o);
        }
    };
    let plan = FaultPlan::none().with_outage(Outage::window(
        SimTime::ZERO,
        SimTime::ZERO + SimDelta::from_millis(2.0),
    ));
    let out = util::run_traffic(procs, &ops, NetConfig::berkeley_now().with_faults(plan));
    assert_eq!(out.stop, StopReason::Idle);
    assert!(out.senders_done.iter().all(|&d| d));
    let runs: u64 = out.handler_runs.iter().sum();
    assert_eq!(runs, ops.len() as u64);
    assert!(out.final_time >= SimTime::ZERO + SimDelta::from_millis(2.0));
}
