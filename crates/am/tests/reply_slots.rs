//! The reply-slot table under every fault shape.
//!
//! Four tasks on processor 0 share its slot table: each issues reads to
//! the three servers, with a post after every read, so up to four awaited
//! requests are outstanding at once and their replies come back out of
//! order. Under seeded drops, duplicates, jitter, a link outage, and a
//! node plan that crashes a server while reads to it are outstanding:
//!
//! * every awaited request completes exactly once — by its own reply, or
//!   by the write-off that follows a confirmed death;
//! * a reply lands in its own request's slot, however late or early;
//! * the endpoint ends with every credit back and no post outstanding;
//! * `transport_diagnostic` lists the awaited ids in ascending order.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nowlab_am::{
    AmCluster, FaultPlan, Mark, NetConfig, NodeFault, NodeFaultPlan, Outage, Payload, ReplyData,
};
use nowlab_sim::{Sim, SimDelta, SimTime, StopReason};

const SERVERS: usize = 3;
const TASKS: u64 = 4;
const READS: u64 = 60;

/// What one run of the traffic yields.
struct Outcome {
    /// Completions per read id, in issue order.
    completions: Vec<u32>,
    /// Reads completed by the default reply of a written-off request.
    written_off: u64,
    /// Completions that overtook an earlier-issued read.
    overtakes: u64,
    /// The most awaited ids the diagnostic listed at once.
    max_awaiting: usize,
    /// Processor 0's diagnostic line at the end.
    last_line: String,
    stop: StopReason,
}

/// The awaited ids in processor 0's diagnostic line.
fn awaiting(diagnostic: &str) -> Vec<u64> {
    let line = diagnostic.lines().next().expect("a line for processor 0");
    let list = line
        .split("awaiting=[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("an awaiting list");
    list.split(", ")
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("a request id"))
        .collect()
}

fn run(net: NetConfig) -> Outcome {
    let sim = Sim::new();
    sim.set_event_limit(Some(20_000_000));
    let cluster = AmCluster::new(sim.clone(), net, SERVERS + 1);
    // The reply names the read it answers and the server that ran it.
    let h = cluster
        .register_handler(|ctx| ReplyData::words([ctx.msg.args[0], ctx.msg.dst as u64, 1, 0]));
    for server in 1..=SERVERS {
        let port = cluster.port(server);
        sim.spawn(async move { port.wait_until(|| false).await });
    }
    let completions = Rc::new(RefCell::new(vec![0u32; (TASKS * READS) as usize]));
    let outstanding = Rc::new(RefCell::new(Vec::<u64>::new()));
    let stats = Rc::new(Cell::new((0u64, 0u64, 0usize)));
    let finished = Rc::new(Cell::new(0));
    for task in 0..TASKS {
        let port = cluster.port(0);
        let c = cluster.clone();
        let (completions, outstanding) = (Rc::clone(&completions), Rc::clone(&outstanding));
        let (stats, finished) = (Rc::clone(&stats), Rc::clone(&finished));
        sim.spawn(async move {
            for i in 0..READS {
                let id = task * READS + i;
                let dst = 1 + ((id + task) as usize % SERVERS);
                outstanding.borrow_mut().push(id);
                let (args, _) = port
                    .request(dst, h, [id, 0, 0, 0], Payload::None, Mark::Read)
                    .await;
                let (mut off, mut overtakes, mut most) = stats.get();
                if args[2] == 1 {
                    assert_eq!(
                        (args[0], args[1]),
                        (id, dst as u64),
                        "a reply in a foreign slot"
                    );
                } else {
                    assert_eq!(args, [0; 4], "a partial reply");
                    assert!(
                        port.peer_dead(dst),
                        "read {id} written off but {dst} is alive"
                    );
                    off += 1;
                }
                {
                    let mut out = outstanding.borrow_mut();
                    overtakes += u64::from(out.iter().any(|&o| o < id));
                    out.retain(|&o| o != id);
                }
                completions.borrow_mut()[id as usize] += 1;
                let listed = awaiting(&c.transport_diagnostic());
                assert!(
                    listed.windows(2).all(|w| w[0] < w[1]),
                    "not ascending: {listed:?}"
                );
                most = most.max(listed.len());
                stats.set((off, overtakes, most));
                port.post(dst, h, [id, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
            port.quiesce().await;
            assert_eq!(port.pending_posts(), 0);
            finished.set(finished.get() + 1);
            if finished.get() == TASKS {
                // Stop the heartbeat control plane so the run can go idle.
                c.finish_control();
            }
        });
    }
    let report = sim.run();
    assert_eq!(finished.get(), TASKS, "a client task never finished");
    let (written_off, overtakes, max_awaiting) = stats.get();
    let completions = completions.borrow().clone();
    Outcome {
        completions,
        written_off,
        overtakes,
        max_awaiting,
        last_line: cluster
            .transport_diagnostic()
            .lines()
            .next()
            .unwrap()
            .to_string(),
        stop: report.stop_reason,
    }
}

fn check(name: &str, out: &Outcome, window: u32) {
    assert_eq!(out.stop, StopReason::Idle, "{name}: stopped early");
    assert!(
        out.completions.iter().all(|&n| n == 1),
        "{name}: a read completed other than once: {:?}",
        out.completions
    );
    // Late duplicates may still sit in the receive queue: nobody polls.
    let idle = format!("proc 0: credits={window} posts=0 awaiting=[] ");
    assert!(
        out.last_line.starts_with(&idle),
        "{name}: {}",
        out.last_line
    );
    assert!(out.max_awaiting > 1, "{name}: reads never overlapped");
}

fn us(x: f64) -> SimDelta {
    SimDelta::from_micros(x)
}

#[test]
fn every_awaited_read_completes_once_in_its_own_slot_under_wire_faults() {
    let base = NetConfig::berkeley_now();
    let window = base.window;
    let plans = [
        ("healthy", FaultPlan::none()),
        ("drops", FaultPlan::with_drop_rate(0.05, 11)),
        ("duplicates", FaultPlan::none().with_dup(0.2).with_seed(12)),
        (
            "jitter",
            FaultPlan::none().with_jitter(us(40.0)).with_seed(13),
        ),
        (
            "outage",
            FaultPlan::none().with_outage(
                Outage::window(SimTime::ZERO + us(200.0), SimTime::ZERO + us(900.0)).to_dst(2),
            ),
        ),
        (
            "everything",
            FaultPlan::none()
                .with_seed(14)
                .with_drops(0.03, 0.03)
                .with_dup(0.1)
                .with_jitter(us(25.0)),
        ),
    ];
    for (name, plan) in plans {
        let out = run(base.with_faults(plan));
        check(name, &out, window);
        assert_eq!(out.written_off, 0, "{name}: a healthy peer was written off");
        if name == "jitter" || name == "everything" {
            assert!(out.overtakes > 0, "{name}: no reply came back out of order");
        }
    }
}

#[test]
fn a_crash_with_reads_outstanding_writes_them_off_once() {
    let base = NetConfig::berkeley_now();
    for (name, fault) in [
        ("crash-stop", NodeFault::crash(2, SimTime::ZERO + us(300.0))),
        (
            "crash-recovery",
            NodeFault::crash_recovery(2, SimTime::ZERO + us(300.0), SimDelta::from_millis(5.0)),
        ),
    ] {
        let plan = NodeFaultPlan::none().with_fault(fault);
        let out = run(base.with_node_faults(plan));
        check(name, &out, base.window);
        assert!(
            out.written_off > 0,
            "{name}: no read to the crashed server was written off"
        );
    }
}
