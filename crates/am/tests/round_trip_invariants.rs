//! What the request path must keep doing exactly, however it is built:
//! the request and trace ids it draws, the order it wakes waiting tasks
//! in (stale registrations included), and the zero-length waits it
//! records. Event times and counts are pinned run-wide by the goldens
//! under `tests/golden/` and the kernel's probe counts; these tests pin
//! the pieces a golden shows only indirectly.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::pin;
use std::rc::Rc;

use nowlab_am::{AmCluster, Mark, NetConfig, Payload, ReplyData};
use nowlab_sim::{Sim, SimDelta, SimTime};
use nowlab_trace::{TraceEvent, TraceSink, WaitKind};

fn at(us: f64) -> SimTime {
    SimTime::ZERO + SimDelta::from_micros(us)
}

#[test]
fn request_and_trace_ids_are_drawn_in_issue_order() {
    // `ReqId`s key the retransmit backoff and the ack watermark; trace
    // ids name every record. One of each is drawn per request, one trace
    // id per reply.
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
    cluster.set_state(1, Box::new(Vec::<(u64, u64)>::new()));
    let h = cluster.register_handler(|ctx| {
        let seen = ctx.state.downcast_mut::<Vec<(u64, u64)>>().unwrap();
        seen.push((ctx.msg.req, ctx.msg.trace));
        ReplyData::ack()
    });
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    sim.spawn(async move {
        for _ in 0..5 {
            port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        }
        port.post(1, h, [0; 4], Payload::None, Mark::Write).await;
        port.quiesce().await;
    });
    sim.run();
    let seen = cluster
        .port(1)
        .with_state(|v: &mut Vec<(u64, u64)>| v.clone());
    assert_eq!(seen, [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9), (5, 11)]);
    assert!(cluster.transport_diagnostic().contains("next_req=6"));
}

/// Polls `fut`, logging `(name, now)` at every poll.
async fn logged<F: Future>(
    fut: F,
    name: &'static str,
    sim: Sim,
    log: Rc<RefCell<Vec<(&'static str, SimTime)>>>,
) -> F::Output {
    let mut fut = pin!(fut);
    std::future::poll_fn(|cx| {
        log.borrow_mut().push((name, sim.now()));
        fut.as_mut().poll(cx)
    })
    .await
}

/// Every poll of the run, server included.
const POLLS: u64 = 13;

#[test]
fn waiters_wake_in_registration_order_stale_idle_registration_included() {
    // Tasks B and A both wait on processor 0. B waits for a flag that
    // never rises. A idles until 10 µs and nothing arrives, so its sleep
    // wins the race and its registrations (one per poll) stay behind;
    // then A computes until 40 µs. The server's post becomes visible at
    // processor 0 while A computes and wakes B, then A (spuriously), in
    // the order the two first registered.
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
    let h = cluster.register_handler(|_| ReplyData::ack());
    let log = Rc::new(RefCell::new(Vec::new()));
    let flag = Rc::new(Cell::new(false));
    let b = cluster.port(0);
    let f = Rc::clone(&flag);
    sim.spawn(logged(
        async move { b.wait_until(|| f.get()).await },
        "B",
        sim.clone(),
        Rc::clone(&log),
    ));
    let a = cluster.port(0);
    sim.spawn(logged(
        async move {
            a.idle_until(at(10.0)).await;
            a.compute(SimDelta::from_micros(30.0)).await;
        },
        "A",
        sim.clone(),
        Rc::clone(&log),
    ));
    let server = cluster.port(1);
    let s = sim.clone();
    sim.spawn(async move {
        s.delay(SimDelta::from_micros(15.0)).await;
        server.post(0, h, [0; 4], Payload::None, Mark::Write).await;
        server.wait_until(|| false).await;
    });
    let report = sim.run();
    let log = log.borrow();
    let polls: Vec<(&str, u64)> = log.iter().map(|&(n, t)| (n, t.as_nanos())).collect();
    assert_eq!(
        polls,
        [
            ("B", 0),
            ("A", 0),
            ("A", 10_000),
            // The post is injected at 15 + o_send = 16.8 µs and lands
            // L = 5 µs later. B pops it and pays o_recv (until 25.8 µs)
            // and the ack's o_send (until 27.6 µs).
            ("B", 21_800),
            ("A", 21_800),
            ("B", 25_800),
            ("B", 27_600),
            ("A", 40_000),
        ],
    );
    assert_eq!(report.polls, POLLS);
    assert!(!flag.get());
}

/// Collects processor 0's wait events.
#[derive(Default)]
struct Waits(RefCell<Vec<(Option<WaitKind>, SimTime)>>);

impl TraceSink for Waits {
    fn record(&self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::WaitEnter { proc: 0, kind, at } => {
                self.0.borrow_mut().push((Some(kind), at))
            }
            TraceEvent::WaitExit { proc: 0, at } => self.0.borrow_mut().push((None, at)),
            _ => {}
        }
    }
}

#[test]
fn acquiring_a_free_credit_still_records_a_zero_length_tx_wait() {
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
    let waits = Rc::new(Waits::default());
    cluster.set_trace_sink(waits.clone());
    let h = cluster.register_handler(|_| ReplyData::ack());
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    sim.spawn(async move {
        for _ in 0..3 {
            port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        }
    });
    sim.run();
    let waits = waits.0.borrow();
    // Per request: a Tx wait that opens and closes at once (the credit is
    // free), then, after o_send, the Rx wait for the reply.
    assert_eq!(waits.len(), 12);
    for (i, pair) in waits.chunks(4).enumerate() {
        let start = at(21.6 * i as f64);
        assert_eq!(pair[0], (Some(WaitKind::Tx), start));
        assert_eq!(pair[1], (None, start));
        assert_eq!(
            pair[2],
            (Some(WaitKind::Rx), start + SimDelta::from_micros(1.8))
        );
        assert_eq!(pair[3], (None, start + SimDelta::from_micros(21.6)));
    }
}
