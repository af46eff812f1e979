//! Black-box tests of the Active Message transport through its public API:
//! timing algebra, flow control, knob independence, instrumentation.

use std::rc::Rc;

use nowlab_am::{AmCluster, Knobs, Mark, NetConfig, Payload, ReplyData};
use nowlab_sim::{Sim, SimDelta, SimTime};
use nowlab_trace::TraceRecorder;

fn cluster(cfg: NetConfig, p: usize) -> (Sim, AmCluster) {
    let sim = Sim::new();
    let c = AmCluster::new(sim.clone(), cfg, p);
    (sim, c)
}

/// Spawns a server that polls forever on `proc`.
fn serve(sim: &Sim, c: &AmCluster, proc: usize) {
    let port = c.port(proc);
    sim.spawn(async move { port.wait_until(|| false).await });
}

#[test]
fn pipelined_posts_beat_sequential_requests() {
    let cfg = NetConfig::berkeley_now();
    let run = |pipelined: bool| {
        let (sim, c) = cluster(cfg, 2);
        let h = c.register_handler(|_| ReplyData::ack());
        serve(&sim, &c, 1);
        let port = c.port(0);
        let done = sim.spawn(async move {
            for i in 0..50u64 {
                if pipelined {
                    port.post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                        .await;
                } else {
                    port.request(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                        .await;
                }
            }
            port.quiesce().await;
            port.now()
        });
        sim.run();
        done.try_take().unwrap()
    };
    let t_pipe = run(true);
    let t_sync = run(false);
    assert!(
        t_sync.as_nanos() > 2 * t_pipe.as_nanos(),
        "pipelining must overlap round trips: {t_pipe} vs {t_sync}"
    );
}

#[test]
fn window_of_one_serializes_round_trips() {
    let cfg = NetConfig::berkeley_now().with_window(1);
    let (sim, c) = cluster(cfg, 2);
    let h = c.register_handler(|_| ReplyData::ack());
    serve(&sim, &c, 1);
    let port = c.port(0);
    let done = sim.spawn(async move {
        for i in 0..10u64 {
            port.post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                .await;
        }
        port.quiesce().await;
        port.now()
    });
    sim.run();
    let t = done.try_take().unwrap();
    // With one credit, every post waits the previous ack: >= 10 RTTs.
    assert!(
        t.as_micros_f64() >= 10.0 * 21.6 - 1.0,
        "window=1 should serialize: {t}"
    );
}

#[test]
fn bulk_reply_carries_payload_through_fragments() {
    let (sim, c) = cluster(NetConfig::berkeley_now(), 2);
    // Handler replies with a 6000-word (48KB) payload -> 12 fragments.
    let h = c
        .register_handler(|_| ReplyData::bulk([0; 4], Payload::from_words((0..6000u64).collect())));
    serve(&sim, &c, 1);
    let port = c.port(0);
    let done = sim.spawn(async move {
        let (_, payload) = port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
        let words = payload.as_words().unwrap().to_vec();
        (words.len(), words[5999], port.now())
    });
    sim.run();
    let (len, last, t) = done.try_take().unwrap();
    assert_eq!(len, 6000);
    assert_eq!(last, 5999);
    // The reply's DMA time alone is 48KB / 38MB/s ≈ 1.26 ms.
    assert!(t.as_micros_f64() > 1_200.0, "bulk reply too fast: {t}");
}

#[test]
fn latency_knob_does_not_change_message_counts() {
    let run = |knobs: Knobs| {
        let (sim, c) = cluster(NetConfig::berkeley_now().with_knobs(knobs), 2);
        let h = c.register_handler(|_| ReplyData::ack());
        serve(&sim, &c, 1);
        let port = c.port(0);
        sim.spawn(async move {
            for i in 0..20u64 {
                port.request(1, h, [i, 0, 0, 0], Payload::None, Mark::Read)
                    .await;
            }
        });
        sim.run();
        c.stats().total_sends()
    };
    let base = run(Knobs::baseline());
    let slow = run(Knobs::with_latency(SimDelta::from_micros(100.0)));
    assert_eq!(base, slow, "latency must not change traffic volume");
}

#[test]
fn per_destination_matrix_is_exact() {
    let (sim, c) = cluster(NetConfig::berkeley_now(), 4);
    let h = c.register_handler(|_| ReplyData::ack());
    for p in 1..4 {
        serve(&sim, &c, p);
    }
    let port = c.port(0);
    sim.spawn(async move {
        for dst in 1..4usize {
            for i in 0..(dst as u64 * 3) {
                port.post(dst, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
        }
        port.quiesce().await;
    });
    sim.run();
    let m = c.stats().balance_matrix();
    assert_eq!(m[0][1], 3);
    assert_eq!(m[0][2], 6);
    assert_eq!(m[0][3], 9);
    // Each destination acked every request.
    assert_eq!(m[1][0], 3);
    assert_eq!(m[2][0], 6);
    assert_eq!(m[3][0], 9);
}

#[test]
fn idle_until_services_while_waiting() {
    let (sim, c) = cluster(NetConfig::berkeley_now(), 2);
    c.set_state(1, Box::new(0u64));
    let bump = c.register_handler(|ctx| {
        *ctx.state.downcast_mut::<u64>().unwrap() += 1;
        ReplyData::ack()
    });
    // Processor 1 idles for 1ms; processor 0 sends it 5 messages meanwhile.
    let idler = c.port(1);
    let served = sim.spawn(async move {
        idler
            .idle_until(SimTime::ZERO + SimDelta::from_millis(1.0))
            .await;
        (idler.with_state(|v: &mut u64| *v), idler.now())
    });
    let port = c.port(0);
    sim.spawn(async move {
        for i in 0..5u64 {
            port.post(1, bump, [i, 0, 0, 0], Payload::None, Mark::User)
                .await;
            port.compute(SimDelta::from_micros(50.0)).await;
        }
        port.quiesce().await;
    });
    sim.run();
    let (count, t) = served.try_take().unwrap();
    assert_eq!(count, 5, "all messages served during the idle window");
    assert!(
        (t.as_micros_f64() - 1_000.0).abs() < 20.0,
        "idle ends at the deadline: {t}"
    );
}

#[test]
fn freeze_stats_excludes_later_traffic() {
    let (sim, c) = cluster(NetConfig::berkeley_now(), 2);
    let h = c.register_handler(|_| ReplyData::ack());
    serve(&sim, &c, 1);
    let port = c.port(0);
    let c2 = c.clone();
    sim.spawn(async move {
        for i in 0..10u64 {
            port.request(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                .await;
        }
        c2.freeze_stats();
        for i in 0..10u64 {
            port.request(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                .await;
        }
    });
    sim.run();
    assert_eq!(c.stats().total_sends(), 20, "10 requests + 10 replies");
}

#[test]
fn overhead_knob_scales_o_time_accounting() {
    // Proc 0's overhead, read off the trace records: `o_send` of the
    // requests it issues plus `o_recv` of the replies it drains.
    let run = |d_o: f64| {
        let cfg =
            NetConfig::berkeley_now().with_knobs(Knobs::with_overhead(SimDelta::from_micros(d_o)));
        let (sim, c) = cluster(cfg, 2);
        let rec = Rc::new(TraceRecorder::new(true));
        c.set_trace_sink(rec.clone());
        let h = c.register_handler(|_| ReplyData::ack());
        serve(&sim, &c, 1);
        let port = c.port(0);
        sim.spawn(async move {
            for i in 0..10u64 {
                port.request(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
        });
        sim.run();
        let records = rec.finish().records;
        assert_eq!(records.len(), 20, "10 requests + 10 replies");
        records.iter().fold(SimDelta::ZERO, |sum, r| {
            sum + if r.src == 0 { r.o_send() } else { r.o_recv() }
        })
    };
    let base = run(0.0);
    let slow = run(10.0);
    // 10 requests: each send + each reply receive gains 10us => +200us.
    let added = (slow - base).as_micros_f64();
    assert!((added - 200.0).abs() < 1.0, "added o_time = {added}");
}

#[test]
fn zero_byte_bulk_behaves_like_short() {
    let (sim, c) = cluster(NetConfig::berkeley_now(), 2);
    let h = c.register_handler(|_| ReplyData::ack());
    serve(&sim, &c, 1);
    let port = c.port(0);
    let done = sim.spawn(async move {
        port.request(1, h, [0; 4], Payload::Synthetic(0), Mark::Bulk)
            .await;
        port.now()
    });
    sim.run();
    let t = done.try_take().unwrap();
    assert!((t.as_micros_f64() - 21.6).abs() < 0.1, "rtt {t}");
}

#[test]
fn slow_rx_path_mode_inflates_gap_delay_queue_does_not() {
    use nowlab_am::LatencyMode;
    let d_lat = SimDelta::from_micros(40.0);
    let time_for = |mode: LatencyMode| {
        let cfg = NetConfig::berkeley_now()
            .with_knobs(Knobs::with_latency(d_lat))
            .with_latency_mode(mode);
        let (sim, c) = cluster(cfg, 2);
        let h = c.register_handler(|_| ReplyData::ack());
        serve(&sim, &c, 1);
        let port = c.port(0);
        let done = sim.spawn(async move {
            for i in 0..40u64 {
                port.post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
                    .await;
            }
            port.quiesce().await;
            port.now()
        });
        sim.run();
        done.try_take().unwrap()
    };
    let dq = time_for(LatencyMode::DelayQueue);
    let srx = time_for(LatencyMode::SlowRxPath);
    // Under the slow receive path every message eats ΔL of receive-context
    // time; under the delay queue the stream still flows at the NIC rate
    // (window permitting).
    assert!(
        srx.as_nanos() > dq.as_nanos() + 30 * d_lat.as_nanos(),
        "slow rx {srx} vs delay queue {dq}"
    );
}
