//! Integration tests of the Split-C layer: every primitive exercised
//! through real SPMD programs over the LogGP network.

use nowlab_am::{Knobs, NetConfig, Payload};
use nowlab_sim::SimDelta;
use nowlab_splitc::{run_spmd, CollAlgo, CollConfig, GlobalPtr, SpmdConfig};

#[test]
fn reads_and_writes_cross_processors() {
    let outcome = run_spmd(&SpmdConfig::new(4), |ctx| async move {
        let r = ctx.alloc_region(4);
        ctx.barrier().await;
        // Everyone writes its id into slot `me` of every processor.
        let me = ctx.me() as u64;
        for p in 0..ctx.procs() {
            ctx.write(GlobalPtr::new(p, r, ctx.me()), me * 10).await;
        }
        ctx.sync().await;
        ctx.barrier().await;
        // Everyone reads back all slots from processor (me+1)%P.
        let peer = (ctx.me() + 1) % ctx.procs();
        let mut sum = 0;
        for slot in 0..ctx.procs() {
            sum += ctx.read(GlobalPtr::new(peer, r, slot)).await;
        }
        sum
    });
    let sums = outcome.expect_outputs();
    assert_eq!(sums, vec![60, 60, 60, 60]);
}

#[test]
fn barrier_separates_phases() {
    // Without the barrier, fast processors would read zeros.
    let outcome = run_spmd(&SpmdConfig::new(8), |ctx| async move {
        let r = ctx.alloc_region(1);
        ctx.barrier().await;
        // Stagger the writers wildly.
        ctx.compute(SimDelta::from_micros(ctx.me() as f64 * 50.0))
            .await;
        ctx.write(GlobalPtr::new(ctx.me(), r, 0), 1).await;
        ctx.sync().await;
        ctx.barrier().await;
        let mut total = 0;
        for p in 0..ctx.procs() {
            total += ctx.read(GlobalPtr::new(p, r, 0)).await;
        }
        total
    });
    assert!(outcome.expect_outputs().iter().all(|&t| t == 8));
}

#[test]
fn fetch_add_serializes_at_owner() {
    let outcome = run_spmd(&SpmdConfig::new(8), |ctx| async move {
        let r = ctx.alloc_region(1);
        ctx.barrier().await;
        for _ in 0..10 {
            ctx.fetch_add(GlobalPtr::new(0, r, 0), 1).await;
        }
        ctx.barrier().await;
        ctx.read(GlobalPtr::new(0, r, 0)).await
    });
    assert!(outcome.expect_outputs().iter().all(|&v| v == 80));
}

#[test]
fn bulk_round_trip_preserves_data() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let r = ctx.alloc_region(1024);
        ctx.barrier().await;
        if ctx.me() == 0 {
            let data: Vec<u64> = (0..1024).map(|i| i * 3 + 1).collect();
            ctx.bulk_put(GlobalPtr::new(1, r, 0), data).await;
            ctx.sync().await;
        }
        ctx.barrier().await;
        if ctx.me() == 0 {
            let back = ctx.bulk_get(GlobalPtr::new(1, r, 0), 1024).await;
            back.iter().enumerate().all(|(i, &v)| v == i as u64 * 3 + 1)
        } else {
            true
        }
    });
    assert!(outcome.expect_outputs().iter().all(|&ok| ok));
}

#[test]
fn allreduce_sums_everyones_contribution() {
    let outcome = run_spmd(&SpmdConfig::new(8), |ctx| async move {
        let first = ctx.allreduce_sum(ctx.me() as u64 + 1).await;
        // A second reduction must not see stale state.
        let second = ctx.allreduce_sum(2).await;
        (first, second)
    });
    for (a, b) in outcome.expect_outputs() {
        assert_eq!(a, 36); // 1+2+..+8
        assert_eq!(b, 16);
    }
}

/// The applications' reduce is the paper-era flat pattern, fixed: per call
/// proc 0 issues P−1 requests (the result fan-out) and every other
/// processor exactly one (its contribution, to proc 0) — whatever the
/// run's collective policy says. Swapping `allreduce_sum` to the tree or
/// to the model selector moves the apps' message pattern (and their
/// sensitivity curves); this is the test that notices.
#[test]
fn allreduce_sum_is_always_the_flat_pattern() {
    const P: usize = 7;
    const CALLS: u64 = 3;
    for coll in [CollConfig::default(), CollConfig::forced(CollAlgo::Tree)] {
        // The body does nothing but reduce, so every message of the run
        // belongs to the reductions.
        let outcome = run_spmd(&SpmdConfig::new(P).with_coll(coll), |ctx| async move {
            let mut sums = Vec::new();
            for k in 0..CALLS {
                sums.push(ctx.allreduce_sum(ctx.me() as u64 + k).await);
            }
            sums
        });
        for (me, c) in outcome.stats.per_proc.iter().enumerate() {
            let requests = c.sends - c.replies_sent;
            if me == 0 {
                assert_eq!(requests, CALLS * (P as u64 - 1), "{coll:?}: root fan-out");
            } else {
                assert_eq!(requests, CALLS, "{coll:?}: p{me} contributions");
                // Contribution plus the ack of the result, nothing else.
                assert_eq!(c.sends, 2 * CALLS, "{coll:?}: p{me} total sends");
                assert_eq!(
                    c.per_dst[0], c.sends,
                    "{coll:?}: p{me} talks to proc 0 only"
                );
            }
        }
        for (me, sums) in outcome.expect_outputs().into_iter().enumerate() {
            // Σ_p (p + k) = 21 + 7k.
            assert_eq!(sums, vec![21, 28, 35], "{coll:?}: p{me} sums");
        }
    }
}

#[test]
fn locks_guarantee_mutual_exclusion() {
    // Each processor increments a non-atomic counter under a lock using a
    // read-modify-write that would race without the lock.
    let outcome = run_spmd(&SpmdConfig::new(4), |ctx| async move {
        let r = ctx.alloc_region(2); // [lock, counter]
        ctx.barrier().await;
        for _ in 0..5 {
            ctx.lock(GlobalPtr::new(0, r, 0)).await;
            let v = ctx.read(GlobalPtr::new(0, r, 1)).await;
            ctx.compute(SimDelta::from_micros(2.0)).await;
            ctx.write(GlobalPtr::new(0, r, 1), v + 1).await;
            ctx.sync().await;
            ctx.unlock(GlobalPtr::new(0, r, 0)).await;
        }
        ctx.barrier().await;
        ctx.read(GlobalPtr::new(0, r, 1)).await
    });
    assert!(outcome.expect_outputs().iter().all(|&v| v == 20));
}

#[test]
fn mailboxes_deliver_in_order_with_payload() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let mb = ctx.alloc_mailbox();
        ctx.barrier().await;
        if ctx.me() == 0 {
            for i in 0..5u64 {
                ctx.send_mail(1, mb, [i, i * i, 0], Payload::from_words(vec![i; 2]))
                    .await;
            }
            ctx.sync().await;
            ctx.barrier().await;
            0
        } else {
            let mut got = Vec::new();
            ctx.wait_until(|| ctx.mail_len(mb) == 5).await;
            while let Some(mail) = ctx.try_recv_mail(mb) {
                assert_eq!(mail.src, 0);
                assert_eq!(mail.args[1], mail.args[0] * mail.args[0]);
                assert_eq!(mail.payload.as_words().unwrap(), &[mail.args[0]; 2]);
                got.push(mail.args[0]);
            }
            ctx.barrier().await;
            got.iter()
                .enumerate()
                .map(|(i, &v)| (v == i as u64) as u64)
                .sum()
        }
    });
    assert_eq!(outcome.expect_outputs()[1], 5);
}

#[test]
fn added_overhead_slows_a_chatty_program_linearly() {
    // The core claim of the paper, verified at the layer level: runtime of
    // a message-bound program rises by ~2·m·Δo.
    let run_with = |d_o: f64| {
        let net =
            NetConfig::berkeley_now().with_knobs(Knobs::with_overhead(SimDelta::from_micros(d_o)));
        let outcome = run_spmd(&SpmdConfig::new(2).with_net(net), |ctx| async move {
            let r = ctx.alloc_region(1);
            ctx.barrier().await;
            if ctx.me() == 0 {
                for _ in 0..100 {
                    ctx.read(GlobalPtr::new(1, r, 0)).await;
                }
            }
            ctx.barrier().await;
        });
        assert!(outcome.completed);
        outcome.elapsed.as_micros_f64()
    };
    let base = run_with(0.0);
    let plus10 = run_with(10.0);
    let plus20 = run_with(20.0);
    // Each read costs the issuer one send + one receive => 2Δo per read;
    // the responder's extra time overlaps the issuer's round trip.
    let slope1 = (plus10 - base) / 100.0;
    let slope2 = (plus20 - plus10) / 100.0;
    for slope in [slope1, slope2] {
        assert!(
            (slope - 40.0).abs() < 8.0,
            "expected ~4Δo per blocking read round trip, got {slope} per 10us"
        );
    }
}

#[test]
fn single_processor_degenerates_gracefully() {
    let outcome = run_spmd(&SpmdConfig::new(1), |ctx| async move {
        let r = ctx.alloc_region(4);
        ctx.barrier().await;
        ctx.write(GlobalPtr::new(0, r, 2), 9).await;
        let total = ctx.allreduce_sum(5).await;
        ctx.read(GlobalPtr::new(0, r, 2)).await + total
    });
    // No messages at all on one processor.
    assert_eq!(outcome.stats.total_sends(), 0);
    assert_eq!(outcome.expect_outputs(), vec![14]);
}

#[test]
fn stats_track_reads_writes_and_barriers() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let r = ctx.alloc_region(1);
        ctx.barrier().await;
        if ctx.me() == 0 {
            for _ in 0..10 {
                ctx.read(GlobalPtr::new(1, r, 0)).await;
            }
            for _ in 0..6 {
                ctx.write(GlobalPtr::new(1, r, 0), 1).await;
            }
            ctx.sync().await;
        }
        ctx.barrier().await;
    });
    let stats = &outcome.stats;
    // Reads: 10 requests (p0) + 10 replies (p1) = 20 read-marked sends.
    let reads: u64 = stats.per_proc.iter().map(|c| c.sends_read).sum();
    assert_eq!(reads, 20);
    // Barriers recorded on both processors.
    assert!(stats.per_proc.iter().all(|c| c.barriers == 2));
    assert!(stats.pct_reads() > 0.0 && stats.pct_reads() < 100.0);
}

#[test]
fn time_limit_aborts_cleanly() {
    let cfg = SpmdConfig::new(2).with_time_limit(SimDelta::from_micros(10.0));
    let outcome = run_spmd(&cfg, |ctx| async move {
        ctx.compute(SimDelta::from_micros(5.0 + ctx.me() as f64 * 100.0))
            .await;
        ctx.me()
    });
    assert!(!outcome.completed);
    assert!(outcome.outputs[1].is_none());
    assert!(outcome.elapsed.as_micros_f64() <= 10.0);
}
