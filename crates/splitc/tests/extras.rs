//! Additional Split-C layer tests: scatter bulk stores, lock behavior
//! under contention, idle waits, reductions under load, and measurement
//! windows.

use nowlab_am::{Knobs, NetConfig};
use nowlab_sim::{SimDelta, SimTime};
use nowlab_splitc::{run_spmd, CollAlgo, CollConfig, GlobalPtr, SpmdConfig};

#[test]
fn bulk_scatter_deposits_noncontiguous_words() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let r = ctx.alloc_region(64);
        ctx.barrier().await;
        if ctx.me() == 0 {
            // Scatter value v=off*3 at every even offset of proc 1.
            let packed: Vec<u64> = (0..32u64).map(|i| ((2 * i) << 32) | (i * 3)).collect();
            ctx.bulk_put_scatter(1, r, packed).await;
            ctx.sync().await;
        }
        ctx.barrier().await;
        if ctx.me() == 1 {
            ctx.with_mem(|m| {
                let region = m.region(r);
                (0..32).all(|i| region[2 * i] == (i as u64) * 3)
                    && (0..32).all(|i| region[2 * i + 1] == 0)
            }) as u64
        } else {
            1
        }
    });
    assert_eq!(outcome.expect_outputs(), vec![1, 1]);
}

#[test]
fn bulk_scatter_local_fast_path() {
    let outcome = run_spmd(&SpmdConfig::new(1), |ctx| async move {
        let r = ctx.alloc_region(8);
        ctx.bulk_put_scatter(0, r, vec![(3u64 << 32) | 99]).await;
        ctx.load_local(r, 3)
    });
    assert_eq!(outcome.stats.total_sends(), 0);
    assert_eq!(outcome.expect_outputs(), vec![99]);
}

#[test]
fn contended_lock_serializes_and_counts_attempts() {
    let outcome = run_spmd(&SpmdConfig::new(6), |ctx| async move {
        let r = ctx.alloc_region(2);
        ctx.barrier().await;
        let mut attempts = 0;
        for _ in 0..4 {
            attempts += ctx
                .lock_with_backoff(
                    GlobalPtr::new(0, r, 0),
                    SimDelta::from_micros(1.0),
                    SimDelta::from_micros(16.0),
                )
                .await;
            let v = ctx.read(GlobalPtr::new(0, r, 1)).await;
            ctx.compute(SimDelta::from_micros(3.0)).await;
            ctx.write(GlobalPtr::new(0, r, 1), v + 1).await;
            ctx.sync().await;
            ctx.unlock(GlobalPtr::new(0, r, 0)).await;
        }
        ctx.barrier().await;
        let total = ctx.read(GlobalPtr::new(0, r, 1)).await;
        assert_eq!(total, 24, "mutual exclusion violated");
        attempts
    });
    let attempts = outcome.expect_outputs();
    // Everyone needed at least its 4 successful attempts; contention makes
    // some retry.
    assert!(attempts.iter().all(|&a| a >= 4));
    assert!(attempts.iter().sum::<u64>() > 24);
}

#[test]
fn idle_until_overlaps_incoming_work() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let r = ctx.alloc_region(16);
        ctx.barrier().await;
        if ctx.me() == 0 {
            for i in 0..8u64 {
                ctx.write(GlobalPtr::new(1, r, i as usize), i + 1).await;
                ctx.compute(SimDelta::from_micros(20.0)).await;
            }
            ctx.sync().await;
            ctx.barrier().await;
            0
        } else {
            // "Disk wait": by the time the deadline passes, all the
            // writes must have been served.
            ctx.idle_until(SimTime::ZERO + SimDelta::from_millis(1.0))
                .await;
            let served = ctx.with_mem(|m| (0..8).filter(|&i| m.load(r, i) != 0).count());
            ctx.barrier().await;
            served as u64
        }
    });
    assert_eq!(outcome.expect_outputs()[1], 8);
}

#[test]
fn allreduce_under_concurrent_write_traffic() {
    let outcome = run_spmd(&SpmdConfig::new(8), |ctx| async move {
        let r = ctx.alloc_region(64);
        ctx.barrier().await;
        // Interleave reductions with background stores.
        let mut total = 0u64;
        for round in 0..5u64 {
            for i in 0..8usize {
                ctx.write(GlobalPtr::new((ctx.me() + 1) % ctx.procs(), r, i), round)
                    .await;
            }
            total += ctx.allreduce_sum(ctx.me() as u64 + round).await;
        }
        ctx.sync().await;
        ctx.barrier().await;
        total
    });
    let outs = outcome.expect_outputs();
    // Σ_round Σ_p (p + round) = Σ_round (28 + 8·round) = 140 + 8·10 = 220.
    assert!(outs.iter().all(|&t| t == 220), "{outs:?}");
}

#[test]
fn measurement_window_brackets_only_the_marked_region() {
    let outcome = run_spmd(&SpmdConfig::new(2), |ctx| async move {
        let r = ctx.alloc_region(1);
        // Unmeasured warm-up traffic.
        for _ in 0..50 {
            ctx.write(GlobalPtr::new(1 - ctx.me(), r, 0), 1).await;
        }
        ctx.sync().await;
        ctx.barrier().await;
        if ctx.me() == 0 {
            ctx.reset_measurement();
        }
        ctx.barrier().await;
        // Measured region: exactly 10 writes from proc 0.
        if ctx.me() == 0 {
            for _ in 0..10 {
                ctx.write(GlobalPtr::new(1, r, 0), 2).await;
            }
            ctx.sync().await;
        }
        ctx.barrier().await;
        if ctx.me() == 0 {
            ctx.freeze_measurement();
        }
        // Unmeasured cool-down traffic.
        for _ in 0..50 {
            ctx.write(GlobalPtr::new(1 - ctx.me(), r, 0), 3).await;
        }
        ctx.sync().await;
        ctx.barrier().await;
    });
    assert!(outcome.completed);
    // 10 requests + 10 acks + two barriers' traffic; far below the 200
    // unmeasured writes.
    let sends = outcome.stats.total_sends();
    assert!((20..60).contains(&sends), "measured sends = {sends}");
}

#[test]
fn lock_backoff_jitter_desynchronizes_identical_spinners() {
    // A stress version of the convoy scenario: many procs in lockstep all
    // hammer one lock with identical timing. The jittered backoff must let
    // the system finish quickly.
    let net = NetConfig::berkeley_now().with_knobs(Knobs::with_latency(SimDelta::from_micros(2.5)));
    let cfg = SpmdConfig::new(12)
        .with_net(net)
        .with_event_limit(5_000_000);
    let outcome = run_spmd(&cfg, |ctx| async move {
        let r = ctx.alloc_region(8);
        ctx.barrier().await;
        for _ in 0..3 {
            ctx.compute(SimDelta::from_nanos(800)).await;
            ctx.lock(GlobalPtr::new(0, r, 0)).await;
            for k in 1..5 {
                ctx.fetch_add(GlobalPtr::new(0, r, k), 1).await;
            }
            ctx.unlock(GlobalPtr::new(0, r, 0)).await;
        }
        ctx.barrier().await;
        ctx.read(GlobalPtr::new(0, r, 1)).await
    });
    assert!(outcome.completed, "convoy not broken");
    assert_eq!(outcome.expect_outputs()[0], 36);
}

/// A run whose broadcasts are pinned to the binomial tree (the selector
/// would otherwise pick by payload size).
fn binomial(procs: usize) -> SpmdConfig {
    SpmdConfig::new(procs).with_coll(CollConfig::forced(CollAlgo::Binomial))
}

#[test]
fn broadcast_reaches_every_processor_from_any_root() {
    for procs in [2usize, 5, 8, 13] {
        for root in [0usize, procs - 1, procs / 2] {
            let outcome = run_spmd(&binomial(procs), move |ctx| async move {
                ctx.barrier().await;
                let data = if ctx.me() == root {
                    vec![7, 8, 9, root as u64]
                } else {
                    Vec::new()
                };
                let got = ctx.coll_broadcast(root, data, 4).await;
                ctx.barrier().await;
                (got == vec![7, 8, 9, root as u64]) as u64
            });
            let oks = outcome.expect_outputs();
            assert!(
                oks.iter().all(|&v| v == 1),
                "procs={procs} root={root}: {oks:?}"
            );
        }
    }
}

#[test]
fn back_to_back_broadcasts_need_no_barrier_between_them() {
    // Epoch-keyed delivery: a second broadcast (different root, different
    // length) issued straight after the first must not be confused with
    // it, even where the second payload arrives first.
    let outcome = run_spmd(&binomial(6), |ctx| async move {
        let mut got = Vec::new();
        for round in 0..4u64 {
            let root = (round as usize * 5) % ctx.procs();
            let n = 1 + round as usize;
            let data = if ctx.me() == root {
                vec![round; n]
            } else {
                Vec::new()
            };
            got.push(ctx.coll_broadcast(root, data, n).await);
        }
        got
    });
    let expect: Vec<Vec<u64>> = (0..4u64).map(|r| vec![r; 1 + r as usize]).collect();
    for (i, got) in outcome.expect_outputs().into_iter().enumerate() {
        assert_eq!(got, expect, "p{i}");
    }
}

#[test]
fn broadcast_serviced_before_the_receiver_enters_is_not_lost() {
    // The overtaking regression (DESIGN.md §5): the payload can be
    // *serviced* while the receiver is still busy with what precedes the
    // call — here an idle wait that polls the network, standing in for a
    // barrier held up by a retransmission. The receiver must find the
    // parked payload on entry instead of waiting for one that already came.
    let outcome = run_spmd(&binomial(5), |ctx| async move {
        ctx.barrier().await;
        if ctx.me() != 0 {
            ctx.idle_until(ctx.now() + SimDelta::from_millis(1.0)).await;
        }
        let data = if ctx.me() == 0 {
            vec![42; 8]
        } else {
            Vec::new()
        };
        let t0 = ctx.now();
        let got = ctx.coll_broadcast(0, data, 8).await;
        (got, ctx.now() - t0)
    });
    for (i, (got, waited)) in outcome.expect_outputs().into_iter().enumerate() {
        assert_eq!(got, vec![42; 8], "p{i}");
        // p4 is a leaf fed directly by the root: its payload was parked
        // long before it asked, so the call returns without waiting.
        if i == 4 {
            assert_eq!(waited, SimDelta::ZERO, "p4 waited for a parked payload");
        }
    }
}

#[test]
fn broadcast_uses_logarithmically_many_messages() {
    let count_for = |procs: usize| {
        let outcome = run_spmd(&binomial(procs), move |ctx| async move {
            ctx.barrier().await;
            if ctx.me() == 0 {
                ctx.reset_measurement();
            }
            ctx.barrier().await;
            let data = if ctx.me() == 0 {
                vec![1u64; 16]
            } else {
                Vec::new()
            };
            ctx.coll_broadcast(0, data, 16).await;
            ctx.barrier().await;
            if ctx.me() == 0 {
                ctx.freeze_measurement();
            }
        });
        outcome.stats.total_sends()
    };
    // P-1 payload-carrying messages + acks + barrier traffic — but the
    // *critical path* is logarithmic: compare times instead of counts for
    // depth, and counts for linear total.
    let c16 = count_for(16);
    let c32 = count_for(32);
    assert!(
        c32 < 2 * c16 + 16 * 12,
        "total messages stay linear: {c16} -> {c32}"
    );

    let time_for = |procs: usize| {
        let outcome = run_spmd(&binomial(procs), move |ctx| async move {
            ctx.barrier().await;
            let t0 = ctx.now();
            let data = if ctx.me() == 0 {
                vec![1u64; 16]
            } else {
                Vec::new()
            };
            ctx.coll_broadcast(0, data, 16).await;
            (ctx.now() - t0).as_micros_f64()
        });
        outcome.expect_outputs().into_iter().fold(0.0f64, f64::max)
    };
    let t8 = time_for(8);
    let t64 = time_for(64);
    assert!(
        t64 < 4.0 * t8,
        "binomial broadcast depth is logarithmic: {t8:.1}us -> {t64:.1}us"
    );
}
