//! Correctness of every collective algorithm variant through the Split-C
//! surface: each is checked against an independent oracle — the seeded
//! payload recomputed locally, the arithmetic sum, or (all-to-all) a
//! hand-rolled mailbox exchange — never against another collective. The
//! full application suite must also stay byte-identical across
//! worker-pool sizes with collective traffic in the mix (the `--jobs`
//! contract of `tests/parallel.rs`, extended to the coll layer).

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{sweep_jobs, Axis, SimDelta};
use nowlab::splitc::{run_spmd, CollAlgo, CollConfig, Payload, SpmdConfig};
use nowlab::RunSpec;

/// Deterministic payload generator (an LCG — simulation-visible code may
/// not touch OS entropy, and a pure function lets every processor compute
/// every peer's payload locally for verification).
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        })
        .collect()
}

/// All broadcast-forcing policies plus model-driven selection.
const BCAST_POLICIES: [CollAlgo; 4] = [
    CollAlgo::Auto,
    CollAlgo::Binomial,
    CollAlgo::Chain,
    CollAlgo::ScatterAllgather,
];

#[test]
fn every_broadcast_variant_delivers_the_seeded_payload() {
    // 6 processors (not a power of two) and a root off processor 0
    // exercise the rank-rotation paths; 768 words spans two chain
    // segments at the 4 KiB fragment grain.
    for policy in BCAST_POLICIES {
        for n in [3usize, 768] {
            let cfg = SpmdConfig::new(6).with_coll(CollConfig::forced(policy));
            let outcome = run_spmd(&cfg, move |ctx| async move {
                let root = 2;
                let data = if ctx.me() == root {
                    words(42, n)
                } else {
                    Vec::new()
                };
                ctx.coll_broadcast(root, data, n).await
            });
            for (i, got) in outcome.expect_outputs().into_iter().enumerate() {
                assert!(
                    got == words(42, n),
                    "{policy} n={n}: p{i} payload corrupted"
                );
            }
        }
    }
}

#[test]
fn every_reduce_variant_computes_the_arithmetic_sum() {
    for policy in [CollAlgo::Auto, CollAlgo::Flat, CollAlgo::Tree] {
        let cfg = SpmdConfig::new(7).with_coll(CollConfig::forced(policy));
        let outcome = run_spmd(&cfg, move |ctx| async move {
            let mine = words(ctx.me() as u64 + 1, 1)[0];
            let first = ctx.coll_allreduce_sum(mine).await;
            // A second round must not see stale epoch state.
            let second = ctx.coll_allreduce_sum(mine ^ 0xFF).await;
            (first, second)
        });
        let sum_of = |mask: u64| {
            (0..7)
                .map(|p| words(p + 1, 1)[0] ^ mask)
                .fold(0, u64::wrapping_add)
        };
        for (i, (first, second)) in outcome.expect_outputs().into_iter().enumerate() {
            assert_eq!(first, sum_of(0), "{policy}: p{i} sum wrong");
            assert_eq!(
                second,
                sum_of(0xFF),
                "{policy}: p{i} second-epoch sum wrong"
            );
        }
    }
}

#[test]
fn every_allgather_variant_collects_every_peer_block() {
    for policy in [CollAlgo::Auto, CollAlgo::Ring, CollAlgo::Direct] {
        let cfg = SpmdConfig::new(5).with_coll(CollConfig::forced(policy));
        let outcome = run_spmd(&cfg, move |ctx| async move {
            let mine = words(0x5EED + ctx.me() as u64, 64);
            ctx.coll_allgather(&mine).await
        });
        // Every peer's block is a pure function of its id: recompute.
        let expect: Vec<Vec<u64>> = (0..5).map(|q| words(0x5EED + q, 64)).collect();
        for (i, got) in outcome.expect_outputs().into_iter().enumerate() {
            assert!(
                got == expect,
                "{policy}: p{i} allgather lost or moved a block"
            );
        }
    }
}

#[test]
fn every_alltoall_variant_matches_handrolled_mailbox_exchange() {
    for policy in [CollAlgo::Auto, CollAlgo::Direct, CollAlgo::Pairwise] {
        let cfg = SpmdConfig::new(5).with_coll(CollConfig::forced(policy));
        let outcome = run_spmd(&cfg, move |ctx| async move {
            let (p, me) = (ctx.procs(), ctx.me());
            let n = 32;
            // blocks[q]: the personalized payload this processor owes q.
            let blocks: Vec<Vec<u64>> = (0..p).map(|q| words((me * p + q) as u64 + 7, n)).collect();
            // Hand-rolled exchange over mailboxes.
            let mb = ctx.alloc_mailbox();
            ctx.barrier().await;
            for off in 1..p {
                let dst = (me + off) % p;
                ctx.send_mail(
                    dst,
                    mb,
                    [me as u64, 0, 0],
                    Payload::from_words(blocks[dst].clone()),
                )
                .await;
            }
            ctx.wait_until(|| ctx.mail_len(mb) == p - 1).await;
            let mut hand: Vec<Vec<u64>> = vec![Vec::new(); p];
            hand[me] = blocks[me].clone();
            while let Some(mail) = ctx.try_recv_mail(mb) {
                hand[mail.src] = mail.payload.as_words().unwrap().to_vec();
            }
            ctx.barrier().await;
            let coll = ctx.coll_alltoall(&blocks, n).await;
            coll == hand
        });
        for (i, ok) in outcome.expect_outputs().into_iter().enumerate() {
            assert!(ok, "{policy}: p{i} all-to-all diverged from mailboxes");
        }
    }
}

/// The worker pool must stay invisible with collectives in the traffic
/// mix: the full test-scale suite, swept under both model-driven
/// selection and a forced chain broadcast, compares equal field-for-field
/// across `--jobs 1/2/4`.
#[test]
fn suite_sweep_with_collectives_is_byte_identical_across_jobs() {
    let apps = suite_scaled(SuiteScale::Test);
    for policy in [CollAlgo::Auto, CollAlgo::Chain] {
        let spec = RunSpec::new(4)
            .with_seed(11)
            .with_coll(CollConfig::forced(policy))
            .with_event_limit(50_000_000)
            .with_time_limit(SimDelta::from_secs(120.0));
        for app in &apps {
            let seq = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &[2.9, 13.0], 1);
            for jobs in [2, 4] {
                let par = sweep_jobs(app.as_ref(), &spec, Axis::Overhead, &[2.9, 13.0], jobs);
                assert_eq!(par, seq, "{} ({policy}): jobs={jobs} diverged", app.name());
            }
        }
    }
}
