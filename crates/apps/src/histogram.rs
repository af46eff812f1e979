//! The global histogram shared by Radix and Radb.
//!
//! Two implementations coexist:
//!
//! * [`global_histogram`] — the paper's hand-rolled *pipelined cyclic
//!   shift* (the dark off-diagonal line of Figure 4a), with a serial
//!   dependence chain proportional to `radix × P` — the cause of Radix's
//!   super-linear overhead sensitivity (§5.1's *serialization effect*).
//!   Chain 1 (rank accumulation) runs `0 → 1 → … → P−1`: processor `i`
//!   receives the running per-bucket sums of processors `< i` (its
//!   *prefix*), adds its own counts, and forwards. Chain 2 (offset
//!   broadcast) runs `P−1 → 0 → 1 → … → P−2`, carrying the exclusive
//!   prefix sums over buckets. Counts travel two buckets per short
//!   message.
//! * [`global_histogram_coll`] — the same phase over the model-driven
//!   collectives layer (`nowlab_coll` via [`Ctx::coll_allgather`]):
//!   every processor gathers everyone's counts and derives its prefix
//!   and the bucket offsets locally. This is what the sorts run; the
//!   chain stays as the differential-test baseline.

use nowlab_splitc::SimDelta;
use nowlab_splitc::{Ctx, MailboxId, Payload};

/// Result of the global histogram phase for one processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalHistogram {
    /// For each bucket: how many keys of that bucket live on processors
    /// with a lower id (this processor's rank base within the bucket).
    pub my_prefix: Vec<u64>,
    /// For each bucket: the global start position of the bucket.
    pub offsets: Vec<u64>,
}

/// Per-bucket compute cost of scanning/merging histogram state.
const C_SCAN: SimDelta = SimDelta::from_nanos(60);

/// Runs the two pipelined chains. `counts[b]` are this processor's local
/// bucket counts; `mb` is a dedicated mailbox (allocate one per sort).
///
/// With `bulk = false` (Radix) the counts travel two buckets per *short*
/// message — the paper's fine-grained chain. With `bulk = true` (Radb,
/// "the bulk version of radix sort") each hop carries the whole running
/// histogram in a single bulk message.
///
/// Deterministic and timing-independent: the returned values depend only
/// on the counts.
pub async fn global_histogram(
    ctx: &Ctx,
    mb: MailboxId,
    counts: &[u64],
    bulk: bool,
) -> GlobalHistogram {
    let p = ctx.procs();
    let me = ctx.me();
    let buckets = counts.len();
    assert!(
        buckets.is_multiple_of(2),
        "bucket count must be even (2 per message)"
    );

    let mut my_prefix = vec![0u64; buckets];
    let mut totals = vec![0u64; buckets];

    if p == 1 {
        totals.copy_from_slice(counts);
    } else {
        // ---- Chain 1: accumulate running sums 0 -> 1 -> ... -> P-1.
        if me == 0 {
            send_counts(ctx, 1, mb, counts, bulk).await;
        } else {
            recv_counts(ctx, mb, bulk, me - 1, &mut my_prefix).await;
            ctx.compute(C_SCAN * buckets as u64).await;
            if me + 1 < p {
                let running: Vec<u64> = my_prefix.iter().zip(counts).map(|(a, b)| a + b).collect();
                send_counts(ctx, me + 1, mb, &running, bulk).await;
            }
        }
        if me == p - 1 {
            for b in 0..buckets {
                totals[b] = my_prefix[b] + counts[b];
            }
        }

        // ---- Chain 2: broadcast bucket offsets P-1 -> 0 -> 1 -> ... -> P-2.
        let offsets = if me == p - 1 {
            let mut offsets = vec![0u64; buckets];
            let mut acc = 0u64;
            for b in 0..buckets {
                offsets[b] = acc;
                acc += totals[b];
            }
            ctx.compute(C_SCAN * buckets as u64).await;
            send_counts(ctx, 0, mb, &offsets, bulk).await;
            offsets
        } else {
            let pred = if me == 0 { p - 1 } else { me - 1 };
            let mut offsets = vec![0u64; buckets];
            recv_counts(ctx, mb, bulk, pred, &mut offsets).await;
            if me + 1 < p - 1 {
                send_counts(ctx, me + 1, mb, &offsets, bulk).await;
            }
            offsets
        };
        ctx.sync().await;
        return GlobalHistogram { my_prefix, offsets };
    }

    // Single processor: offsets are the exclusive prefix sums.
    let mut offsets = vec![0u64; buckets];
    let mut acc = 0u64;
    for b in 0..buckets {
        offsets[b] = acc;
        acc += totals[b];
    }
    GlobalHistogram { my_prefix, offsets }
}

/// The global histogram over the collectives layer: an allgather of every
/// processor's local counts, then a purely local scan for this processor's
/// per-bucket prefix and the global bucket offsets.
///
/// Computes exactly what [`global_histogram`] computes (the differential
/// test pins this), but the communication is one model-selected allgather
/// instead of two serial chains. Under `DegradePolicy::Continue` a
/// confirmed-dead member's block arrives empty and contributes zero counts
/// — the survivors' histogram is the chain's degraded result too.
pub async fn global_histogram_coll(ctx: &Ctx, counts: &[u64]) -> GlobalHistogram {
    let me = ctx.me();
    let buckets = counts.len();
    let all = ctx.coll_allgather(counts).await;
    ctx.compute(C_SCAN * buckets as u64).await;
    let mut my_prefix = vec![0u64; buckets];
    let mut totals = vec![0u64; buckets];
    for (j, their) in all.iter().enumerate() {
        for b in 0..buckets {
            let v = their.get(b).copied().unwrap_or(0);
            if j < me {
                my_prefix[b] += v;
            }
            totals[b] += v;
        }
    }
    let mut offsets = vec![0u64; buckets];
    let mut acc = 0u64;
    for b in 0..buckets {
        offsets[b] = acc;
        acc += totals[b];
    }
    GlobalHistogram { my_prefix, offsets }
}

/// Sends a full bucket vector to `dst`: one bulk message, or `buckets/2`
/// short messages of two counts each.
async fn send_counts(ctx: &Ctx, dst: usize, mb: MailboxId, values: &[u64], bulk: bool) {
    if bulk {
        ctx.send_mail(dst, mb, [0, 0, 0], Payload::from_words(values.to_vec()))
            .await;
        return;
    }
    for c in 0..values.len() / 2 {
        ctx.send_mail(
            dst,
            mb,
            [c as u64, values[2 * c], values[2 * c + 1]],
            Payload::None,
        )
        .await;
    }
}

/// Receives a full bucket vector from chain predecessor `from` into `out`
/// (counterpart of [`send_counts`]).
///
/// If the failure detector confirms `from` dead mid-wait, the receive
/// degrades: whatever chunks never arrive stay zero (the chain continues
/// over the survivors with a partial running histogram).
async fn recv_counts(ctx: &Ctx, mb: MailboxId, bulk: bool, from: usize, out: &mut [u64]) {
    if bulk {
        ctx.wait_until(|| ctx.mail_len(mb) > 0 || ctx.peer_dead(from))
            .await;
        if let Some(mail) = ctx.try_recv_mail(mb) {
            out.copy_from_slice(mail.payload.as_words().expect("bulk histogram payload"));
        }
        return;
    }
    let chunks = out.len() / 2;
    let mut received = 0usize;
    while received < chunks {
        ctx.wait_until(|| ctx.mail_len(mb) > 0 || ctx.peer_dead(from))
            .await;
        let Some(mail) = ctx.try_recv_mail(mb) else {
            return;
        };
        let c = mail.args[0] as usize;
        out[2 * c] = mail.args[1];
        out[2 * c + 1] = mail.args[2];
        received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_core::RunSpec;
    use nowlab_splitc::{run_spmd, SpmdConfig};

    fn check_histogram(procs: usize, buckets: usize) {
        let spec = RunSpec::new(procs);
        let cfg = SpmdConfig::new(spec.procs).with_net(spec.net);
        let outcome = run_spmd(&cfg, move |ctx| async move {
            let mb = ctx.alloc_mailbox();
            ctx.barrier().await;
            // Deterministic counts: proc i has (i + b) keys in bucket b.
            let counts: Vec<u64> = (0..buckets).map(|b| (ctx.me() + b) as u64).collect();
            let h = global_histogram(&ctx, mb, &counts, procs.is_multiple_of(2)).await;
            ctx.barrier().await;
            // Verify against a straightforward sequential recomputation.
            let p = ctx.procs();
            for b in 0..buckets {
                let expect_prefix: u64 = (0..ctx.me()).map(|j| (j + b) as u64).sum();
                assert_eq!(h.my_prefix[b], expect_prefix, "prefix b={b}");
                let expect_offset: u64 = (0..b)
                    .map(|b2| (0..p).map(|j| (j + b2) as u64).sum::<u64>())
                    .sum();
                assert_eq!(h.offsets[b], expect_offset, "offset b={b}");
            }
            1
        });
        assert!(outcome.completed);
    }

    #[test]
    fn histogram_matches_sequential_on_4_procs() {
        check_histogram(4, 8);
    }

    #[test]
    fn histogram_matches_sequential_on_7_procs() {
        check_histogram(7, 16);
    }

    #[test]
    fn histogram_single_proc() {
        check_histogram(1, 8);
    }

    #[test]
    fn bulk_and_short_chains_compute_identical_results() {
        for bulk in [false, true] {
            let cfg = SpmdConfig::new(5);
            let outcome = run_spmd(&cfg, move |ctx| async move {
                let mb = ctx.alloc_mailbox();
                ctx.barrier().await;
                let counts: Vec<u64> = (0..16).map(|b| (ctx.me() * 3 + b * 7) as u64).collect();
                let h = global_histogram(&ctx, mb, &counts, bulk).await;
                ctx.barrier().await;
                h.offsets.iter().chain(h.my_prefix.iter()).sum::<u64>()
            });
            let outs = outcome.expect_outputs();
            // Same checksum per proc regardless of transport.
            let expect = run_spmd(&SpmdConfig::new(5), move |ctx| async move {
                let mb = ctx.alloc_mailbox();
                ctx.barrier().await;
                let counts: Vec<u64> = (0..16).map(|b| (ctx.me() * 3 + b * 7) as u64).collect();
                let h = global_histogram(&ctx, mb, &counts, !bulk).await;
                ctx.barrier().await;
                h.offsets.iter().chain(h.my_prefix.iter()).sum::<u64>()
            })
            .expect_outputs();
            assert_eq!(outs, expect, "bulk={bulk}");
        }
    }

    #[test]
    fn coll_histogram_matches_the_hand_rolled_chain() {
        // The collectives-layer port computes the exact prefix/offset
        // vectors of the pipelined chain, on even and odd processor
        // counts (different allgather block shapes).
        for procs in [1usize, 4, 7] {
            let run_coll = run_spmd(&SpmdConfig::new(procs), move |ctx| async move {
                ctx.barrier().await;
                let counts: Vec<u64> = (0..16).map(|b| (ctx.me() * 5 + b * 3) as u64).collect();
                let h = global_histogram_coll(&ctx, &counts).await;
                ctx.barrier().await;
                h.offsets
                    .iter()
                    .chain(h.my_prefix.iter())
                    .fold(0u64, |a, &v| a.wrapping_add(v))
            });
            let run_chain = run_spmd(&SpmdConfig::new(procs), move |ctx| async move {
                let mb = ctx.alloc_mailbox();
                ctx.barrier().await;
                let counts: Vec<u64> = (0..16).map(|b| (ctx.me() * 5 + b * 3) as u64).collect();
                let h = global_histogram(&ctx, mb, &counts, false).await;
                ctx.barrier().await;
                h.offsets
                    .iter()
                    .chain(h.my_prefix.iter())
                    .fold(0u64, |a, &v| a.wrapping_add(v))
            });
            assert_eq!(
                run_coll.expect_outputs(),
                run_chain.expect_outputs(),
                "procs={procs}"
            );
        }
    }

    #[test]
    fn bulk_chain_sends_far_fewer_messages() {
        let run = |bulk: bool| {
            let outcome = run_spmd(&SpmdConfig::new(6), move |ctx| async move {
                let mb = ctx.alloc_mailbox();
                ctx.barrier().await;
                let counts = vec![1u64; 128];
                let _ = global_histogram(&ctx, mb, &counts, bulk).await;
                ctx.barrier().await;
                0u64
            });
            outcome.stats.total_sends()
        };
        let short = run(false);
        let bulk = run(true);
        assert!(short > 10 * bulk, "short {short} vs bulk {bulk}");
    }
}
