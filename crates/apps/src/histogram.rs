//! The global histogram shared by Radix and Radb.
//!
//! Every processor gathers everyone's bucket counts with one
//! model-selected allgather of the collectives layer (`nowlab_coll` via
//! [`Ctx::coll_allgather`]) and derives its per-bucket prefix and the
//! bucket offsets locally. The paper's Radix ran a hand-rolled pipelined
//! cyclic shift here instead (two serial chains, the dark off-diagonal
//! line of its Figure 4a and the cause of §5.1's *serialization effect*);
//! that chain is not part of this crate.

use nowlab_splitc::Ctx;
use nowlab_splitc::SimDelta;

/// Result of the global histogram phase for one processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct GlobalHistogram {
    /// For each bucket: how many keys of that bucket live on processors
    /// with a lower id (this processor's rank base within the bucket).
    pub my_prefix: Vec<u64>,
    /// For each bucket: the global start position of the bucket.
    pub offsets: Vec<u64>,
}

/// Per-bucket compute cost of scanning/merging histogram state.
const C_SCAN: SimDelta = SimDelta::from_nanos(60);

/// The global histogram: an allgather of every processor's local counts
/// (`counts[b]` for bucket `b`), then a purely local scan for this
/// processor's per-bucket prefix and the global bucket offsets.
///
/// Deterministic and timing-independent: the returned values depend only
/// on the counts. Under `DegradePolicy::Continue` a confirmed-dead
/// member's block arrives empty and contributes zero counts.
pub(crate) async fn global_histogram(ctx: &Ctx, counts: &[u64]) -> GlobalHistogram {
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

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_splitc::{run_spmd, SpmdConfig};

    #[test]
    fn histogram_matches_the_sequential_recomputation() {
        // Odd and even processor counts give different allgather block
        // shapes.
        for procs in [1usize, 4, 7] {
            for buckets in [8usize, 16] {
                let outcome = run_spmd(&SpmdConfig::new(procs), move |ctx| async move {
                    ctx.barrier().await;
                    // Deterministic counts: proc i has (i + b) keys in bucket b.
                    let counts: Vec<u64> = (0..buckets).map(|b| (ctx.me() + b) as u64).collect();
                    let h = global_histogram(&ctx, &counts).await;
                    ctx.barrier().await;
                    // prefix = sum over lower ids; offset = exclusive scan
                    // over buckets of the global totals.
                    for b in 0..buckets {
                        let expect_prefix: u64 = (0..ctx.me()).map(|j| (j + b) as u64).sum();
                        assert_eq!(h.my_prefix[b], expect_prefix, "prefix b={b}");
                        let expect_offset: u64 = (0..b)
                            .map(|b2| (0..procs).map(|j| (j + b2) as u64).sum::<u64>())
                            .sum();
                        assert_eq!(h.offsets[b], expect_offset, "offset b={b}");
                    }
                    1
                });
                assert!(outcome.completed, "procs={procs} buckets={buckets}");
            }
        }
    }
}
