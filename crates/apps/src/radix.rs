//! Radix sort (paper §4.1, Table 3 row 1).
//!
//! Sorts a large collection of keys spread over the processors. Each pass:
//! (1) local per-digit histogram, (2) global histogram over the
//! collectives layer (a model-selected allgather of bucket counts — see
//! [`crate::histogram`]; the paper ran a hand-rolled pipelined cyclic
//! shift here), (3) distribution
//! — every key is sent to its globally ranked position with an individual
//! short remote write. Frequent, write-based, balanced communication: the
//! paper's most overhead- and gap-sensitive application.

use std::ops::Range;

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_rng::Rng;
use nowlab_splitc::GlobalPtr;
use nowlab_splitc::SimDelta;

use crate::common::{
    block_owner, block_range, end_measured_region, execute, proc_rng, start_measured_region,
    DegradePolicy,
};
use crate::histogram::{global_histogram, GlobalHistogram};

/// Per-key cost of histogramming (digit extraction + counter bump).
const C_HIST: SimDelta = SimDelta::from_nanos(40);
/// Per-key cost of computing the destination address in the distribution.
const C_DIST: SimDelta = SimDelta::from_nanos(80);

/// Parameters of the radix sort.
#[derive(Clone, Copy, Debug)]
pub struct RadixParams {
    /// Total keys across all processors.
    pub total_keys: usize,
    /// Significant bits per key.
    pub key_bits: u32,
    /// Bits sorted per pass.
    pub digit_bits: u32,
}

impl RadixParams {
    /// Default benchmark size (the paper used 16M 32-bit keys; we scale to
    /// simulator-friendly 128K 16-bit keys — see DESIGN.md §4/§6).
    pub fn benchmark() -> Self {
        RadixParams {
            total_keys: 128 * 1024,
            key_bits: 16,
            digit_bits: 8,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Self {
        RadixParams {
            total_keys: 4 * 1024,
            key_bits: 16,
            digit_bits: 8,
        }
    }

    /// Scales the key count by `f` (≥ 1/64 of the benchmark is kept).
    pub fn scaled(mut self, f: f64) -> Self {
        self.total_keys = ((self.total_keys as f64 * f) as usize).max(2_048);
        self
    }

    /// Number of passes (`key_bits / digit_bits`).
    pub(crate) fn passes(&self) -> u32 {
        self.key_bits.div_ceil(self.digit_bits)
    }

    /// Buckets per pass.
    pub(crate) fn buckets(&self) -> usize {
        1 << self.digit_bits
    }
}

/// The radix sort application.
#[derive(Clone, Debug)]
pub struct Radix {
    params: RadixParams,
}

impl Radix {
    /// Creates the app with the given parameters.
    pub fn new(params: RadixParams) -> Self {
        Radix { params }
    }
}

impl SweepableApp for Radix {
    fn name(&self) -> &str {
        "Radix"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| radix_body(ctx, params, seed, false),
        )
    }
}

/// Where a bucket's next key lands: at `off` in `owner`'s block, `left`
/// slots from its end. One processor's keys of one bucket occupy contiguous
/// global positions, so placing a key is an increment and, when `left` runs
/// out, a step to the next block; no key is divided.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    owner: usize,
    off: usize,
    left: usize,
}

impl Cursor {
    /// Claims up to `want` slots without leaving a block (stepping over
    /// exhausted and empty ones first): `(owner, first offset, slots)`.
    fn take(&mut self, blocks: &[Range<usize>], want: usize) -> (usize, usize, usize) {
        while self.left == 0 {
            self.owner += 1;
            self.off = 0;
            self.left = blocks[self.owner].len();
        }
        let got = want.min(self.left);
        let at = (self.owner, self.off, got);
        self.off += got;
        self.left -= got;
        at
    }
}

/// One cursor per bucket and the number of this processor's `counts` keys
/// bound for each owner of `blocks` (the `block_range`s of all `n` keys),
/// from the bucket ranges alone: one `block_owner` per non-empty bucket.
fn plan_distribution(
    n: usize,
    blocks: &[Range<usize>],
    counts: &[u64],
    hist: &GlobalHistogram,
) -> (Vec<Cursor>, Vec<usize>) {
    let mut cursors = vec![Cursor::default(); counts.len()];
    let mut per_dest_len = vec![0usize; blocks.len()];
    for (b, &count) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
        let start = (hist.offsets[b] + hist.my_prefix[b]) as usize;
        let owner = block_owner(n, blocks.len(), start);
        let (off, left) = (start - blocks[owner].start, blocks[owner].end - start);
        cursors[b] = Cursor { owner, off, left };
        let (mut run, mut rest) = (cursors[b], count as usize);
        while rest > 0 {
            let (dest, _, got) = run.take(blocks, rest);
            per_dest_len[dest] += got;
            rest -= got;
        }
    }
    (cursors, per_dest_len)
}

/// Shared body for Radix and Radb (`bulk` selects the distribution
/// mechanism).
pub(crate) async fn radix_body(
    ctx: nowlab_splitc::Ctx,
    params: RadixParams,
    seed: u64,
    bulk: bool,
) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();
    let n = params.total_keys;
    let buckets = params.buckets();
    let my_block = block_range(n, p, me);
    let n_local = my_block.len();

    let recv = ctx.alloc_region(n_local.max(1));
    ctx.barrier().await;

    // Input generation (outside the measured region, like loading a file).
    let mask = (1u64 << params.key_bits) - 1;
    let mut rng = proc_rng(seed, me, 0);
    let mut keys: Vec<u64> = (0..n_local).map(|_| rng.gen::<u64>() & mask).collect();
    let input_sum: u64 = keys.iter().fold(0u64, |a, &k| a.wrapping_add(k));
    let global_input_sum = ctx.allreduce_sum(input_sum).await;

    start_measured_region(&ctx).await;

    for pass in 0..params.passes() {
        let shift = pass * params.digit_bits;
        let digit = |k: u64| ((k >> shift) as usize) & (buckets - 1);

        // Phase 1: local histogram.
        ctx.phase("histogram");
        ctx.compute(C_HIST * n_local as u64).await;
        let mut counts = vec![0u64; buckets];
        for &k in &keys {
            counts[digit(k)] += 1;
        }

        // Phase 2: global histogram over the collectives layer.
        ctx.phase("global-hist");
        let hist = global_histogram(&ctx, &counts).await;

        // Phase 3: distribution to globally ranked positions.
        ctx.phase("distribute");
        if bulk {
            // Radb: one bulk message per destination. Its length is known
            // before a key is visited, so each payload is allocated once,
            // full size, and filled in key order (the order its words
            // travel and are scattered in); our own keys go straight home.
            // The payloads are reserved after the charge and `keys` is
            // released once they are filled, so a processor holds its
            // keys or its payloads beside `recv`, never both across an
            // await.
            let blocks: Vec<Range<usize>> = (0..p).map(|i| block_range(n, p, i)).collect();
            let (mut cursors, mut per_dest_len) = plan_distribution(n, &blocks, &counts, &hist);
            per_dest_len[me] = 0;
            ctx.compute(C_DIST * n_local as u64).await;
            let mut per_dest: Vec<Vec<u64>> = per_dest_len
                .iter()
                .map(|&len| Vec::with_capacity(len))
                .collect();
            ctx.with_mem(|m| {
                let mine = m.region_mut(recv);
                for &k in &keys {
                    let (owner, off, _) = cursors[digit(k)].take(&blocks, 1);
                    if owner == me {
                        mine[off] = k;
                    } else {
                        // `Radb` has checked that key and offset fit their
                        // 32 bits each.
                        per_dest[owner].push(((off as u64) << 32) | k);
                    }
                }
            });
            keys = Vec::new();
            for (dest, packed) in per_dest.into_iter().enumerate() {
                assert_eq!(packed.len(), per_dest_len[dest], "radb: payload not full");
                if !packed.is_empty() {
                    ctx.bulk_put_scatter(dest, recv, packed).await;
                }
            }
            ctx.sync().await;
        } else {
            // Radix: one short remote write per key.
            let mut rank = vec![0u64; buckets];
            for &k in &keys {
                let b = digit(k);
                let pos = (hist.offsets[b] + hist.my_prefix[b] + rank[b]) as usize;
                rank[b] += 1;
                let owner = block_owner(n, p, pos);
                let local_off = pos - block_range(n, p, owner).start;
                ctx.compute(C_DIST).await;
                ctx.write(GlobalPtr::new(owner, recv, local_off), k).await;
            }
            ctx.sync().await;
        }
        ctx.barrier().await;
        // Radix refills the buffer it kept; Radb allocates it afresh.
        keys.clear();
        ctx.with_mem(|m| keys.extend_from_slice(&m.region(recv)[..n_local]));
    }

    end_measured_region(&ctx).await;

    // ---- Verification (outside the measured region).
    let sorted_locally = keys.windows(2).all(|w| w[0] <= w[1]);
    let mut boundary_ok = true;
    if me > 0 && n_local > 0 {
        let prev_block = block_range(n, p, me - 1);
        if !prev_block.is_empty() {
            let prev_last = ctx
                .read(GlobalPtr::new(me - 1, recv, prev_block.len() - 1))
                .await;
            boundary_ok = prev_last <= keys[0];
        }
    }
    let ok = sorted_locally && boundary_ok;
    let all_ok = ctx.allreduce_sum(ok as u64).await == p as u64;
    let local_sum = keys.iter().fold(0u64, |a, &k| a.wrapping_add(k));
    let final_sum = ctx.allreduce_sum(local_sum).await;
    assert!(all_ok, "radix: output not globally sorted");
    assert_eq!(
        final_sum, global_input_sum,
        "radix: keys lost or duplicated"
    );
    // Per-proc contribution; the harness sums them. Identical across LogGP
    // settings by construction.
    local_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_core::SweepableApp;

    /// Checks the plan for one processor's `counts` against the per-key
    /// arithmetic it replaced.
    fn check_walk(n: usize, p: usize, counts: &[u64], hist: &GlobalHistogram) {
        let blocks: Vec<Range<usize>> = (0..p).map(|i| block_range(n, p, i)).collect();
        let (mut cursors, per_dest_len) = plan_distribution(n, &blocks, counts, hist);
        let mut filled = vec![0usize; p];
        for (b, &count) in counts.iter().enumerate() {
            let start = (hist.offsets[b] + hist.my_prefix[b]) as usize;
            for pos in start..start + count as usize {
                let owner = block_owner(n, p, pos);
                let off = pos - block_range(n, p, owner).start;
                assert_eq!(
                    cursors[b].take(&blocks, 1),
                    (owner, off, 1),
                    "n={n} p={p} bucket={b} pos={pos}"
                );
                filled[owner] += 1;
            }
        }
        assert_eq!(per_dest_len, filled, "n={n} p={p} counts={counts:?}");
    }

    #[test]
    fn the_cursor_walk_is_block_owner_and_block_range() {
        let hist = |offsets: &[u64], my_prefix: &[u64]| GlobalHistogram {
            my_prefix: my_prefix.to_vec(),
            offsets: offsets.to_vec(),
        };
        // Blocks of 10 keys over 4 processors are 3, 3, 2, 2. One bucket
        // spanning three owners (positions 2..7) after an empty one.
        check_walk(10, 4, &[0, 5], &hist(&[0, 1], &[0, 1]));
        // Runs ending exactly on the boundaries at 3 and at 6, and on the
        // last position of the last block.
        check_walk(10, 4, &[2, 3, 4], &hist(&[0, 3, 6], &[1, 0, 0]));
        // Fewer keys than processors: blocks 1, 1, 1, 0, 0.
        check_walk(3, 5, &[1, 2], &hist(&[0, 1], &[0, 0]));
        check_walk(7, 1, &[3, 0, 4], &hist(&[0, 3, 3], &[0, 0, 0]));

        let mut rng = proc_rng(21, 0, 0);
        let mut below = |bound: usize| (rng.gen::<u64>() % bound as u64) as usize;
        for _ in 0..500 {
            let p = 1 + below(9);
            let buckets = 1 + below(8);
            // All processors' keys per bucket, this one's share of them
            // and the share of those ranked before it; every third bucket
            // on average holds no key of ours.
            let (mut offsets, mut my_prefix, mut counts) = (Vec::new(), Vec::new(), Vec::new());
            let mut n = 0;
            for _ in 0..buckets {
                let global = below(4 * p);
                let before = below(global + 1);
                let mine = if below(3) == 0 {
                    0
                } else {
                    below(global - before + 1)
                };
                offsets.push(n as u64);
                my_prefix.push(before as u64);
                counts.push(mine as u64);
                n += global;
            }
            if n > 0 {
                check_walk(n, p, &counts, &hist(&offsets, &my_prefix));
            }
        }
    }

    #[test]
    fn sorts_correctly_on_4_procs() {
        let app = Radix::new(RadixParams::small());
        let out = app.run(&RunSpec::new(4));
        assert!(out.completed);
        assert!(out.stats.total_sends() > 0);
    }

    #[test]
    fn check_is_invariant_across_knobs() {
        use nowlab_core::{Axis, NetConfig};
        let app = Radix::new(RadixParams {
            total_keys: 2_048,
            key_bits: 16,
            digit_bits: 8,
        });
        let base = app.run(&RunSpec::new(4));
        let knobs = Axis::Overhead
            .knobs_for(&NetConfig::berkeley_now().machine, 23.0)
            .unwrap();
        let slowed =
            app.run(&RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs)));
        assert_eq!(base.check, slowed.check);
        assert!(slowed.runtime > base.runtime);
    }

    #[test]
    fn four_bit_digits_need_four_passes_and_still_sort() {
        let app = Radix::new(RadixParams {
            total_keys: 2_048,
            key_bits: 16,
            digit_bits: 4,
        });
        assert_eq!(app.params.passes(), 4);
        assert_eq!(app.params.buckets(), 16);
        let out = app.run(&RunSpec::new(4));
        assert!(out.completed);
    }

    #[test]
    fn single_proc_degenerates_to_local_sort() {
        let app = Radix::new(RadixParams {
            total_keys: 1_024,
            key_bits: 16,
            digit_bits: 8,
        });
        let out = app.run(&RunSpec::new(1));
        assert!(out.completed);
    }

    #[test]
    fn communication_is_write_based_and_balanced() {
        let app = Radix::new(RadixParams::small());
        let out = app.run(&RunSpec::new(8));
        assert!(out.stats.pct_reads() < 1.0, "radix is write based");
        // Distribution stays one short write per key; the only bulk
        // traffic is the histogram allgather (a handful of block
        // messages per pass).
        assert!(out.stats.pct_bulk() < 5.0, "radix distribution is short");
        assert!(out.stats.balance() < 1.3, "radix is balanced");
    }
}
