//! Sample sort (paper §4.1, Table 3 row 4).
//!
//! A probabilistic sort: choose `P−1` splitters from a random sample,
//! broadcast them, have every processor scatter each key to the processor
//! owning its splitter interval (all-to-all of *short* writes — the
//! potential receiver imbalance gives Figure 4d its vertical bars), then
//! sort locally.

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_rng::Rng;
use nowlab_splitc::GlobalPtr;
use nowlab_splitc::SimDelta;

use crate::common::{end_measured_region, execute, proc_rng, start_measured_region, DegradePolicy};

/// Per-key cost of the splitter binary search.
const C_BSEARCH: SimDelta = SimDelta::from_nanos(100);
/// Per-key cost of the final local sort.
const C_LOCAL_SORT: SimDelta = SimDelta::from_nanos(200);

/// Parameters of the sample sort.
#[derive(Clone, Copy, Debug)]
pub struct SampleParams {
    /// Total keys across all processors.
    pub total_keys: usize,
    /// Samples per processor used to choose splitters.
    pub oversample: usize,
}

impl SampleParams {
    /// Default benchmark size (paper: 32M keys; scaled per DESIGN.md).
    pub(crate) fn benchmark() -> Self {
        SampleParams {
            total_keys: 128 * 1024,
            oversample: 8,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Self {
        SampleParams {
            total_keys: 4 * 1024,
            oversample: 8,
        }
    }

    /// Scales the key count by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.total_keys = ((self.total_keys as f64 * f) as usize).max(2_048);
        self
    }
}

/// The sample sort application.
#[derive(Clone, Debug)]
pub struct Sample {
    params: SampleParams,
}

impl Sample {
    /// Creates the app with the given parameters.
    pub fn new(params: SampleParams) -> Self {
        Sample { params }
    }
}

impl SweepableApp for Sample {
    fn name(&self) -> &str {
        "Sample"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Continue,
            |_| {},
            move |ctx| async move {
                let p = ctx.procs();
                let me = ctx.me();
                let n_local = params.total_keys / p;
                let s = params.oversample;

                // Regions: gathered samples at proc 0, receive buffer (with
                // slack for imbalance) and its fill counter.
                let samples = ctx.alloc_region((p * s).max(1));
                let recv_cap = n_local * 3 + 64;
                let recv = ctx.alloc_region(recv_cap);
                let recv_count = ctx.alloc_region(1);
                ctx.barrier().await;

                let mut rng = proc_rng(seed, me, 0);
                let keys: Vec<u64> = (0..n_local).map(|_| rng.gen::<u32>() as u64).collect();
                let input_sum = keys.iter().fold(0u64, |a, &k| a.wrapping_add(k));
                let global_input_sum = ctx.allreduce_sum(input_sum).await;

                start_measured_region(&ctx).await;

                // ---- Phase 0: sample, gather at 0, broadcast splitters.
                for (i, &k) in keys.iter().take(s).enumerate() {
                    ctx.write(GlobalPtr::new(0, samples, me * s + i), k).await;
                }
                ctx.sync().await;
                ctx.barrier().await;
                let chosen = if me == 0 {
                    let mut all: Vec<u64> = ctx.with_mem(|m| m.region(samples)[..p * s].to_vec());
                    all.sort_unstable();
                    ctx.compute(C_LOCAL_SORT * (p * s) as u64).await;
                    (1..p).map(|i| all[i * s - 1]).collect()
                } else {
                    Vec::new()
                };
                // Broadcast of the splitters (the paper: "broadcasting
                // them to all processors") over the collectives layer;
                // the LogGP selector picks the variant from the P−1-word
                // payload. Every processor names the same size, so the
                // choice is symmetric even though only the root holds
                // the data.
                let splits = ctx.coll_broadcast(0, chosen, p - 1).await;
                ctx.barrier().await;
                let splits = &splits[..];

                // ---- Phase 1: distribute keys with short writes.
                // First reserve space per destination (one fetch-add each),
                // then scatter.
                ctx.compute(C_BSEARCH * n_local as u64).await;
                let dest_of = |k: u64| splits.partition_point(|&sp| sp < k);
                let mut counts = vec![0u64; p];
                for &k in &keys {
                    counts[dest_of(k)] += 1;
                }
                let mut base = vec![0u64; p];
                for dest in 0..p {
                    if counts[dest] == 0 {
                        continue;
                    }
                    base[dest] = ctx
                        .fetch_add(GlobalPtr::new(dest, recv_count, 0), counts[dest])
                        .await;
                    assert!(
                        (base[dest] + counts[dest]) as usize <= recv_cap,
                        "sample: receive buffer overflow (pathological skew)"
                    );
                }
                let mut cursor = vec![0u64; p];
                for &k in &keys {
                    let d = dest_of(k);
                    let off = (base[d] + cursor[d]) as usize;
                    cursor[d] += 1;
                    ctx.write(GlobalPtr::new(d, recv, off), k).await;
                }
                ctx.sync().await;
                ctx.barrier().await;

                // ---- Phase 2: local sort of received keys.
                let n_recv = ctx.load_local(recv_count, 0) as usize;
                let mut received: Vec<u64> = ctx.with_mem(|m| m.region(recv)[..n_recv].to_vec());
                received.sort_unstable();
                ctx.compute(C_LOCAL_SORT * n_recv as u64).await;
                ctx.with_mem(|m| {
                    for (i, &k) in received.iter().enumerate() {
                        m.store(recv, i, k);
                    }
                });

                end_measured_region(&ctx).await;

                // ---- Verification.
                let sorted = received.windows(2).all(|w| w[0] <= w[1]);
                // Keys on me are all ≤ keys on me+1 (splitter property): check
                // the boundary against the next non-empty processor.
                let mut boundary_ok = true;
                if me > 0 && n_recv > 0 {
                    // Find the previous processor's max (its count then last).
                    let prev_count = ctx.read(GlobalPtr::new(me - 1, recv_count, 0)).await as usize;
                    if prev_count > 0 {
                        let prev_last =
                            ctx.read(GlobalPtr::new(me - 1, recv, prev_count - 1)).await;
                        boundary_ok = prev_last <= received[0];
                    }
                }
                let all_ok = ctx.allreduce_sum((sorted && boundary_ok) as u64).await == p as u64;
                let local_sum = received.iter().fold(0u64, |a, &k| a.wrapping_add(k));
                let out_sum = ctx.allreduce_sum(local_sum).await;
                let total_received = ctx.allreduce_sum(n_recv as u64).await;
                // Under DegradePolicy::Continue a confirmed-dead member
                // takes its keys (and reduction contributions) with it;
                // survivors report their partial sort instead of asserting
                // global invariants that a missing member cannot satisfy.
                if ctx.alive_count() == p {
                    assert!(all_ok, "sample: output not globally sorted");
                    assert_eq!(out_sum, global_input_sum, "sample: key sum mismatch");
                    assert_eq!(
                        total_received as usize,
                        n_local * p,
                        "sample: keys lost or duplicated"
                    );
                }
                local_sum
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_correctly_on_4_procs() {
        let out = Sample::new(SampleParams::small()).run(&RunSpec::new(4));
        assert!(out.completed);
    }

    #[test]
    fn sorts_correctly_on_7_procs() {
        // Odd processor counts stress the splitter logic.
        let out = Sample::new(SampleParams::small()).run(&RunSpec::new(7));
        assert!(out.completed);
    }

    #[test]
    fn communication_is_short_write_all_to_all() {
        let out = Sample::new(SampleParams::small()).run(&RunSpec::new(8));
        assert!(out.stats.pct_bulk() < 1.0);
        assert!(out.stats.pct_reads() < 10.0);
        // All-to-all: every off-diagonal cell sees traffic.
        let m = out.stats.balance_matrix();
        for (i, row) in m.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                if i != j {
                    assert!(cell > 0, "no traffic {i}->{j}");
                }
            }
        }
    }

    #[test]
    fn check_is_invariant_across_knobs() {
        use nowlab_core::{Axis, NetConfig};
        let app = Sample::new(SampleParams::small());
        let base = app.run(&RunSpec::new(4));
        let knobs = Axis::Gap
            .knobs_for(&NetConfig::berkeley_now().machine, 55.0)
            .unwrap();
        let slowed =
            app.run(&RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs)));
        assert_eq!(base.check, slowed.check);
        assert!(slowed.runtime > base.runtime);
    }
}
