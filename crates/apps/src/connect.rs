//! Connect — parallel connected components (paper §4.1, Table 3 row 8).
//!
//! Following Lumetta et al., a random 2-D mesh (each lattice edge present
//! with fixed probability) is spread across the processors by row blocks.
//! Each processor first collapses its local subgraph with a sequential
//! union-find, then the processors cooperatively merge components across
//! block boundaries by chasing parent pointers through the global address
//! space (blocking reads — Connect is read-dominated in Table 4) and
//! hooking larger roots under smaller ones with remote compare-and-swap.
//!
//! The final forest is the unique min-label fixpoint, so the component
//! count and label sum are deterministic at every LogGP setting.

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_splitc::GlobalPtr;
use nowlab_splitc::SimDelta;

use crate::common::{
    block_owner, block_range, end_measured_region, execute, mix64, start_measured_region,
    DegradePolicy,
};

/// Per-node/edge cost of the local union-find phase.
const C_LOCAL: SimDelta = SimDelta::from_nanos(8_000);
/// Per-hop cost of a (local) parent-pointer chase.
const C_CHASE: SimDelta = SimDelta::from_nanos(1_000);

/// Parameters of the connected-components benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConnectParams {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Percentage (0-100) of lattice edges present (the paper used a
    /// 30%-connected mesh).
    pub pct_connected: u32,
}

impl ConnectParams {
    /// Default benchmark size (paper: 4M-node mesh; scaled per DESIGN.md).
    pub(crate) fn benchmark() -> Self {
        ConnectParams {
            rows: 256,
            cols: 96,
            pct_connected: 30,
        }
    }

    /// A reduced size for tests.
    pub(crate) fn small() -> Self {
        ConnectParams {
            rows: 32,
            cols: 32,
            pct_connected: 30,
        }
    }
}

/// Deterministic edge presence: both endpoint owners agree by hashing the
/// canonical (node, direction) pair. `dir` 0 = right, 1 = down.
fn edge_present(seed: u64, node: usize, dir: u8, pct: u32) -> bool {
    mix64(seed ^ ((node as u64) << 2) ^ dir as u64) % 100 < pct as u64
}

/// The connected-components application.
#[derive(Clone, Debug)]
pub(crate) struct Connect {
    params: ConnectParams,
}

impl Connect {
    /// Creates the app with the given parameters.
    pub(crate) fn new(params: ConnectParams) -> Self {
        Connect { params }
    }
}

impl SweepableApp for Connect {
    fn name(&self) -> &str {
        "Connect"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| connect_body(ctx, params, seed),
        )
    }
}

async fn connect_body(ctx: nowlab_splitc::Ctx, params: ConnectParams, seed: u64) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();
    let (rows, cols) = (params.rows, params.cols);
    let my_rows = block_range(rows, p, me);
    let n_local = my_rows.len() * cols;
    let row0 = my_rows.start;

    // parent[i] holds the *global node id* of local node i's parent.
    let parent = ctx.alloc_region(n_local.max(1));
    ctx.barrier().await;

    let owner_of = move |g: usize| block_owner(rows, p, g / cols);
    let local_off = move |g: usize| {
        let owner = block_owner(rows, p, g / cols);
        g - block_range(rows, p, owner).start * cols
    };

    ctx.with_mem(|m| {
        for i in 0..n_local {
            m.store(parent, i, (row0 * cols + i) as u64);
        }
    });

    start_measured_region(&ctx).await;

    // ---- Phase 1: local union-find over edges internal to my rows.
    {
        let base = row0 * cols;
        let mut uf: Vec<usize> = (base..my_rows.end * cols).collect();
        fn find(uf: &mut [usize], base: usize, mut x: usize) -> usize {
            while uf[x - base] != x {
                let up = uf[x - base];
                uf[x - base] = uf[up - base];
                x = uf[x - base];
            }
            x
        }
        let mut ops = 0u64;
        for r in my_rows.clone() {
            for c in 0..cols {
                let u = r * cols + c;
                if c + 1 < cols && edge_present(seed, u, 0, params.pct_connected) {
                    let ra = find(&mut uf, base, u);
                    let rb = find(&mut uf, base, u + 1);
                    uf[ra.max(rb) - base] = ra.min(rb);
                    ops += 1;
                }
                if r + 1 < my_rows.end && edge_present(seed, u, 1, params.pct_connected) {
                    let ra = find(&mut uf, base, u);
                    let rb = find(&mut uf, base, u + cols);
                    uf[ra.max(rb) - base] = ra.min(rb);
                    ops += 1;
                }
                ops += 1;
            }
        }
        let snapshot: Vec<usize> = (0..n_local)
            .map(|i| find(&mut uf, base, base + i))
            .collect();
        ctx.with_mem(|m| {
            for (i, r) in snapshot.into_iter().enumerate() {
                m.store(parent, i, r as u64);
            }
        });
        ctx.compute(C_LOCAL * ops).await;
    }
    ctx.barrier().await;

    // My boundary edges: down-edges from my last row into the next block.
    let mut cross: Vec<(usize, usize)> = Vec::new();
    if my_rows.end < rows && !my_rows.is_empty() {
        let r = my_rows.end - 1;
        for c in 0..cols {
            let u = r * cols + c;
            if edge_present(seed, u, 1, params.pct_connected) {
                cross.push((u, u + cols));
            }
        }
    }

    // ---- Phase 2: iterative cross-boundary hooking until a global
    // fixpoint (min-label roots).
    loop {
        let mut changes = 0u64;
        for &(u, v) in &cross {
            let mut roots = [0usize; 2];
            for (slot, start) in [(0usize, u), (1, v)] {
                let mut x = start;
                loop {
                    let o = owner_of(x);
                    let px = if o == me {
                        ctx.compute(C_CHASE).await;
                        ctx.load_local(parent, local_off(x))
                    } else {
                        ctx.read(GlobalPtr::new(o, parent, local_off(x))).await
                    } as usize;
                    if px == x {
                        break;
                    }
                    x = px;
                }
                roots[slot] = x;
            }
            let (lo, hi) = (roots[0].min(roots[1]), roots[0].max(roots[1]));
            if lo == hi {
                continue;
            }
            // Hook hi under lo if hi is still a root; if the CAS loses a
            // race the next sweep converges anyway.
            let owner = owner_of(hi);
            if owner == me {
                ctx.with_mem(|m| m.compare_swap(parent, local_off(hi), hi as u64, lo as u64));
            } else {
                ctx.compare_swap(
                    GlobalPtr::new(owner, parent, local_off(hi)),
                    hi as u64,
                    lo as u64,
                )
                .await;
            }
            changes += 1;
        }
        if ctx.allreduce_sum(changes).await == 0 {
            break;
        }
    }
    ctx.barrier().await;

    // Full compression: point every local node at its global root.
    let mut final_labels = Vec::with_capacity(n_local);
    for i in 0..n_local {
        let mut x = row0 * cols + i;
        loop {
            let o = owner_of(x);
            let px = if o == me {
                ctx.compute(C_CHASE).await;
                ctx.load_local(parent, local_off(x))
            } else {
                ctx.read(GlobalPtr::new(o, parent, local_off(x))).await
            } as usize;
            if px == x {
                break;
            }
            x = px;
        }
        final_labels.push(x);
    }

    end_measured_region(&ctx).await;

    // ---- Verification data: roots found locally and the label sum.
    let local_roots = final_labels
        .iter()
        .enumerate()
        .filter(|&(i, &l)| l == row0 * cols + i)
        .count() as u64;
    let label_sum = final_labels
        .iter()
        .fold(0u64, |a, &l| a.wrapping_add(l as u64));
    label_sum.wrapping_add(local_roots << 40)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential reference: (component count, sum of min-label roots).
    fn sequential_components(params: &ConnectParams, seed: u64) -> (u64, u64) {
        let n = params.rows * params.cols;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let (rows, cols) = (params.rows, params.cols);
        for r in 0..rows {
            for c in 0..cols {
                let u = r * cols + c;
                if c + 1 < cols && edge_present(seed, u, 0, params.pct_connected) {
                    let (ra, rb) = (find(&mut parent, u), find(&mut parent, u + 1));
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi] = lo;
                }
                if r + 1 < rows && edge_present(seed, u, 1, params.pct_connected) {
                    let (ra, rb) = (find(&mut parent, u), find(&mut parent, u + cols));
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi] = lo;
                }
            }
        }
        let mut count = 0u64;
        let mut label_sum = 0u64;
        for x in 0..n {
            let r = find(&mut parent, x);
            if r == x {
                count += 1;
            }
            label_sum = label_sum.wrapping_add(r as u64);
        }
        (count, label_sum)
    }

    #[test]
    fn matches_sequential_reference() {
        let params = ConnectParams::small();
        let seed = 5;
        let (count, label_sum) = sequential_components(&params, seed);
        let out = Connect::new(params).run(&RunSpec::new(4).with_seed(seed));
        assert!(out.completed);
        assert_eq!(out.check, label_sum.wrapping_add(count << 40));
    }

    #[test]
    fn matches_sequential_on_odd_proc_count() {
        let params = ConnectParams::small();
        let (count, label_sum) = sequential_components(&params, 1);
        let out = Connect::new(params).run(&RunSpec::new(5));
        assert_eq!(out.check, label_sum.wrapping_add(count << 40));
    }

    #[test]
    fn is_read_dominated() {
        let out = Connect::new(ConnectParams::small()).run(&RunSpec::new(8));
        assert!(
            out.stats.pct_reads() > 50.0,
            "connect reads: {}",
            out.stats.pct_reads()
        );
    }

    #[test]
    fn check_is_invariant_across_knobs() {
        use nowlab_core::{Axis, NetConfig};
        let app = Connect::new(ConnectParams::small());
        let base = app.run(&RunSpec::new(4));
        let knobs = Axis::Latency
            .knobs_for(&NetConfig::berkeley_now().machine, 80.0)
            .unwrap();
        let slowed =
            app.run(&RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs)));
        assert_eq!(base.check, slowed.check);
    }
}
