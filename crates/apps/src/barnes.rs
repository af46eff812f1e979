//! Barnes — hierarchical N-body force calculation (paper §4.1, Table 3
//! row 5).
//!
//! A SPLASH-style Barnes-Hut step over a software-replicated spatial
//! oct-tree: cells are hashed over the processors; tree construction
//! accumulates each processor's mass moments into shared cells under
//! **blocking locks** (acquire, four remote read-modify-writes, release),
//! and the force phase walks the tree pulling remote cell moments through
//! a fixed-size software cache (bulk reads).
//!
//! The locks are the paper's key behavior: as overhead grows, lock hold
//! times grow with it, failed acquisitions skyrocket, and the program
//! livelocks — the paper reports Barnes never completes beyond `o≈13 µs`
//! on 16 nodes (Table 5's N/A entries). Runs here are guarded by the
//! sweep driver's event limit and reported the same way.
//!
//! All arithmetic is fixed-point, so cell moments are wrapping-integer
//! sums (commutative — checksums are independent of lock acquisition
//! order) and results are bit-identical at every LogGP setting and
//! processor count.

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_splitc::SimDelta;
use nowlab_splitc::{Ctx, GlobalPtr};

use crate::common::{
    block_range, end_measured_region, execute, mix64, start_measured_region, DegradePolicy,
    FifoCache, FX_ONE,
};

/// Fixed-point bits (positions live in [0, 2^20)).
const FX_BITS: u32 = 20;
/// Softening term added to squared distances.
const EPS2: i128 = (FX_ONE as i128 * FX_ONE as i128) / 400;
/// Integration step (fixed-point fraction of FX_ONE).
const DT: i64 = FX_ONE / 64;
/// Opening criterion θ ≈ 0.7 as a ratio NUM/DEN.
const THETA_NUM: i128 = 7;
const THETA_DEN: i128 = 10;

/// Per-(body, level) cost of moment aggregation.
const C_AGG: SimDelta = SimDelta::from_nanos(800);
/// Per-interaction cost in the force walk.
const C_FORCE: SimDelta = SimDelta::from_nanos(1_800);
/// Per-body integration cost.
const C_BODY: SimDelta = SimDelta::from_nanos(3_000);
/// Initial retry backoff of the cell-lock spin (doubles per failure).
const LOCK_BACKOFF_INITIAL: SimDelta = SimDelta::from_micros_int(2);
/// Backoff ceiling of the cell-lock spin.
const LOCK_BACKOFF_MAX: SimDelta = SimDelta::from_micros_int(64);

/// Parameters of the Barnes-Hut benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BarnesParams {
    /// Total bodies.
    pub bodies: usize,
    /// Time steps.
    pub steps: usize,
    /// Oct-tree depth (levels 0..=depth; cells = (8^(depth+1)-1)/7).
    pub depth: u32,
    /// Software cell-cache capacity per processor.
    pub cache_capacity: usize,
}

impl BarnesParams {
    /// Default benchmark size (paper: 1M bodies; scaled per DESIGN.md).
    pub(crate) fn benchmark() -> Self {
        BarnesParams {
            bodies: 2_048,
            steps: 2,
            depth: 3,
            cache_capacity: 96,
        }
    }

    /// A reduced size for tests.
    pub(crate) fn small() -> Self {
        BarnesParams {
            bodies: 192,
            steps: 1,
            depth: 2,
            cache_capacity: 24,
        }
    }

    /// Total tree cells over all levels.
    pub(crate) fn total_cells(&self) -> usize {
        ((8usize.pow(self.depth + 1)) - 1) / 7
    }
}

/// First cell id of level `l`.
fn level_base(l: u32) -> usize {
    ((8usize.pow(l)) - 1) / 7
}

/// Cell id containing position (x,y,z) at level `l`.
fn cell_at(x: i64, y: i64, z: i64, l: u32) -> usize {
    if l == 0 {
        return 0;
    }
    let shift = FX_BITS - l;
    let side = 1usize << l;
    let (ix, iy, iz) = (
        (x >> shift) as usize,
        (y >> shift) as usize,
        (z >> shift) as usize,
    );
    level_base(l) + ix + iy * side + iz * side * side
}

/// The eight children of cell `c` at level `l`.
fn children(c: usize, l: u32) -> [usize; 8] {
    let side = 1usize << l;
    let local = c - level_base(l);
    let ix = local % side;
    let iy = (local / side) % side;
    let iz = local / (side * side);
    let cside = side * 2;
    let mut out = [0usize; 8];
    let mut k = 0;
    for dz in 0..2 {
        for dy in 0..2 {
            for dx in 0..2 {
                out[k] = level_base(l + 1)
                    + (2 * ix + dx)
                    + (2 * iy + dy) * cside
                    + (2 * iz + dz) * cside * cside;
                k += 1;
            }
        }
    }
    out
}

/// Geometric center of cell `c` at level `l` (fixed point).
fn cell_center(c: usize, l: u32) -> (i64, i64, i64) {
    let side = 1usize << l;
    let local = c - level_base(l);
    let ix = (local % side) as i64;
    let iy = ((local / side) % side) as i64;
    let iz = (local / (side * side)) as i64;
    let s = FX_ONE / side as i64;
    (ix * s + s / 2, iy * s + s / 2, iz * s + s / 2)
}

#[derive(Clone, Copy, Debug, Default)]
struct Body {
    x: i64,
    y: i64,
    z: i64,
    vx: i64,
    vy: i64,
    vz: i64,
}

fn initial_bodies(seed: u64, n: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            let h1 = mix64(seed ^ (i as u64) << 1);
            let h2 = mix64(h1 ^ 0x5151);
            Body {
                x: (h1 % FX_ONE as u64) as i64,
                y: ((h1 >> 32) % FX_ONE as u64) as i64,
                z: (h2 % FX_ONE as u64) as i64,
                vx: 0,
                vy: 0,
                vz: 0,
            }
        })
        .collect()
}

/// One force evaluation against an accepted cell/mass point. All i128,
/// fully deterministic.
fn accumulate_force(b: &Body, mass: i64, mx: i64, my: i64, mz: i64, acc: &mut (i64, i64, i64)) {
    if mass == 0 {
        return;
    }
    // Center of mass (deterministic integer division).
    let cx = mx / mass;
    let cy = my / mass;
    let cz = mz / mass;
    let dx = (cx - b.x) as i128;
    let dy = (cy - b.y) as i128;
    let dz = (cz - b.z) as i128;
    let d2 = dx * dx + dy * dy + dz * dz + EPS2;
    let f = |d: i128| ((mass as i128 * d * FX_ONE as i128) / d2) as i64;
    acc.0 = acc.0.wrapping_add(f(dx));
    acc.1 = acc.1.wrapping_add(f(dy));
    acc.2 = acc.2.wrapping_add(f(dz));
}

/// Should the walk open (descend into) this cell? `s/d < θ` accepts.
fn must_open(b: &Body, level: u32, center: (i64, i64, i64)) -> bool {
    let s = (FX_ONE >> level) as i128;
    let dx = (center.0 - b.x) as i128;
    let dy = (center.1 - b.y) as i128;
    let dz = (center.2 - b.z) as i128;
    let d2 = dx * dx + dy * dy + dz * dz + 1;
    // open iff s/d > θ  ⇔  s²·DEN² > d²·NUM².
    s * s * THETA_DEN * THETA_DEN > d2 * THETA_NUM * THETA_NUM
}

/// The Barnes-Hut application.
#[derive(Clone, Debug)]
pub(crate) struct Barnes {
    params: BarnesParams,
}

impl Barnes {
    /// Creates the app with the given parameters.
    pub(crate) fn new(params: BarnesParams) -> Self {
        Barnes { params }
    }
}

impl SweepableApp for Barnes {
    fn name(&self) -> &str {
        "Barnes"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| barnes_body(ctx, params, seed),
        )
    }
}

/// Words per cell record: [lock, mass, mx, my, mz].
const CELL_WORDS: usize = 5;

async fn barnes_body(ctx: Ctx, params: BarnesParams, seed: u64) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();
    let total_cells = params.total_cells();
    let depth = params.depth;

    // Deterministic cell placement: owner + dense slot per owner.
    let cell_owner = |c: usize| (mix64(0xCE11 ^ c as u64) % p as u64) as usize;
    let mut slot_of = vec![0usize; total_cells];
    let mut owned = vec![0usize; p];
    for (c, slot) in slot_of.iter_mut().enumerate() {
        let o = cell_owner(c);
        *slot = owned[o];
        owned[o] += 1;
    }
    let cells = ctx.alloc_region((owned[me] * CELL_WORDS).max(1));
    ctx.barrier().await;

    // My bodies.
    let n = params.bodies;
    let my_range = block_range(n, p, me);
    let all = initial_bodies(seed, n);
    let mut bodies: Vec<Body> = my_range.clone().map(|i| all[i]).collect();
    drop(all);

    start_measured_region(&ctx).await;

    let mut total_lock_attempts = 0u64;
    for _step in 0..params.steps {
        // ---- Zero my cells (local) and synchronize.
        ctx.with_mem(|m| {
            let r = m.region_mut(cells);
            for w in r.iter_mut() {
                *w = 0;
            }
        });
        ctx.barrier().await;

        // ---- Tree build: insert bodies one at a time, updating every
        // ancestor cell's moments under its blocking lock — the SPLASH
        // discipline the paper describes. Root and top-level cells are
        // touched by every insertion, so lock contention concentrates
        // there and grows with overhead (the paper's livelock driver).
        for b in &bodies {
            for l in 0..=depth {
                let c = cell_at(b.x, b.y, b.z, l);
                let add = [FX_ONE, b.x, b.y, b.z];
                let o = cell_owner(c);
                let base = slot_of[c] * CELL_WORDS;
                ctx.compute(C_AGG).await;
                if o == me {
                    ctx.with_mem(|m| {
                        for (k, &v) in add.iter().enumerate() {
                            let w = m.load(cells, base + 1 + k);
                            m.store(cells, base + 1 + k, w.wrapping_add(v as u64));
                        }
                    });
                    continue;
                }
                let lock_gp = GlobalPtr::new(o, cells, base);
                total_lock_attempts += ctx
                    .lock_with_backoff(lock_gp, LOCK_BACKOFF_INITIAL, LOCK_BACKOFF_MAX)
                    .await;
                for (k, &v) in add.iter().enumerate() {
                    ctx.fetch_add(GlobalPtr::new(o, cells, base + 1 + k), v as u64)
                        .await;
                }
                ctx.unlock(lock_gp).await;
            }
        }
        ctx.sync().await;
        ctx.barrier().await;

        // ---- Force walk with a software cell cache.
        let mut cache: FifoCache<[i64; 4]> = FifoCache::new(total_cells, params.cache_capacity);
        let mut new_bodies = Vec::with_capacity(bodies.len());
        for b in &bodies {
            let mut acc = (0i64, 0i64, 0i64);
            let mut stack: Vec<(usize, u32)> = vec![(0, 0)];
            while let Some((c, l)) = stack.pop() {
                // Fetch moments (cache, local, or remote bulk read).
                let rec = if let Some(r) = cache.get(c) {
                    r
                } else {
                    let o = cell_owner(c);
                    let base = slot_of[c] * CELL_WORDS;
                    let words: Vec<u64> = if o == me {
                        ctx.with_mem(|m| (1..CELL_WORDS).map(|k| m.load(cells, base + k)).collect())
                    } else {
                        ctx.bulk_get(GlobalPtr::new(o, cells, base + 1), 4).await
                    };
                    let rec = [
                        words[0] as i64,
                        words[1] as i64,
                        words[2] as i64,
                        words[3] as i64,
                    ];
                    cache.insert(c, rec);
                    rec
                };
                if rec[0] == 0 {
                    continue; // empty cell
                }
                ctx.compute(C_FORCE).await;
                if l < depth && must_open(b, l, cell_center(c, l)) {
                    for ch in children(c, l) {
                        stack.push((ch, l + 1));
                    }
                } else {
                    accumulate_force(b, rec[0], rec[1], rec[2], rec[3], &mut acc);
                }
            }
            // Integrate.
            ctx.compute(C_BODY).await;
            let mut nb = *b;
            nb.vx = nb
                .vx
                .wrapping_add(((acc.0 as i128 * DT as i128) / FX_ONE as i128) as i64);
            nb.vy = nb
                .vy
                .wrapping_add(((acc.1 as i128 * DT as i128) / FX_ONE as i128) as i64);
            nb.vz = nb
                .vz
                .wrapping_add(((acc.2 as i128 * DT as i128) / FX_ONE as i128) as i64);
            let wrap = |v: i64| v.rem_euclid(FX_ONE);
            nb.x = wrap(nb.x.wrapping_add(((nb.vx as i128 * DT as i128) / FX_ONE as i128) as i64));
            nb.y = wrap(nb.y.wrapping_add(((nb.vy as i128 * DT as i128) / FX_ONE as i128) as i64));
            nb.z = wrap(nb.z.wrapping_add(((nb.vz as i128 * DT as i128) / FX_ONE as i128) as i64));
            new_bodies.push(nb);
        }
        bodies = new_bodies;
        ctx.barrier().await;
    }

    end_measured_region(&ctx).await;

    // Checksum: wrapping sum of final body coordinates (timing-invariant
    // because every shared accumulation is a wrapping add). Lock attempts
    // are reported via stats, not the check.
    let _ = total_lock_attempts;
    bodies.iter().fold(0u64, |a, b| {
        a.wrapping_add(b.x as u64)
            .wrapping_add((b.y as u64).rotate_left(16))
            .wrapping_add((b.z as u64).rotate_left(32))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_indexing_is_consistent() {
        // Every position maps to a child of its parent cell.
        for l in 0..3 {
            for &(x, y, z) in &[(1i64, 2i64, 3i64), (FX_ONE - 1, FX_ONE / 2, 7)] {
                let c = cell_at(x, y, z, l);
                let cc = cell_at(x, y, z, l + 1);
                assert!(children(c, l).contains(&cc), "level {l}");
            }
        }
        assert_eq!(cell_at(0, 0, 0, 0), 0);
        assert_eq!(level_base(1), 1);
        assert_eq!(level_base(2), 9);
    }

    #[test]
    fn children_and_centers_stay_in_bounds() {
        let params = BarnesParams::benchmark();
        let total = params.total_cells();
        for l in 0..params.depth {
            let (lo, hi) = (level_base(l), level_base(l + 1));
            for c in lo..hi {
                for ch in children(c, l) {
                    assert!(ch < total, "child {ch} of {c} out of range");
                    assert!(ch >= level_base(l + 1));
                }
                let (x, y, z) = cell_center(c, l);
                for v in [x, y, z] {
                    assert!((0..FX_ONE).contains(&v), "center out of cube");
                }
            }
        }
    }

    #[test]
    fn every_position_maps_to_a_valid_leaf() {
        let params = BarnesParams::benchmark();
        for b in initial_bodies(42, 256) {
            for l in 0..=params.depth {
                let c = cell_at(b.x, b.y, b.z, l);
                assert!(c < params.total_cells());
                assert!(c >= level_base(l));
                if l < params.depth {
                    assert!(children(c, l).contains(&cell_at(b.x, b.y, b.z, l + 1)));
                }
            }
        }
    }

    #[test]
    fn opening_criterion_is_monotone_in_distance() {
        // A cell must not be opened from far away if it is not opened from
        // close... i.e. the criterion opens close bodies, accepts far ones.
        let center = (FX_ONE / 2, FX_ONE / 2, FX_ONE / 2);
        let near = Body {
            x: center.0 + FX_ONE / 64,
            y: center.1,
            z: center.2,
            ..Body::default()
        };
        let far = Body {
            x: FX_ONE - 1,
            y: FX_ONE - 1,
            z: FX_ONE - 1,
            ..Body::default()
        };
        assert!(must_open(&near, 1, center), "near body must descend");
        assert!(!must_open(&far, 3, center), "far body accepts a small cell");
    }

    #[test]
    fn parallel_matches_single_processor() {
        let params = BarnesParams::small();
        let solo = Barnes::new(params).run(&RunSpec::new(1));
        let quad = Barnes::new(params).run(&RunSpec::new(4));
        assert!(solo.completed && quad.completed);
        assert_eq!(solo.check, quad.check, "fixed-point physics must agree");
    }

    #[test]
    fn check_is_invariant_across_knobs() {
        use nowlab_core::{Axis, NetConfig};
        let params = BarnesParams::small();
        let app = Barnes::new(params);
        let base = app.run(&RunSpec::new(4));
        let knobs = Axis::Overhead
            .knobs_for(&NetConfig::berkeley_now().machine, 7.9)
            .unwrap();
        let slowed =
            app.run(&RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs)));
        assert_eq!(base.check, slowed.check);
        assert!(slowed.runtime > base.runtime);
    }

    #[test]
    fn uses_locks_rmw_and_bulk_reads() {
        let out = Barnes::new(BarnesParams::small()).run(&RunSpec::new(4));
        assert!(out.stats.pct_bulk() > 5.0, "bulk: {}", out.stats.pct_bulk());
        assert!(
            out.stats.pct_reads() > 5.0,
            "reads: {}",
            out.stats.pct_reads()
        );
        assert!(out.stats.total_sends() > 100);
    }
}
