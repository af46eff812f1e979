//! P-Ray — scene-passing parallel ray tracer (paper §4.1, Table 3 row 6).
//!
//! A read-only scene of spheres is distributed over the processors; the
//! spatial acceleration structure (a coarse screen-space grid standing in
//! for the paper's replicated octree) is replicated, but the object
//! *data* lives only on its owner and is pulled through a fixed-size
//! software-managed cache with blocking bulk reads. Communication is
//! therefore almost entirely read traffic (Table 4: 96.5% reads, 47.9%
//! bulk), with hot objects visible from many pixels producing the dark
//! spots of Figure 4f.
//!
//! All geometry is fixed-point, so shading is bit-exact and checksums are
//! invariant across LogGP settings (verified against a sequential
//! renderer).

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_splitc::SimDelta;
use nowlab_splitc::{Ctx, GlobalPtr};

use crate::common::{
    block_range, end_measured_region, execute, mix64, start_measured_region, DegradePolicy,
    FifoCache, FX_ONE,
};

/// Per-candidate cost of a sphere intersection test.
const C_ISECT: SimDelta = SimDelta::from_nanos(3_000);
/// Per-pixel fixed cost (ray set-up + shading).
const C_PIXEL: SimDelta = SimDelta::from_nanos(4_000);

/// Parameters of the ray tracer.
#[derive(Clone, Copy, Debug)]
pub struct PrayParams {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Spheres in the scene.
    pub objects: usize,
    /// Software object-cache capacity (objects).
    pub cache_capacity: usize,
    /// Acceleration-grid resolution (cells per axis).
    pub grid: usize,
}

impl PrayParams {
    /// Default benchmark size (paper: 1M pixels, 16390 objects; scaled).
    pub fn benchmark() -> Self {
        PrayParams {
            width: 96,
            height: 96,
            objects: 512,
            cache_capacity: 96,
            grid: 8,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Self {
        PrayParams {
            width: 24,
            height: 24,
            objects: 96,
            cache_capacity: 24,
            grid: 4,
        }
    }
}

/// A sphere in fixed point: center (x, y, z ∈ [0,1)) and radius.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Sphere {
    cx: i64,
    cy: i64,
    cz: i64,
    r: i64,
}

/// The authoritative (owner-side) geometry of object `id` — derived from
/// the seed, as the scene generator would have written it to the owner.
fn make_sphere(seed: u64, id: usize) -> Sphere {
    let h1 = mix64(seed ^ (id as u64) << 1);
    let h2 = mix64(h1 ^ 0xABCD);
    Sphere {
        cx: (h1 % FX_ONE as u64) as i64,
        cy: ((h1 >> 32) % FX_ONE as u64) as i64,
        cz: (h2 % FX_ONE as u64) as i64,
        // Radius in [0.02, 0.10): a few large, hot spheres.
        r: FX_ONE / 50 + ((h2 >> 32) % (FX_ONE as u64 / 12)) as i64,
    }
}

fn sphere_words(s: &Sphere) -> [u64; 4] {
    [s.cx as u64, s.cy as u64, s.cz as u64, s.r as u64]
}

fn sphere_from_words(w: &[u64]) -> Sphere {
    Sphere {
        cx: w[0] as i64,
        cy: w[1] as i64,
        cz: w[2] as i64,
        r: w[3] as i64,
    }
}

/// The replicated acceleration structure: for each grid cell, the ids of
/// objects whose screen-space circle overlaps it.
fn build_grid(seed: u64, params: &PrayParams) -> Vec<Vec<u32>> {
    let g = params.grid;
    let cell = FX_ONE / g as i64;
    let mut cells = vec![Vec::new(); g * g];
    for id in 0..params.objects {
        let s = make_sphere(seed, id);
        let x0 = ((s.cx - s.r).max(0) / cell) as usize;
        let x1 = (((s.cx + s.r).min(FX_ONE - 1)) / cell) as usize;
        let y0 = ((s.cy - s.r).max(0) / cell) as usize;
        let y1 = (((s.cy + s.r).min(FX_ONE - 1)) / cell) as usize;
        for y in y0..=y1.min(g - 1) {
            for x in x0..=x1.min(g - 1) {
                cells[y * g + x].push(id as u32);
            }
        }
    }
    cells
}

/// Orthographic ray through pixel (px, py): hits the sphere if the 2-D
/// distance to the center is within the radius; depth is `cz - dz` where
/// `dz² = r² - d²`. Returns the quantized hit depth, or `None`.
fn intersect(s: &Sphere, px: i64, py: i64) -> Option<i64> {
    let dx = s.cx - px;
    let dy = s.cy - py;
    let d2 = dx * dx + dy * dy;
    let r2 = s.r * s.r;
    if d2 > r2 {
        return None;
    }
    let dz = isqrt((r2 - d2) as u64) as i64;
    Some(s.cz - dz)
}

/// Integer square root.
fn isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as u64;
    // Newton correction to exactness (floats may be off by one).
    while x.saturating_mul(x) > v {
        x -= 1;
    }
    while (x + 1).saturating_mul(x + 1) <= v {
        x += 1;
    }
    x
}

/// Shades one pixel given the nearest hit.
fn shade(hit: Option<(u32, i64)>) -> u64 {
    match hit {
        None => 0x1F,
        Some((id, depth)) => mix64(((id as u64) << 24) ^ (depth as u64 >> 8)),
    }
}

/// The P-Ray application.
#[derive(Clone, Debug)]
pub struct Pray {
    params: PrayParams,
}

impl Pray {
    /// Creates the app with the given parameters.
    pub fn new(params: PrayParams) -> Self {
        Pray { params }
    }
}

impl SweepableApp for Pray {
    fn name(&self) -> &str {
        "P-Ray"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| pray_body(ctx, params, seed),
        )
    }
}

async fn pray_body(ctx: Ctx, params: PrayParams, seed: u64) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();

    // Object store: object id -> owner (id % P), slot (id / P), 4 words.
    let slots = params.objects.div_ceil(p);
    let objs = ctx.alloc_region((slots * 4).max(1));
    // Owners materialize their objects (scene "loading", unmeasured).
    for id in (0..params.objects).filter(|id| id % p == me) {
        let w = sphere_words(&make_sphere(seed, id));
        ctx.with_mem(|m| {
            for (k, &v) in w.iter().enumerate() {
                m.store(objs, (id / p) * 4 + k, v);
            }
        });
    }
    let grid = build_grid(seed, &params);
    let g = params.grid;
    let cell = FX_ONE / g as i64;
    let my_rows = block_range(params.height, p, me);

    start_measured_region(&ctx).await;

    let mut cache: FifoCache<Sphere> = FifoCache::new(params.objects, params.cache_capacity);
    let mut sum = 0u64;
    for py in my_rows {
        for px in 0..params.width {
            ctx.compute(C_PIXEL).await;
            let fx = (px as i64 * FX_ONE) / params.width as i64;
            let fy = (py as i64 * FX_ONE) / params.height as i64;
            let cidx = ((fy / cell) as usize).min(g - 1) * g + ((fx / cell) as usize).min(g - 1);
            let mut best: Option<(u32, i64)> = None;
            for &id in &grid[cidx] {
                let sphere = match cache.get(id as usize) {
                    Some(s) => s,
                    None => {
                        let owner = id as usize % p;
                        let s = if owner == me {
                            let base = (id as usize / p) * 4;
                            ctx.with_mem(|m| {
                                sphere_from_words(&[
                                    m.load(objs, base),
                                    m.load(objs, base + 1),
                                    m.load(objs, base + 2),
                                    m.load(objs, base + 3),
                                ])
                            })
                        } else {
                            let words = ctx
                                .bulk_get(GlobalPtr::new(owner, objs, (id as usize / p) * 4), 4)
                                .await;
                            sphere_from_words(&words)
                        };
                        cache.insert(id as usize, s);
                        s
                    }
                };
                ctx.compute(C_ISECT).await;
                if let Some(t) = intersect(&sphere, fx, fy) {
                    if best.is_none_or(|(bid, bt)| t < bt || (t == bt && id < bid)) {
                        best = Some((id, t));
                    }
                }
            }
            sum = sum.wrapping_add(shade(best));
        }
    }
    ctx.barrier().await;
    end_measured_region(&ctx).await;
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential reference renderer: checksum over the whole image.
    fn sequential_checksum(params: &PrayParams, seed: u64) -> u64 {
        let grid = build_grid(seed, params);
        let g = params.grid;
        let cell = FX_ONE / g as i64;
        let mut sum = 0u64;
        for py in 0..params.height {
            for px in 0..params.width {
                let fx = (px as i64 * FX_ONE) / params.width as i64;
                let fy = (py as i64 * FX_ONE) / params.height as i64;
                let cidx =
                    ((fy / cell) as usize).min(g - 1) * g + ((fx / cell) as usize).min(g - 1);
                let mut best: Option<(u32, i64)> = None;
                for &id in &grid[cidx] {
                    let s = make_sphere(seed, id as usize);
                    if let Some(t) = intersect(&s, fx, fy) {
                        if best.is_none_or(|(bid, bt)| t < bt || (t == bt && id < bid)) {
                            best = Some((id, t));
                        }
                    }
                }
                sum = sum.wrapping_add(shade(best));
            }
        }
        sum
    }

    #[test]
    fn matches_sequential_renderer() {
        let params = PrayParams::small();
        let expect = sequential_checksum(&params, 3);
        let out = Pray::new(params).run(&RunSpec::new(4).with_seed(3));
        assert!(out.completed);
        assert_eq!(out.check, expect);
    }

    #[test]
    fn communication_is_reads_of_bulk_objects() {
        let out = Pray::new(PrayParams::small()).run(&RunSpec::new(4));
        assert!(
            out.stats.pct_reads() > 80.0,
            "reads: {}",
            out.stats.pct_reads()
        );
        // Bulk replies carry the object data: roughly half the read
        // traffic (Table 4: 47.9% bulk).
        assert!(
            out.stats.pct_bulk() > 25.0,
            "bulk: {}",
            out.stats.pct_bulk()
        );
    }

    #[test]
    fn small_cache_forces_more_traffic_than_big_cache() {
        let mut big = PrayParams::small();
        big.cache_capacity = big.objects; // everything fits
        let mut tiny = PrayParams::small();
        tiny.cache_capacity = 4;
        let t = Pray::new(tiny).run(&RunSpec::new(4));
        let b = Pray::new(big).run(&RunSpec::new(4));
        assert!(t.stats.total_sends() > b.stats.total_sends());
        assert_eq!(t.check, b.check, "cache size must not change the image");
    }

    #[test]
    fn isqrt_is_exact() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 1 << 40, u32::MAX as u64] {
            let r = isqrt(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }
}
