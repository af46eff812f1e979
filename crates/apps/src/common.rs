//! Shared machinery for the benchmark suite: the measured-region protocol,
//! deterministic workload RNG, partitioning helpers, and fixed-point
//! arithmetic.

use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use nowlab_core::{RunOutcome, RunSpec, TraceMode};
use nowlab_metrics::{MetricsMode, MetricsRecorder, DEFAULT_WINDOW};
use nowlab_rng::{SeedableRng, SmallRng};
use nowlab_splitc::{Ctx, SplitC, SpmdConfig};

pub use nowlab_splitc::DegradePolicy;
use nowlab_trace::{TraceEvent, TraceRecorder, TraceSink};

/// Both consumers of the observation stream behind the cluster's one
/// observer cell.
struct Both(Rc<TraceRecorder>, Rc<MetricsRecorder>);

impl TraceSink for Both {
    fn record(&self, ev: &TraceEvent) {
        self.0.record(ev);
        self.1.record(ev);
    }
}

/// Builds the Split-C machine for `spec`, lets `setup` register custom
/// handlers, runs `body` on every processor, and packages the result.
///
/// Every app declares its `policy` toward confirmed node deaths:
/// [`DegradePolicy::Abort`] for programs whose result is meaningless with
/// a member missing, [`DegradePolicy::Continue`] for embarrassingly
/// parallel phases that can report a partial result over the survivors.
/// The policy is inert unless the spec's network carries node faults.
///
/// `body` returns this processor's contribution to the run's correctness
/// checksum; contributions are combined commutatively (wrapping add) so the
/// check is independent of completion order.
pub fn execute<S, F, Fut>(spec: &RunSpec, policy: DegradePolicy, setup: S, body: F) -> RunOutcome
where
    S: FnOnce(&SplitC),
    F: Fn(Ctx) -> Fut,
    Fut: Future<Output = u64> + 'static,
{
    let mut cfg = SpmdConfig::new(spec.procs)
        .with_net(spec.net)
        .with_degrade(policy)
        .with_coll(spec.coll);
    if let Some(e) = spec.event_limit {
        cfg = cfg.with_event_limit(e);
    }
    if let Some(t) = spec.time_limit {
        cfg = cfg.with_time_limit(t);
    }
    let sc = SplitC::new(&cfg);
    let recorder = match spec.trace {
        TraceMode::Off => None,
        TraceMode::Summary => Some(Rc::new(TraceRecorder::new(false))),
        TraceMode::Full => Some(Rc::new(TraceRecorder::new(true))),
    };
    let meter = match spec.metrics {
        MetricsMode::Off => None,
        MetricsMode::On => Some(Rc::new(MetricsRecorder::new(
            spec.procs,
            DEFAULT_WINDOW,
            spec.net.machine.o_send,
            spec.net.machine.o_recv,
        ))),
    };
    // One measurement, two projections: whichever recorders the spec asks
    // for consume the same event stream.
    let sink: Option<Rc<dyn TraceSink>> = match (&recorder, &meter) {
        (Some(r), Some(m)) => Some(Rc::new(Both(Rc::clone(r), Rc::clone(m)))),
        (Some(r), None) => Some(Rc::clone(r) as _),
        (None, Some(m)) => Some(Rc::clone(m) as _),
        (None, None) => None,
    };
    if let Some(sink) = sink {
        sc.set_trace_sink(sink);
    }
    if meter.is_some() {
        sc.sim().enable_event_sampling(DEFAULT_WINDOW);
    }
    setup(&sc);
    let outcome = sc.run(body);
    let check = outcome
        .outputs
        .iter()
        .fold(0u64, |acc, o| acc.wrapping_add(o.unwrap_or(0)));
    let metrics = meter.map(|m| {
        let mut report = m.finish(outcome.report.final_time);
        // Heartbeats never touch the LogGP pipeline, so the recorder
        // cannot observe them; stamp the detector counters from the
        // cluster statistics instead (all zero when the plan is inert).
        report.summary.detector = nowlab_metrics::DetectorSummary {
            heartbeats: outcome.stats.total_heartbeats(),
            suspicions: outcome.stats.total_suspicions(),
            false_suspicions: outcome.stats.total_false_suspicions(),
            peer_deaths: outcome.stats.total_peer_deaths(),
            max_detect_latency_ns: outcome.stats.max_detect_latency().as_nanos(),
        };
        // Same story for collectives: the recorder sees only the
        // constituent messages, so the per-op counts come from the
        // cluster statistics.
        report.summary.coll = nowlab_metrics::CollSummary {
            bcasts: outcome.stats.total_coll_bcasts(),
            reduces: outcome.stats.total_coll_reduces(),
            allgathers: outcome.stats.total_coll_allgathers(),
            alltoalls: outcome.stats.total_coll_alltoalls(),
        };
        // The executor hands back only *completed* windows; events in the
        // final partial window are the residual against the run total.
        let mut counts = sc.sim().take_event_samples();
        let residual = outcome
            .report
            .events_fired
            .saturating_sub(counts.iter().sum::<u64>());
        counts.push(residual);
        let windows = report.end_ns.div_ceil(report.window_ns).max(1) as usize;
        counts.resize(windows, 0);
        report.events_per_window = counts;
        report
    });
    RunOutcome {
        runtime: outcome.stats.elapsed,
        stats: outcome.stats,
        completed: outcome.completed,
        completers: outcome.outputs.iter().filter(|o| o.is_some()).count(),
        abort: outcome.abort,
        check,
        events: outcome.report.events_fired,
        polls: outcome.report.polls,
        trace: recorder.map(|r| r.finish()),
        metrics,
    }
}

/// Marks the start of the measured region: input generation and setup
/// before this call are excluded from runtime and message statistics.
///
/// Call from **every** processor (it contains barriers).
pub async fn start_measured_region(ctx: &Ctx) {
    ctx.barrier().await;
    if ctx.me() == 0 {
        ctx.reset_measurement();
    }
    ctx.barrier().await;
}

/// Marks the end of the measured region: runtime and message statistics
/// are frozen so result verification afterwards is not counted.
///
/// Call from **every** processor.
pub async fn end_measured_region(ctx: &Ctx) {
    ctx.barrier().await;
    if ctx.me() == 0 {
        ctx.freeze_measurement();
    }
}

/// Deterministic per-processor workload RNG: a function of the run seed,
/// the processor id, and a stream tag (so different phases draw
/// independent, reproducible streams).
pub fn proc_rng(seed: u64, proc: usize, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (proc as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7),
    )
}

/// The contiguous block of `n` items owned by processor `i` of `p`
/// (balanced block partition).
pub fn block_range(n: usize, p: usize, i: usize) -> std::ops::Range<usize> {
    let base = n / p;
    let extra = n % p;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// The owner of item `idx` under [`block_range`] partitioning.
pub fn block_owner(n: usize, p: usize, idx: usize) -> usize {
    debug_assert!(idx < n);
    let base = n / p;
    let extra = n % p;
    let boundary = extra * (base + 1);
    if idx < boundary {
        idx / (base + 1)
    } else {
        extra + (idx - boundary) / base
    }
}

/// A fixed-capacity FIFO software cache over a dense id space `0..ids`
/// (Barnes' cells, P-Ray's objects): a slot per id and a ring of the
/// resident ids in arrival order, so a lookup is an index and eviction is
/// deterministic.
pub(crate) struct FifoCache<T> {
    slots: Vec<Option<T>>,
    resident: VecDeque<usize>,
    capacity: usize,
}

impl<T: Copy> FifoCache<T> {
    /// An empty cache holding at most `capacity` (at least one) of `ids`.
    pub(crate) fn new(ids: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FifoCache {
            slots: vec![None; ids],
            resident: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// The cached value of `id`, if resident.
    pub(crate) fn get(&self, id: usize) -> Option<T> {
        self.slots[id]
    }

    /// Makes `id` resident after a miss, evicting the longest-resident id
    /// when full.
    pub(crate) fn insert(&mut self, id: usize, value: T) {
        debug_assert!(self.slots[id].is_none(), "insert follows a miss");
        if self.resident.len() >= self.capacity {
            if let Some(victim) = self.resident.pop_front() {
                self.slots[victim] = None;
            }
        }
        self.slots[id] = Some(value);
        self.resident.push_back(id);
    }
}

/// 64-bit splittable hash (used for state ownership, edge coin flips, …).
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Fixed-point scale: 1.0 == `FX_ONE`. Fixed point keeps physics
/// accumulations associative, so checksums are identical across LogGP
/// settings regardless of message arrival order.
pub const FX_ONE: i64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_rng::RngCore;

    #[test]
    fn block_partition_is_exact_and_balanced() {
        for (n, p) in [(10, 3), (32, 32), (100, 7), (5, 8), (0, 4)] {
            let mut covered = 0;
            for i in 0..p {
                let r = block_range(n, p, i);
                covered += r.len();
                for idx in r {
                    assert_eq!(block_owner(n, p, idx), i, "n={n} p={p} idx={idx}");
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn fifo_cache_hits_misses_and_evicts_as_the_map_and_queue_it_replaced() {
        use std::collections::BTreeMap;
        // What Barnes and P-Ray each carried inline before.
        let mut map: BTreeMap<usize, u64> = BTreeMap::new();
        let mut order: VecDeque<usize> = VecDeque::new();
        let (ids, capacity) = (12, 4);
        let mut cache = FifoCache::new(ids, capacity);
        // A warm-up, re-use while resident, a sweep that evicts everything,
        // a return to evicted ids, then a random tail.
        let mut script = vec![0, 1, 2, 1, 0, 3, 3, 4, 0, 5, 6, 7, 8, 1, 2, 1, 9, 4, 4, 10];
        let mut rng = proc_rng(3, 0, 9);
        script.extend((0..400).map(|_| (rng.next_u64() % ids as u64) as usize));
        for (step, id) in script.into_iter().enumerate() {
            let want = map.get(&id).copied();
            assert_eq!(cache.get(id), want, "step {step}, id {id}");
            if want.is_none() {
                let value = step as u64;
                if map.len() >= capacity {
                    if let Some(victim) = order.pop_front() {
                        map.remove(&victim);
                    }
                }
                map.insert(id, value);
                order.push_back(id);
                cache.insert(id, value);
            }
            for other in 0..ids {
                assert_eq!(
                    cache.get(other),
                    map.get(&other).copied(),
                    "step {step}: residency of {other}"
                );
            }
        }
    }

    #[test]
    fn rng_streams_are_independent_and_reproducible() {
        let mut a1 = proc_rng(7, 3, 0);
        let mut a2 = proc_rng(7, 3, 0);
        let mut b = proc_rng(7, 3, 1);
        let mut c = proc_rng(7, 4, 0);
        let x1 = a1.next_u64();
        assert_eq!(x1, a2.next_u64());
        assert_ne!(x1, b.next_u64());
        assert_ne!(x1, c.next_u64());
    }

    #[test]
    fn mix64_spreads_bits() {
        // Adjacent inputs land far apart and never collide in a small set.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }
}
