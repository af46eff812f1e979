//! Analytic LogGP cost models for every collective variant, and the
//! [`Selector`] that picks the cheapest one per call site.
//!
//! Each predictor composes the calibrated parameter vector — send/receive
//! overhead `o`, message gap `g`, wire latency `L`, and per-byte bulk Gap
//! `G` ([`NetConfig`]) — into an estimate of the variant's completion time
//! in microseconds, the same way the paper's §2 micro-model composes
//! `2L + 4o` for a round trip. The models are deliberately first-order
//! (they ignore poll jitter, ack piggybacking, and window stalls); the
//! conformance suite pins their error against simulated time and, more
//! importantly, checks that the *argmin* over variants matches the
//! measured argmin — ranking fidelity is what the selector needs, not
//! absolute accuracy.

use nowlab_am::{NetConfig, GAM_FRAG_BYTES};

use crate::config::{A2aAlgo, BcastAlgo, CollAlgo, CollConfig, GatherAlgo, ReduceAlgo};

/// The LogGP vector in microseconds, extracted once per prediction.
#[derive(Clone, Copy, Debug)]
struct M {
    /// Effective send overhead `o_s + Δo`.
    os: f64,
    /// Effective receive overhead `o_r + Δo`.
    or: f64,
    /// Effective message gap `g + Δg`.
    g: f64,
    /// Effective wire latency `L + ΔL`.
    l: f64,
    /// Effective per-byte bulk gap `G + ΔG` (µs/byte).
    gpb: f64,
}

/// Bulk fragmentation grain in bytes.
const FRAG: f64 = GAM_FRAG_BYTES as f64;

impl M {
    fn of(cfg: &NetConfig) -> M {
        M {
            os: cfg.eff_o_send().as_micros_f64(),
            or: cfg.eff_o_recv().as_micros_f64(),
            g: cfg.eff_gap().as_micros_f64(),
            l: cfg.eff_latency().as_micros_f64(),
            gpb: cfg.eff_gap_per_byte().as_micros_f64(),
        }
    }

    /// NIC transmit occupancy for a `bytes`-byte payload: each ≤frag
    /// fragment holds the transmit context for `max(g, G·frag)`.
    fn dma(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mut left = bytes;
        let mut t = 0.0;
        while left > 0.0 {
            let b = if left > FRAG { FRAG } else { left };
            let frag_t = self.gpb * b;
            t += if frag_t > self.g { frag_t } else { self.g };
            left -= b;
        }
        t
    }

    /// End-to-end time of one message carrying `bytes` of payload:
    /// `o_s + DMA + L + o_r` (short messages skip the DMA term).
    fn msg(&self, bytes: f64) -> f64 {
        self.os + self.dma(bytes) + self.l + self.or
    }

    /// Issue interval between back-to-back sends from one processor:
    /// the larger of host occupancy and NIC occupancy.
    fn interval(&self, bytes: f64) -> f64 {
        let nic = if bytes > 0.0 { self.dma(bytes) } else { self.g };
        if self.os > nic {
            self.os
        } else {
            nic
        }
    }

    /// Receiver-side drain interval for an incast of short or `bytes`-byte
    /// messages: the larger of receive overhead and the wire gap.
    fn drain(&self, bytes: f64) -> f64 {
        let nic = if bytes > 0.0 { self.dma(bytes) } else { self.g };
        if self.or > nic {
            self.or
        } else {
            nic
        }
    }

    /// Host cost of one acknowledgement leg: the receiver's reply send
    /// plus the sender's receipt of it. At the calibrated baseline this
    /// sum happens to equal the wire gap (`o_s + o_r = g = 5.8 µs`), so
    /// the ack traffic of the synchronized algorithms is invisible there
    /// and only enters the predictions once overhead outgrows the gap.
    fn oo(&self) -> f64 {
        self.os + self.or
    }
}

/// `⌈log₂ p⌉` (0 for `p ≤ 1`).
pub(crate) fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Predicted completion time of a `bytes`-byte broadcast over `procs`
/// processors, in microseconds.
pub fn bcast_us(cfg: &NetConfig, algo: BcastAlgo, procs: usize, bytes: u64) -> f64 {
    let m = M::of(cfg);
    let p = procs as f64;
    let b = bytes as f64;
    if procs <= 1 {
        return 0.0;
    }
    match algo {
        // The deepest leaf is ⌈log₂P⌉ forward hops from the root. Interior
        // nodes re-issue toward later children while the earlier subtree is
        // already in flight, so only the short-message issue gap — not the
        // full payload occupancy — lands on the critical path per round.
        BcastAlgo::Binomial => {
            let rounds = f64::from(ceil_log2(procs));
            rounds * m.msg(b) + (rounds - 1.0).max(0.0) * m.os.max(m.g)
        }
        // Fill the P−1 hop pipe with one segment, then stream the
        // remaining segments at the per-hop store-and-forward interval.
        // Each relay's acknowledgement send sits between receiving a
        // segment and forwarding it, so every hop carries one extra `o_s`.
        BcastAlgo::Chain => {
            let nseg = (b / FRAG).ceil().max(1.0);
            let seg = b / nseg;
            let step = m.or + m.os + m.dma(seg).max(m.g);
            (p - 1.0) * (m.msg(seg) + m.os) + (nseg - 1.0) * step
        }
        // Root scatters P−1 blocks of B/P, then a ring cycles every block
        // past every processor in P−1 neighbour steps. A step is floored
        // by the host's per-exchange CPU (send + receive of a block and
        // its ack), and once overhead alone outgrows both the gap and the
        // block's NIC occupancy the staggered entry from the scatter
        // never damps, stacking a second ack round onto every step.
        BcastAlgo::ScatterAllgather => {
            let blk = b / p;
            let scatter = (p - 2.0).max(0.0) * m.interval(blk) + m.msg(blk);
            let mut step = (m.msg(blk) + m.os.max(m.g)).max(2.0 * m.oo());
            if m.os > m.g.max(m.dma(blk)) {
                step += 2.0 * m.oo();
            }
            scatter + (p - 1.0) * step
        }
    }
}

/// Predicted completion time of an allreduce-sum over `procs` processors,
/// in microseconds (values are single words; payload cost is nil).
pub fn reduce_us(cfg: &NetConfig, algo: ReduceAlgo, procs: usize) -> f64 {
    let m = M::of(cfg);
    let p = procs as f64;
    if procs <= 1 {
        return 0.0;
    }
    match algo {
        // P−1 contributions drain serially at the root (each receipt also
        // pays its ack send), then P−1 result sends fan back out and the
        // last leaf acknowledges its result.
        ReduceAlgo::Flat => {
            m.msg(0.0) + (p - 1.0) * m.oo().max(m.g) + (p - 1.0) * m.os.max(m.g) + m.l + m.or + m.os
        }
        // ⌈log₂P⌉ combine rounds up the tree, the same tree down; every
        // hop includes the receiver's ack send before it can forward.
        ReduceAlgo::Tree => 2.0 * f64::from(ceil_log2(procs)) * (m.msg(0.0) + m.os),
    }
}

/// Predicted completion time of an allgather of `bytes`-byte per-processor
/// blocks over `procs` processors, in microseconds.
pub fn allgather_us(cfg: &NetConfig, algo: GatherAlgo, procs: usize, bytes: u64) -> f64 {
    let m = M::of(cfg);
    let p = procs as f64;
    let b = bytes as f64;
    if procs <= 1 {
        return 0.0;
    }
    match algo {
        // P−1 synchronized neighbour steps, each a full block send +
        // receive, floored by the host's per-exchange CPU.
        GatherAlgo::Ring => (p - 1.0) * (m.msg(b) + m.os.max(m.g)).max(2.0 * m.oo()),
        // Every processor streams P−1 blocks out and drains P−1 in; the
        // send serialization and the receive incast overlap, and the last
        // message's DMA is already inside that serialization, leaving
        // only its issue/wire/receive tail. When the hosts are the
        // bottleneck the exchange instead degenerates to pure CPU: posts,
        // block receipts, their ack sends — and, once `o_s` exceeds the
        // gap, the ack receipts land inside the window too instead of
        // trailing the last block.
        GatherAlgo::Direct => {
            let tx = (p - 1.0) * m.interval(b);
            let rx = (p - 1.0) * m.drain(b);
            let wire = tx.max(rx) + m.os + m.l + m.or;
            let mut cpu = (p - 1.0) * (2.0 * m.os + m.or);
            if m.os > m.g {
                cpu += (p - 1.0) * m.or;
            }
            wire.max(cpu)
        }
    }
}

/// Predicted completion time of a personalized all-to-all with
/// `bytes`-byte per-destination blocks over `procs` processors, in
/// microseconds.
pub fn alltoall_us(cfg: &NetConfig, algo: A2aAlgo, procs: usize, bytes: u64) -> f64 {
    let m = M::of(cfg);
    let p = procs as f64;
    let b = bytes as f64;
    if procs <= 1 {
        return 0.0;
    }
    match algo {
        // Same shape as the direct allgather, with per-destination data
        // (see [`allgather_us`] for the wire/CPU regimes).
        A2aAlgo::Direct => {
            let tx = (p - 1.0) * m.interval(b);
            let rx = (p - 1.0) * m.drain(b);
            let wire = tx.max(rx) + m.os + m.l + m.or;
            let mut cpu = (p - 1.0) * (2.0 * m.os + m.or);
            if m.os > m.g {
                cpu += (p - 1.0) * m.or;
            }
            wire.max(cpu)
        }
        // P−1 synchronized pairwise exchange steps, floored by the
        // host's per-exchange CPU.
        A2aAlgo::Pairwise => (p - 1.0) * (m.msg(b) + m.os.max(m.g)).max(2.0 * m.oo()),
    }
}

/// Picks a variant per collective call site: the forced variant when the
/// run's [`CollConfig`] names an applicable one, otherwise the argmin of
/// the analytic model over the variants (declaration order of the
/// variant's `ALL` array breaks exact ties, so selection is a pure,
/// deterministic function of the configuration).
#[derive(Clone, Copy, Debug)]
pub struct Selector {
    net: NetConfig,
    procs: usize,
    force: CollAlgo,
}

impl Selector {
    /// A selector for a `procs`-processor cluster on network `net` under
    /// policy `cfg`.
    pub fn new(net: NetConfig, procs: usize, cfg: CollConfig) -> Self {
        Selector {
            net,
            procs,
            force: cfg.algo,
        }
    }

    /// The broadcast variant for a `bytes`-byte payload.
    pub fn broadcast(&self, bytes: u64) -> BcastAlgo {
        match self.force {
            CollAlgo::Binomial => return BcastAlgo::Binomial,
            CollAlgo::Chain => return BcastAlgo::Chain,
            CollAlgo::ScatterAllgather => return BcastAlgo::ScatterAllgather,
            _ => {}
        }
        let mut best = BcastAlgo::ALL[0];
        let mut best_t = bcast_us(&self.net, best, self.procs, bytes);
        for &algo in &BcastAlgo::ALL[1..] {
            let t = bcast_us(&self.net, algo, self.procs, bytes);
            if t < best_t {
                best = algo;
                best_t = t;
            }
        }
        best
    }

    /// The allreduce variant.
    pub fn reduce(&self) -> ReduceAlgo {
        match self.force {
            CollAlgo::Flat => return ReduceAlgo::Flat,
            CollAlgo::Tree => return ReduceAlgo::Tree,
            _ => {}
        }
        let mut best = ReduceAlgo::ALL[0];
        let mut best_t = reduce_us(&self.net, best, self.procs);
        for &algo in &ReduceAlgo::ALL[1..] {
            let t = reduce_us(&self.net, algo, self.procs);
            if t < best_t {
                best = algo;
                best_t = t;
            }
        }
        best
    }

    /// The allgather variant for `bytes`-byte per-processor blocks.
    pub fn allgather(&self, bytes: u64) -> GatherAlgo {
        match self.force {
            CollAlgo::Ring => return GatherAlgo::Ring,
            CollAlgo::Direct => return GatherAlgo::Direct,
            _ => {}
        }
        let mut best = GatherAlgo::ALL[0];
        let mut best_t = allgather_us(&self.net, best, self.procs, bytes);
        for &algo in &GatherAlgo::ALL[1..] {
            let t = allgather_us(&self.net, algo, self.procs, bytes);
            if t < best_t {
                best = algo;
                best_t = t;
            }
        }
        best
    }

    /// The all-to-all variant for `bytes`-byte per-destination blocks.
    pub fn alltoall(&self, bytes: u64) -> A2aAlgo {
        match self.force {
            CollAlgo::Direct => return A2aAlgo::Direct,
            CollAlgo::Pairwise => return A2aAlgo::Pairwise,
            _ => {}
        }
        let mut best = A2aAlgo::ALL[0];
        let mut best_t = alltoall_us(&self.net, best, self.procs, bytes);
        for &algo in &A2aAlgo::ALL[1..] {
            let t = alltoall_us(&self.net, algo, self.procs, bytes);
            if t < best_t {
                best = algo;
                best_t = t;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_am::Knobs;
    use nowlab_sim::SimDelta;

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn forced_algo_overrides_the_model() {
        let sel = Selector::new(
            NetConfig::berkeley_now(),
            8,
            CollConfig::forced(CollAlgo::Chain),
        );
        assert_eq!(sel.broadcast(8), BcastAlgo::Chain);
        assert_eq!(sel.broadcast(1 << 20), BcastAlgo::Chain);
        // Chain names no reduce variant: reduce selection stays free.
        let _ = sel.reduce();
    }

    #[test]
    fn high_overhead_favours_logarithmic_trees() {
        // At Δo = 50µs per message end, message count dominates: the
        // binomial tree must beat the P−1-hop chain for small payloads.
        let cfg =
            NetConfig::berkeley_now().with_knobs(Knobs::with_overhead(SimDelta::from_micros(50.0)));
        let sel = Selector::new(cfg, 16, CollConfig::default());
        assert_eq!(sel.broadcast(64), BcastAlgo::Binomial);
        assert_eq!(sel.reduce(), ReduceAlgo::Tree);
    }

    #[test]
    fn predictions_scale_with_size_and_procs() {
        let cfg = NetConfig::berkeley_now();
        for algo in BcastAlgo::ALL {
            assert!(bcast_us(&cfg, algo, 8, 64_000) > bcast_us(&cfg, algo, 8, 64));
            assert!(bcast_us(&cfg, algo, 16, 64) > bcast_us(&cfg, algo, 2, 64));
            assert_eq!(bcast_us(&cfg, algo, 1, 64), 0.0);
        }
        for algo in GatherAlgo::ALL {
            assert!(allgather_us(&cfg, algo, 8, 4096) > allgather_us(&cfg, algo, 8, 32));
        }
        for algo in A2aAlgo::ALL {
            assert!(alltoall_us(&cfg, algo, 8, 4096) > alltoall_us(&cfg, algo, 8, 32));
        }
        for algo in ReduceAlgo::ALL {
            assert!(reduce_us(&cfg, algo, 16) > reduce_us(&cfg, algo, 2));
        }
    }
}
