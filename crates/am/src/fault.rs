//! Deterministic fault injection and the reliable-delivery constants.
//!
//! The paper's GAM/Myrinet apparatus assumes a lossless SAN, so the
//! baseline transport delivers every injected message exactly once. This
//! module adds the misbehaving-fabric regime: a [`FaultPlan`] describes,
//! per (source, destination) link, how the network may **drop**,
//! **duplicate**, or **jitter** (reorder) messages, and when whole links
//! suffer transient [`Outage`] windows. Fixed constants ([`RTO`],
//! [`RTO_MAX`], [`MAX_ATTEMPTS`]) tune the retransmission protocol the AM
//! layer switches on to survive those faults (sequence numbers,
//! cumulative acks, timeout-driven retransmit with exponential backoff —
//! see DESIGN.md §3).
//!
//! # Determinism
//!
//! Every fault decision is a pure hash of `(plan seed, src, dst, per-link
//! attempt counter, decision kind)` — no sequential generator state is
//! threaded through the transport. Because the simulator schedules
//! injections deterministically, the attempt counters are deterministic,
//! so **the same plan seed always yields the identical fault pattern and
//! identical virtual times** (the same discipline the apparatus already
//! uses for workload seeding). Probabilities are stored in integer parts
//! per million so [`crate::NetConfig`] stays `Copy + Eq + Hash`.
//!
//! The default [`FaultPlan::none`] is inert: the transport checks one
//! boolean and takes the exact seed code path, so all lossless benches and
//! tests are bit-identical to a build without this module.

use nowlab_sim::{SimDelta, SimTime};
use std::fmt;

/// Maximum number of outage windows a plan can carry (fixed so the plan
/// stays `Copy`).
pub(crate) const MAX_OUTAGES: usize = 4;

/// One part per million; probabilities are stored as integers in
/// `[0, PPM_SCALE]`.
pub(crate) const PPM_SCALE: u32 = 1_000_000;

/// A transient link outage: during `[start, end)` the affected link drops
/// every message (both message classes). Use [`Outage::permanent`] to take
/// a link down forever — the livelock guard (`event_limit` /
/// `time_limit`) must then turn the run into the paper's `N/A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct Outage {
    /// First instant of the outage.
    pub start: SimTime,
    /// First instant after the outage.
    pub end: SimTime,
    /// Affected destination processor, or `None` for all destinations.
    pub dst: Option<usize>,
}

impl Outage {
    /// An outage of every link during `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn window(start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "outage window must be non-empty");
        Outage {
            start,
            end,
            dst: None,
        }
    }

    /// A permanent outage of every link from `start` on.
    pub fn permanent(start: SimTime) -> Self {
        Outage {
            start,
            end: SimTime::MAX,
            dst: None,
        }
    }

    /// Restricts the outage to messages to `dst`.
    pub fn to_dst(mut self, dst: usize) -> Self {
        self.dst = Some(dst);
        self
    }

    /// True if this outage swallows a message to `dst` hitting the wire
    /// at `t`.
    pub(crate) fn covers(&self, t: SimTime, dst: usize) -> bool {
        self.start <= t && t < self.end && self.dst.is_none_or(|d| d == dst)
    }
}

/// A deterministic, seeded fault model for the cluster network.
///
/// Probabilities are per *injection attempt*: short messages roll once,
/// bulk messages roll once per ≤[`crate::GAM_FRAG_BYTES`] fragment
/// (losing any fragment loses the whole message — the transport has no
/// partial-message semantics, so the retransmit resends it all, as GAM
/// would).
///
/// Attach to a [`crate::NetConfig`] with
/// [`crate::NetConfig::with_faults`]; the reliable-delivery protocol
/// engages automatically whenever the plan [is active](FaultPlan::is_active).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Seed for all fault decisions (same seed ⇒ identical fault pattern).
    pub seed: u64,
    /// Drop probability for short messages, in parts per million.
    pub drop_short_ppm: u32,
    /// Drop probability per bulk fragment, in parts per million.
    pub drop_bulk_ppm: u32,
    /// Duplication probability per delivered message, in parts per
    /// million.
    pub dup_ppm: u32,
    /// Upper bound on extra transit delay (uniform in `[0, jitter_max]`);
    /// nonzero jitter reorders messages that left within a window of each
    /// other.
    pub jitter_max: SimDelta,
    /// Scheduled link outages (up to four).
    pub outages: [Option<Outage>; MAX_OUTAGES],
}

impl FaultPlan {
    /// The inert plan: no faults, reliability protocol disengaged, the
    /// transport byte-identical to the lossless baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan dropping both message classes with probability `rate`
    /// (`0.0..=1.0`), seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_drop_rate(rate: f64, seed: u64) -> Self {
        FaultPlan::none().with_seed(seed).with_drops(rate, rate)
    }

    /// Replaces the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the drop probabilities for short messages and bulk fragments.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn with_drops(mut self, short: f64, bulk_frag: f64) -> Self {
        self.drop_short_ppm = to_ppm(short);
        self.drop_bulk_ppm = to_ppm(bulk_frag);
        self
    }

    /// Sets the duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_dup(mut self, rate: f64) -> Self {
        self.dup_ppm = to_ppm(rate);
        self
    }

    /// Sets the reorder-jitter bound.
    pub fn with_jitter(mut self, jitter_max: SimDelta) -> Self {
        self.jitter_max = jitter_max;
        self
    }

    /// Adds an outage window, coalescing it with any existing window of
    /// the same destination scope that overlaps or abuts it. Without the
    /// merge, a doubly-covered span would silently occupy two slots and
    /// make equivalent plans compare unequal (`NetConfig` is `Eq + Hash`).
    ///
    /// # Panics
    ///
    /// Panics if the plan already holds four disjoint outages.
    pub fn with_outage(mut self, outage: Outage) -> Self {
        let mut merged = outage;
        // Repeat until no slot overlaps: the union of two windows can
        // newly bridge a third.
        loop {
            let mut changed = false;
            for slot in self.outages.iter_mut() {
                if let Some(o) = *slot {
                    if o.dst == merged.dst && o.start <= merged.end && merged.start <= o.end {
                        merged.start = merged.start.min(o.start);
                        merged.end = merged.end.max(o.end);
                        *slot = None;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let slot = self
            .outages
            .iter_mut()
            .find(|o| o.is_none())
            .expect("FaultPlan: too many outages");
        *slot = Some(merged);
        self
    }

    /// True if the plan can perturb anything — this is the switch that
    /// engages the reliability protocol.
    pub fn is_active(&self) -> bool {
        self.drop_short_ppm > 0
            || self.drop_bulk_ppm > 0
            || self.dup_ppm > 0
            || !self.jitter_max.is_zero()
            || self.outages.iter().any(Option::is_some)
    }

    /// True if some outage swallows a message to `dst` hitting the wire at
    /// `t`.
    pub(crate) fn in_outage(&self, t: SimTime, dst: usize) -> bool {
        self.outages.iter().flatten().any(|o| o.covers(t, dst))
    }

    /// Drop decision for injection attempt `nonce` on `(src, dst)`; bulk
    /// messages call once per fragment with distinct `frag` indices.
    pub(crate) fn drops(&self, src: usize, dst: usize, nonce: u64, frag: u32, bulk: bool) -> bool {
        let ppm = if bulk {
            self.drop_bulk_ppm
        } else {
            self.drop_short_ppm
        };
        roll(
            self.decision(src, dst, nonce, u64::from(frag), salt::DROP),
            ppm,
        )
    }

    /// Duplication decision for injection attempt `nonce` on `(src, dst)`.
    pub(crate) fn duplicates(&self, src: usize, dst: usize, nonce: u64) -> bool {
        roll(self.decision(src, dst, nonce, 0, salt::DUP), self.dup_ppm)
    }

    /// Extra transit delay for delivery `copy` (0 = original, 1 = the
    /// duplicate) of injection attempt `nonce` on `(src, dst)` — uniform
    /// in `[0, jitter_max]`.
    pub(crate) fn jitter(&self, src: usize, dst: usize, nonce: u64, copy: u64) -> SimDelta {
        let bound = self.jitter_max.as_nanos();
        if bound == 0 {
            return SimDelta::ZERO;
        }
        let h = self.decision(src, dst, nonce, copy, salt::JITTER);
        SimDelta::from_nanos(h % (bound + 1))
    }

    /// The stateless decision hash: a strong 64-bit mix of the plan seed
    /// and the decision coordinates (same family as the splitc lock
    /// backoff and the apps' `mix64`).
    fn decision(&self, src: usize, dst: usize, nonce: u64, extra: u64, salt: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((dst as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add(nonce.wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(extra.wrapping_mul(0x9FB2_1C65_1E98_DF25))
            ^ salt;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 33;
        x
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return write!(f, "faults=none");
        }
        write!(
            f,
            "faults[seed={} drop={:.2}%/{:.2}% dup={:.2}% jitter={} outages={}]",
            self.seed,
            self.drop_short_ppm as f64 / 10_000.0,
            self.drop_bulk_ppm as f64 / 10_000.0,
            self.dup_ppm as f64 / 10_000.0,
            self.jitter_max,
            self.outages.iter().flatten().count(),
        )
    }
}

/// Distinct decision kinds must never share a hash.
mod salt {
    pub(crate) const DROP: u64 = 0x11;
    pub(crate) const DUP: u64 = 0x22;
    pub(crate) const JITTER: u64 = 0x33;
    pub(crate) const BACKOFF: u64 = 0x44;
    pub(crate) const HEARTBEAT: u64 = 0x55;
}

/// Maximum number of node faults a plan can carry (fixed so the plan
/// stays `Copy`).
pub const MAX_NODE_FAULTS: usize = 4;

/// One processor's scheduled misbehavior.
///
/// The model is **fail-pause**: a crashed processor stops executing and
/// stops emitting heartbeats, but its memory survives, so a
/// crash-recovery node resumes exactly where it froze (the LANai-reset
/// regime of the NOW cluster, where the host loses the NIC but not its
/// address space). Crash-stop is the `recover_at == SimTime::MAX` limit.
/// A *straggler* keeps running with its host overhead and compute charges
/// scaled by a fixed multiplier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct NodeFault {
    /// The afflicted processor.
    pub node: usize,
    /// First instant at which the processor is frozen ([`SimTime::MAX`]
    /// for a pure straggler that never crashes).
    pub crash_at: SimTime,
    /// First instant after the freeze ([`SimTime::MAX`] for crash-stop).
    pub recover_at: SimTime,
    /// Multiplier on host overhead and compute charges, in parts per
    /// million (1 000 000 = 1.0× = healthy).
    pub slowdown_ppm: u32,
}

impl NodeFault {
    /// A crash-stop fault: `node` freezes at `at` and never returns.
    pub fn crash(node: usize, at: SimTime) -> Self {
        NodeFault {
            node,
            crash_at: at,
            recover_at: SimTime::MAX,
            slowdown_ppm: PPM_SCALE,
        }
    }

    /// A crash-recovery fault: `node` freezes at `at` and resumes after
    /// `downtime`.
    ///
    /// # Panics
    ///
    /// Panics if `downtime` is zero.
    pub fn crash_recovery(node: usize, at: SimTime, downtime: SimDelta) -> Self {
        assert!(!downtime.is_zero(), "downtime must be positive");
        NodeFault {
            node,
            crash_at: at,
            recover_at: at + downtime,
            slowdown_ppm: PPM_SCALE,
        }
    }

    /// A straggler fault: `node` runs with overhead and compute scaled by
    /// `factor` for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` (a node cannot be faster than healthy).
    pub fn straggler(node: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor {factor} below 1.0");
        NodeFault {
            node,
            crash_at: SimTime::MAX,
            recover_at: SimTime::MAX,
            slowdown_ppm: (factor * f64::from(PPM_SCALE)).round() as u32,
        }
    }

    /// True if the processor is frozen at `t`.
    pub(crate) fn frozen(&self, t: SimTime) -> bool {
        self.crash_at <= t && t < self.recover_at
    }

    /// True if this entry ever freezes its node.
    pub fn crashes(&self) -> bool {
        self.crash_at != SimTime::MAX
    }
}

impl fmt::Display for NodeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.node)?;
        if self.crashes() {
            write!(f, "@{}", self.crash_at)?;
            if self.recover_at != SimTime::MAX {
                write!(f, "+{}", self.recover_at - self.crash_at)?;
            }
        }
        if self.slowdown_ppm != PPM_SCALE {
            write!(
                f,
                "x{:.2}",
                f64::from(self.slowdown_ppm) / f64::from(PPM_SCALE)
            )?;
        }
        Ok(())
    }
}

/// A deterministic, seeded schedule of node-level faults, plus the
/// failure-detector timing every surviving processor runs against it.
///
/// The plan is a pure data value (`Copy + Eq + Hash`, like
/// [`FaultPlan`]): every crash, recovery, and slowdown is scheduled in
/// simulated time up front, and the heartbeat jitter is a stateless hash
/// of `(seed, sender, tick)`. The empty plan is **inert**: the transport
/// checks one boolean, schedules no heartbeat or detector events, and
/// runs bit-identical to a build without the node-failure model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct NodeFaultPlan {
    /// Seed for the deterministic heartbeat jitter.
    pub seed: u64,
    /// Heartbeat emission period (every live node, every period).
    pub(crate) hb_period: SimDelta,
    /// Silence after which an observer *suspects* a peer.
    pub(crate) suspect_after: SimDelta,
    /// Silence after which an observer *confirms* a peer dead.
    pub(crate) confirm_after: SimDelta,
    /// Scheduled node faults (up to [`MAX_NODE_FAULTS`], one per node).
    pub faults: [Option<NodeFault>; MAX_NODE_FAULTS],
}

impl NodeFaultPlan {
    /// The inert plan: no node faults, no heartbeats, no detector — the
    /// transport is byte-identical to the healthy baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Replaces the heartbeat-jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the detector timing: heartbeat `period`, `suspect`
    /// silence threshold, `confirm` silence threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < period ≤ suspect ≤ confirm`.
    pub fn with_detector(mut self, period: SimDelta, suspect: SimDelta, confirm: SimDelta) -> Self {
        assert!(
            !period.is_zero() && period <= suspect && suspect <= confirm,
            "detector timing must satisfy 0 < period <= suspect <= confirm"
        );
        self.hb_period = period;
        self.suspect_after = suspect;
        self.confirm_after = confirm;
        self
    }

    /// Adds a node fault.
    ///
    /// # Panics
    ///
    /// Panics if the plan already holds [`MAX_NODE_FAULTS`] faults or
    /// already afflicts the same node.
    pub fn with_fault(mut self, fault: NodeFault) -> Self {
        assert!(
            !self.faults.iter().flatten().any(|f| f.node == fault.node),
            "NodeFaultPlan: duplicate fault for node {}",
            fault.node
        );
        let slot = self
            .faults
            .iter_mut()
            .find(|f| f.is_none())
            .expect("NodeFaultPlan: too many node faults");
        *slot = Some(fault);
        self
    }

    /// True if the plan afflicts any node — this is the switch that
    /// engages the heartbeat/detector control plane.
    pub fn is_active(&self) -> bool {
        self.faults.iter().any(Option::is_some)
    }

    /// The fault entry afflicting `node`, if any.
    pub fn fault_of(&self, node: usize) -> Option<&NodeFault> {
        self.faults.iter().flatten().find(|f| f.node == node)
    }

    /// True if `node` is frozen (crashed, not yet recovered) at `t`.
    pub(crate) fn frozen(&self, node: usize, t: SimTime) -> bool {
        self.fault_of(node).is_some_and(|f| f.frozen(t))
    }

    /// Overhead/compute slowdown multiplier for `node`, in parts per
    /// million ([`PPM_SCALE`] for a healthy node).
    pub(crate) fn slowdown_ppm(&self, node: usize) -> u32 {
        self.fault_of(node).map_or(PPM_SCALE, |f| f.slowdown_ppm)
    }

    /// Scales a host charge by `node`'s straggler multiplier.
    pub(crate) fn scale(&self, node: usize, d: SimDelta) -> SimDelta {
        let ppm = self.slowdown_ppm(node);
        if ppm == PPM_SCALE {
            return d;
        }
        SimDelta::from_nanos(
            (u128::from(d.as_nanos()) * u128::from(ppm) / u128::from(PPM_SCALE)) as u64,
        )
    }

    /// The instant by which every scheduled fault's fate is settled from
    /// every observer's perspective: each crash has been confirmable for
    /// a full confirm window past its recovery (or forever, for
    /// crash-stop), plus two heartbeat periods of evaluation margin.
    /// The control plane stops re-arming ticks past this point — after
    /// it, no tick can change detector state, so bare clusters with no
    /// SPMD epilogue still reach quiescence.
    pub(crate) fn settle_by(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for f in self.faults.iter().flatten() {
            if !f.crashes() {
                continue;
            }
            let resolved = if f.recover_at == SimTime::MAX {
                f.crash_at
            } else {
                f.recover_at
            };
            t = t.max(resolved + self.confirm_after);
        }
        t + self.hb_period * 2
    }

    /// Deterministic heartbeat delivery jitter for `sender`'s beat at
    /// `tick` — a stateless hash in `[0, hb_period/8]`, so identical
    /// plans always produce the identical detector timeline.
    pub(crate) fn hb_jitter(&self, sender: usize, tick: u64) -> SimDelta {
        let bound = self.hb_period.as_nanos() / 8;
        if bound == 0 {
            return SimDelta::ZERO;
        }
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((sender as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(tick.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ salt::HEARTBEAT;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        SimDelta::from_nanos(x % (bound + 1))
    }
}

impl Default for NodeFaultPlan {
    /// Inert plan with the baseline detector timing: 100 µs heartbeats,
    /// suspect after 400 µs of silence, confirm after 1.2 ms — an order
    /// of magnitude above the NOW round trip, well under app runtimes.
    fn default() -> Self {
        NodeFaultPlan {
            seed: 0,
            hb_period: SimDelta::from_micros(100.0),
            suspect_after: SimDelta::from_micros(400.0),
            confirm_after: SimDelta::from_micros(1200.0),
            faults: [None; MAX_NODE_FAULTS],
        }
    }
}

impl fmt::Display for NodeFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return write!(f, "nodes=healthy");
        }
        write!(f, "nodes[hb={} ", self.hb_period)?;
        for (i, fault) in self.faults.iter().flatten().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fault}")?;
        }
        write!(f, "]")
    }
}

fn to_ppm(rate: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&rate),
        "fault rate {rate} outside [0, 1]"
    );
    (rate * f64::from(PPM_SCALE)).round() as u32
}

fn roll(hash: u64, ppm: u32) -> bool {
    // Unbiased enough for fault injection: 2^64 % 1e6 bias is ~5e-14.
    (hash % u64::from(PPM_SCALE)) < u64::from(ppm)
}

/// Initial retransmission timeout of the reliable-delivery protocol
/// (engaged when the fault plan is active; see DESIGN.md §3 for the wire
/// format and the exactly-once argument). It generously exceeds the round
/// trip (2L + 4o ≈ 21.6 µs at the NOW baseline) plus queueing, so
/// spurious retransmits do not churn the wire: an order of magnitude above
/// the baseline round trip, two below the app-suite runtimes.
pub const RTO: SimDelta = SimDelta::from_nanos(250_000);

/// Upper bound on the backed-off retransmission timeout.
pub(crate) const RTO_MAX: SimDelta = SimDelta::from_nanos(16_000_000);

/// Maximum injection attempts per message (first send plus
/// retransmissions) before the sender gives up and escalates the peer to
/// its failure detector as dead. GAM's credit protocol bounds its own
/// NACK-retry the same way; 16 attempts make a spurious escalation
/// vanishingly rare even at heavy loss (0.05¹⁶ ≈ 10⁻²¹).
pub const MAX_ATTEMPTS: u32 = 16;

/// The backoff before retransmission attempt `attempt` (1-based) of
/// request `req` on `(src, dst)`: [`RTO`]` · 2^(attempt-1)` capped at
/// [`RTO_MAX`], plus a deterministic hash jitter in `[0, backoff/4]` —
/// the same mechanism family as the Barnes lock backoff (DESIGN.md §6).
pub(crate) fn backoff(seed: u64, src: usize, dst: usize, req: u64, attempt: u32) -> SimDelta {
    let doublings = attempt.saturating_sub(1).min(20);
    let base = (RTO * (1u64 << doublings)).min(RTO_MAX);
    let jitter_bound = base.as_nanos() / 4;
    if jitter_bound == 0 {
        return base;
    }
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((src as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add((dst as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(req.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(u64::from(attempt).wrapping_mul(0x9FB2_1C65_1E98_DF25))
        ^ salt::BACKOFF;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 29;
    base + SimDelta::from_nanos(h % (jitter_bound + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_is_inactive_and_default() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::default());
        assert!(!p.drops(0, 1, 0, 0, false));
        assert!(!p.duplicates(0, 1, 0));
        assert_eq!(p.jitter(0, 1, 0, 0), SimDelta::ZERO);
        assert!(!p.in_outage(SimTime::ZERO, 1));
    }

    #[test]
    fn activity_flags() {
        assert!(FaultPlan::with_drop_rate(0.01, 1).is_active());
        assert!(FaultPlan::none().with_dup(0.5).is_active());
        assert!(FaultPlan::none()
            .with_jitter(SimDelta::from_micros(1.0))
            .is_active());
        assert!(FaultPlan::none()
            .with_outage(Outage::permanent(SimTime::ZERO))
            .is_active());
        // A bare seed perturbs nothing.
        assert!(!FaultPlan::none().with_seed(7).is_active());
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let p = FaultPlan::with_drop_rate(0.10, 42);
        let hits = (0..100_000).filter(|&n| p.drops(0, 1, n, 0, false)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.10).abs() < 0.01, "measured {rate}");
        // Bulk fragments roll their own class.
        let p = FaultPlan::none().with_drops(0.0, 0.5);
        assert!(!(0..1000).any(|n| p.drops(0, 1, n, 0, false)));
        let bulk_hits = (0..100_000).filter(|&n| p.drops(0, 1, n, 0, true)).count();
        assert!((bulk_hits as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::with_drop_rate(0.3, 7);
        let b = FaultPlan::with_drop_rate(0.3, 7);
        let c = FaultPlan::with_drop_rate(0.3, 8);
        let pat =
            |p: &FaultPlan| -> Vec<bool> { (0..256).map(|n| p.drops(2, 3, n, 0, false)).collect() };
        assert_eq!(pat(&a), pat(&b));
        assert_ne!(pat(&a), pat(&c));
        // Links draw independent streams.
        let other_link: Vec<bool> = (0..256).map(|n| a.drops(3, 2, n, 0, false)).collect();
        assert_ne!(pat(&a), other_link);
    }

    #[test]
    fn jitter_is_bounded() {
        let p = FaultPlan::none()
            .with_jitter(SimDelta::from_micros(5.0))
            .with_seed(1);
        let mut max_seen = SimDelta::ZERO;
        for n in 0..10_000 {
            let j = p.jitter(0, 1, n, 0);
            assert!(j <= SimDelta::from_micros(5.0));
            max_seen = max_seen.max(j);
        }
        // The bound is actually approached.
        assert!(max_seen > SimDelta::from_micros(4.5), "max {max_seen}");
    }

    #[test]
    fn outage_windows_cover_and_filter() {
        let o = Outage::window(SimTime::from_nanos(100), SimTime::from_nanos(200));
        assert!(o.covers(SimTime::from_nanos(100), 1));
        assert!(o.covers(SimTime::from_nanos(199), 2));
        assert!(!o.covers(SimTime::from_nanos(200), 1));
        assert!(!o.covers(SimTime::from_nanos(99), 1));
        let scoped = o.to_dst(2);
        assert!(scoped.covers(SimTime::from_nanos(150), 2));
        assert!(!scoped.covers(SimTime::from_nanos(150), 3));
        assert!(!scoped.covers(SimTime::from_nanos(250), 2));
        let perm = Outage::permanent(SimTime::from_nanos(10));
        assert!(perm.covers(SimTime::from_nanos(u64::MAX - 1), 1));
        let plan = FaultPlan::none().with_outage(o).with_outage(perm);
        assert!(plan.in_outage(SimTime::from_nanos(150), 1));
        assert!(!plan.in_outage(SimTime::ZERO, 1));
    }

    #[test]
    #[should_panic(expected = "too many outages")]
    fn outage_capacity_enforced() {
        // Disjoint windows (overlapping ones would coalesce into one).
        let mut p = FaultPlan::none();
        for i in 0..=MAX_OUTAGES as u64 {
            p = p.with_outage(Outage::window(
                SimTime::from_nanos(10 * i),
                SimTime::from_nanos(10 * i + 5),
            ));
        }
    }

    #[test]
    fn overlapping_outages_merge_into_one_window() {
        let t = SimTime::from_nanos;
        let a = Outage::window(t(100), t(200));
        let b = Outage::window(t(150), t(300));
        // Overlapping same-scope windows coalesce: the plan is identical
        // to one built from the union, occupying a single slot.
        let merged = FaultPlan::none().with_outage(a).with_outage(b);
        assert_eq!(
            merged,
            FaultPlan::none().with_outage(Outage::window(t(100), t(300)))
        );
        assert_eq!(merged.outages.iter().flatten().count(), 1);
        // Abutting windows coalesce too (the union covers both spans).
        let abut = FaultPlan::none()
            .with_outage(Outage::window(t(100), t(200)))
            .with_outage(Outage::window(t(200), t(250)));
        assert_eq!(
            abut,
            FaultPlan::none().with_outage(Outage::window(t(100), t(250)))
        );
        // A later window can bridge two earlier disjoint ones.
        let bridged = FaultPlan::none()
            .with_outage(Outage::window(t(100), t(150)))
            .with_outage(Outage::window(t(200), t(250)))
            .with_outage(Outage::window(t(140), t(210)));
        assert_eq!(bridged.outages.iter().flatten().count(), 1);
        assert!(bridged.in_outage(t(175), 1));
        // Different scopes never merge: per-destination and all-links
        // windows are distinct fault populations.
        let scoped = FaultPlan::none().with_outage(a).with_outage(b.to_dst(1));
        assert_eq!(scoped.outages.iter().flatten().count(), 2);
    }

    #[test]
    fn node_fault_plan_schedules_and_scales() {
        let t = |us: f64| SimTime::ZERO + SimDelta::from_micros(us);
        let plan = NodeFaultPlan::none()
            .with_fault(NodeFault::crash(3, t(100.0)))
            .with_fault(NodeFault::crash_recovery(
                1,
                t(50.0),
                SimDelta::from_micros(25.0),
            ))
            .with_fault(NodeFault::straggler(2, 2.5));
        assert!(plan.is_active());
        assert!(!NodeFaultPlan::none().is_active());
        // Crash-stop: frozen from crash_at on, forever.
        assert!(!plan.frozen(3, t(99.9)));
        assert!(plan.frozen(3, t(100.0)));
        assert!(plan.frozen(3, t(999_000.0)));
        // Crash-recovery: frozen only inside the downtime window.
        assert!(plan.frozen(1, t(50.0)));
        assert!(plan.frozen(1, t(74.9)));
        assert!(!plan.frozen(1, t(75.0)));
        // Straggler never freezes but scales charges.
        assert!(!plan.frozen(2, t(0.0)));
        assert_eq!(
            plan.scale(2, SimDelta::from_nanos(1000)),
            SimDelta::from_nanos(2500)
        );
        // Healthy nodes scale by exactly 1 (bit-identical charges).
        assert_eq!(
            plan.scale(0, SimDelta::from_nanos(1234)),
            SimDelta::from_nanos(1234)
        );
        assert_eq!(plan.slowdown_ppm(0), PPM_SCALE);
    }

    #[test]
    fn node_fault_plan_is_deterministic_data() {
        let t = |us: f64| SimTime::ZERO + SimDelta::from_micros(us);
        let a = NodeFaultPlan::none().with_fault(NodeFault::crash(0, t(10.0)));
        let b = NodeFaultPlan::none().with_fault(NodeFault::crash(0, t(10.0)));
        assert_eq!(a, b);
        // Heartbeat jitter is a pure bounded hash of (seed, sender, tick).
        for tick in 0..64 {
            let j = a.hb_jitter(1, tick);
            assert_eq!(j, b.hb_jitter(1, tick));
            assert!(j <= a.hb_period / 8);
        }
        assert_ne!(
            (0..64)
                .map(|k| a.with_seed(9).hb_jitter(1, k))
                .collect::<Vec<_>>(),
            (0..64).map(|k| a.hb_jitter(1, k)).collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate fault")]
    fn duplicate_node_fault_rejected() {
        let _ = NodeFaultPlan::none()
            .with_fault(NodeFault::crash(1, SimTime::ZERO))
            .with_fault(NodeFault::straggler(1, 2.0));
    }

    #[test]
    fn node_plan_display_formats() {
        assert_eq!(format!("{}", NodeFaultPlan::none()), "nodes=healthy");
        let plan = NodeFaultPlan::none().with_fault(NodeFault::crash(
            3,
            SimTime::ZERO + SimDelta::from_micros(100.0),
        ));
        let s = format!("{plan}");
        assert!(s.contains("p3@"), "{s}");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn silly_rates_rejected() {
        let _ = FaultPlan::with_drop_rate(1.5, 0);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let b1 = backoff(0, 0, 1, 0, 1);
        let b2 = backoff(0, 0, 1, 0, 2);
        let b9 = backoff(0, 0, 1, 0, 9);
        // Base doubles (jitter ≤ base/4 keeps attempts ordered).
        assert!(b1 >= RTO && b1 <= RTO + RTO / 4);
        assert!(b2 >= RTO * 2 && b2 <= RTO * 2 + RTO / 2);
        // Attempt 9 is capped at RTO_MAX (+ jitter).
        assert!(b9 >= RTO_MAX && b9 <= RTO_MAX + RTO_MAX / 4);
        // Deterministic.
        assert_eq!(b2, backoff(0, 0, 1, 0, 2));
        // Different requests get different jitter.
        assert_ne!(backoff(0, 0, 1, 10, 3), backoff(0, 0, 1, 11, 3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", FaultPlan::none()), "faults=none");
        let s = format!("{}", FaultPlan::with_drop_rate(0.01, 3));
        assert!(s.contains("drop=1.00%"), "{s}");
    }
}
