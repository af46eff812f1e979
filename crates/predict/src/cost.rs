//! Symbolic edge costs: every DAG edge knows how to re-price itself under
//! an arbitrary `(L, o, g, G)` configuration.
//!
//! The costs come in two families:
//!
//! * **Host spans** (`o_send`, `o_recv`, compute, idle) are carried as the
//!   *measured* baseline span plus the model delta `f(θ) − f(θ_base)`.
//!   At the baseline configuration the delta is zero by construction, so
//!   baseline evaluation reproduces the measured timestamps exactly even
//!   if a span carries state the model does not capture.
//! * **NIC spans** (transmit occupancy, wire transit, receive
//!   serialization) are recomputed from the same integer arithmetic the
//!   transport uses (both call [`NetConfig::tx_spans`]), so they track `g`
//!   and `G` exactly instead of replaying frozen baseline waits.

use std::collections::BTreeMap;

use nowlab_am::{LatencyMode, NetConfig};
use nowlab_sim::SimDelta;
use nowlab_trace::CostClass;

/// Symbolic cost of one DAG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cost {
    /// Ordering only (program order, injection, visibility→pop).
    Zero,
    /// Application compute: invariant under the network parameters.
    Compute(SimDelta),
    /// Send overhead; measured baseline span, repriced by `Δ(o_send+Δo)`.
    OSend(SimDelta),
    /// Receive overhead; measured baseline span, repriced by `Δ(o_recv+Δo)`.
    ORecv(SimDelta),
    /// Idle lower bound: `deadline − enter`, invariant (deadlines shift
    /// with their enter points; see DESIGN.md §13).
    Idle(SimDelta),
    /// Source NIC serialization: the span the *previous* message (of
    /// `bytes` payload bytes) holds the transmit context.
    TxFree { bytes: u32 },
    /// Transmit occupancy plus wire transit of this message.
    Transit { bytes: u32 },
    /// Receive-context serialization behind the previous visible message.
    RxChain,
}

/// Wire transit span under `cfg` (how long after `wire_done` the message
/// reaches the head of the destination's delivery chain).
pub(crate) fn wire_span(cfg: &NetConfig) -> SimDelta {
    match cfg.latency_mode {
        LatencyMode::DelayQueue => cfg.eff_latency(),
        // The naive mechanism applies the base latency on the wire and ΔL
        // in the receive context after the serialization max — which
        // distributes over the max, so it folds into both chain edges.
        LatencyMode::SlowRxPath => cfg.machine.latency + cfg.knobs.d_lat,
    }
}

/// Receive-context serialization span between consecutive visibilities at
/// one destination.
pub(crate) fn rx_chain_span(cfg: &NetConfig) -> SimDelta {
    match cfg.latency_mode {
        LatencyMode::DelayQueue => cfg.eff_gap(),
        LatencyMode::SlowRxPath => cfg.eff_gap() + cfg.knobs.d_lat,
    }
}

/// `measured + (now − base)`, saturating at zero.
fn reprice(measured: SimDelta, now: SimDelta, base: SimDelta) -> SimDelta {
    (measured + now).saturating_sub(base)
}

impl Cost {
    /// The measured baseline span the cost carries (zero for the kinds
    /// that are recomputed from the model alone).
    fn span(self) -> SimDelta {
        match self {
            Cost::Compute(d) | Cost::Idle(d) | Cost::OSend(d) | Cost::ORecv(d) => d,
            Cost::Zero | Cost::TxFree { .. } | Cost::Transit { .. } | Cost::RxChain => {
                SimDelta::ZERO
            }
        }
    }

    /// The edge weight under `cfg`, with `base` the configuration of the
    /// recorded run.
    pub(crate) fn price(self, cfg: &NetConfig, base: &NetConfig) -> SimDelta {
        match self {
            Cost::Zero => SimDelta::ZERO,
            Cost::Compute(d) | Cost::Idle(d) => d,
            Cost::OSend(m) => reprice(m, cfg.eff_o_send(), base.eff_o_send()),
            Cost::ORecv(m) => reprice(m, cfg.eff_o_recv(), base.eff_o_recv()),
            Cost::TxFree { bytes } => cfg.tx_spans(bytes).1,
            Cost::Transit { bytes } => {
                let (dma, _) = cfg.tx_spans(bytes);
                dma + wire_span(cfg)
            }
            Cost::RxChain => rx_chain_span(cfg),
        }
    }

    /// The edge weight split into [`nowlab_trace::CRITICAL_PATH`]
    /// classes (sums to [`Cost::price`]). At most two parts (a bulk
    /// transit edge splits into DMA occupancy and wire transit).
    pub(crate) fn parts(self, cfg: &NetConfig, base: &NetConfig) -> [(CostClass, SimDelta); 2] {
        let zero = (CostClass::Compute, SimDelta::ZERO);
        match self {
            Cost::Zero => [zero, zero],
            Cost::Compute(d) => [(CostClass::Compute, d), zero],
            Cost::Idle(d) => [(CostClass::Idle, d), zero],
            Cost::OSend(_) => [(CostClass::OSend, self.price(cfg, base)), zero],
            Cost::ORecv(_) => [(CostClass::ORecv, self.price(cfg, base)), zero],
            Cost::TxFree { .. } => [(CostClass::TxWait, self.price(cfg, base)), zero],
            Cost::Transit { bytes } => {
                let (dma, _) = cfg.tx_spans(bytes);
                [(CostClass::Dma, dma), (CostClass::Wire, wire_span(cfg))]
            }
            Cost::RxChain => [(CostClass::RxHold, self.price(cfg, base)), zero],
        }
    }
}

/// The price classes of a compiled DAG.
///
/// Two edges are in one class when their costs differ only in the measured
/// span they carry, so that under any `cfg` both are priced
/// `span.saturating_add_signed(Δ)` with one `Δ` per class: zero for the
/// invariant kinds, the signed overhead difference for `OSend`/`ORecv`,
/// and the whole span for the NIC kinds (which carry no measured part).
/// `Δ` comes from [`Cost::price`] on a class representative, so the model
/// is still written down once.
pub(crate) struct Classes {
    base: NetConfig,
    /// One representative per class, indexed by class id.
    reps: Vec<Cost>,
    /// Payload size → class of `TxFree { bytes }`; `Transit { bytes }` is
    /// the next id. Ids follow first use, so they repeat from run to run.
    by_bytes: BTreeMap<u32, u32>,
    /// The size looked up last (consecutive messages mostly share it).
    last: Option<(u32, u32)>,
}

impl Classes {
    /// Ids of the classes every DAG has; the sized ones follow.
    pub(crate) const ZERO: u32 = 0;
    pub(crate) const COMPUTE: u32 = 1;
    pub(crate) const IDLE: u32 = 2;
    pub(crate) const O_SEND: u32 = 3;
    pub(crate) const O_RECV: u32 = 4;
    pub(crate) const RX_CHAIN: u32 = 5;

    pub(crate) fn new(base: &NetConfig) -> Self {
        let zero = SimDelta::ZERO;
        Classes {
            base: *base,
            // In the order of the ids above. The overhead representatives
            // carry the baseline overhead as their span: `reprice` then
            // cannot saturate, and `table` reads the exact signed
            // difference off them.
            reps: vec![
                Cost::Zero,
                Cost::Compute(zero),
                Cost::Idle(zero),
                Cost::OSend(base.eff_o_send()),
                Cost::ORecv(base.eff_o_recv()),
                Cost::RxChain,
            ],
            by_bytes: BTreeMap::new(),
            last: None,
        }
    }

    /// The configuration of the recorded run.
    pub(crate) fn base(&self) -> &NetConfig {
        &self.base
    }

    /// The class of `TxFree { bytes }`; `Transit { bytes }` is the next id.
    pub(crate) fn sized(&mut self, bytes: u32) -> u32 {
        match self.last {
            Some((b, id)) if b == bytes => id,
            _ => {
                let next = self.reps.len() as u32;
                let id = *self.by_bytes.entry(bytes).or_insert(next);
                if id == next {
                    self.reps.push(Cost::TxFree { bytes });
                    self.reps.push(Cost::Transit { bytes });
                }
                self.last = Some((bytes, id));
                id
            }
        }
    }

    /// `Δ` of every class under `cfg`, indexed by class id.
    pub(crate) fn table(&self, cfg: &NetConfig) -> Vec<i64> {
        let signed = |d: SimDelta| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX);
        self.reps
            .iter()
            .map(|rep| signed(rep.price(cfg, &self.base)) - signed(rep.span()))
            .collect()
    }

    /// The symbolic cost of an edge of `class` carrying `span` ns.
    pub(crate) fn cost(&self, class: u32, span: u64) -> Cost {
        let d = SimDelta::from_nanos(span);
        match self.reps[class as usize] {
            Cost::Compute(_) => Cost::Compute(d),
            Cost::Idle(_) => Cost::Idle(d),
            Cost::OSend(_) => Cost::OSend(d),
            Cost::ORecv(_) => Cost::ORecv(d),
            nic_or_zero => nic_or_zero,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_am::Knobs;

    #[test]
    fn baseline_reprice_is_identity() {
        let base = NetConfig::berkeley_now();
        let m = SimDelta::from_nanos(1_800);
        assert_eq!(Cost::OSend(m).price(&base, &base), m);
        assert_eq!(Cost::ORecv(m).price(&base, &base), m);
    }

    #[test]
    fn overhead_reprice_adds_the_delta() {
        let base = NetConfig::berkeley_now();
        let mut theta = base;
        theta.knobs = Knobs::with_overhead(SimDelta::from_micros(10.0));
        let m = base.machine.o_send;
        assert_eq!(
            Cost::OSend(m).price(&theta, &base),
            m + SimDelta::from_micros(10.0)
        );
    }
}
