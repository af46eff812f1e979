//! LogGP machine parameters and the experiment "knobs".
//!
//! The LogGP model (Culler et al. PPoPP'93; Alexandrov et al. SPAA'95)
//! characterizes a distributed-memory machine by
//!
//! * `L` — network latency for a small message,
//! * `o` — processor overhead per message send / receive,
//! * `g` — minimum gap between consecutive injections at one NIC,
//! * `G` — time per byte of a bulk transfer (1 / bulk bandwidth),
//! * `P` — processor count.
//!
//! [`LoggpParams`] holds a machine's *baseline* values (Table 1 of the
//! paper); [`Knobs`] holds the *added* deltas the apparatus dials in
//! (Figure 2); [`NetConfig`] combines both with the Active-Message-layer
//! flow-control window; the fragment and wire sizes are constants.

use nowlab_sim::SimDelta;
use std::fmt;

use crate::fault::{FaultPlan, NodeFaultPlan, MAX_ATTEMPTS, RTO, RTO_MAX};

/// Baseline LogGP parameters of a machine (all per Table 1 of the paper).
///
/// The overhead is split into its send and receive components as measured by
/// the LogP signature microbenchmark (Figure 3 shows `o_send = 1.8 µs`,
/// `o_recv = 4 µs` for the Berkeley NOW); the paper reports their average as
/// "o".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LoggpParams {
    /// Send overhead: processor time to write a message into the NIC.
    pub o_send: SimDelta,
    /// Receive overhead: processor time to read a message from the NIC.
    pub o_recv: SimDelta,
    /// Gap: minimum interval between consecutive NIC injections.
    pub gap: SimDelta,
    /// Latency: NIC-to-NIC transit time for a short message.
    pub latency: SimDelta,
    /// Bulk Gap `G`: time per byte of bulk transfer (DMA-rate bound).
    pub gap_per_byte: SimDelta,
}

impl LoggpParams {
    /// Berkeley NOW baseline: `o = 2.9 µs` (avg of 1.8 send / 4.0 receive),
    /// `g = 5.8 µs`, `L = 5.0 µs`, `1/G = 38 MB/s`.
    pub fn berkeley_now() -> Self {
        LoggpParams {
            o_send: SimDelta::from_micros(1.8),
            o_recv: SimDelta::from_micros(4.0),
            gap: SimDelta::from_micros(5.8),
            latency: SimDelta::from_micros(5.0),
            gap_per_byte: per_byte_from_mb_per_s(38.0),
        }
    }

    /// Intel Paragon (Table 1): `o = 1.8`, `g = 7.6`, `L = 6.5`, 141 MB/s.
    pub fn intel_paragon() -> Self {
        LoggpParams {
            o_send: SimDelta::from_micros(1.8),
            o_recv: SimDelta::from_micros(1.8),
            gap: SimDelta::from_micros(7.6),
            latency: SimDelta::from_micros(6.5),
            gap_per_byte: per_byte_from_mb_per_s(141.0),
        }
    }

    /// Meiko CS-2 (Table 1): `o = 1.7`, `g = 13.6`, `L = 7.5`, 47 MB/s.
    pub fn meiko_cs2() -> Self {
        LoggpParams {
            o_send: SimDelta::from_micros(1.7),
            o_recv: SimDelta::from_micros(1.7),
            gap: SimDelta::from_micros(13.6),
            latency: SimDelta::from_micros(7.5),
            gap_per_byte: per_byte_from_mb_per_s(47.0),
        }
    }

    /// A conventional mid-90s switched-LAN TCP/IP stack (paper §5.1: ~100 µs
    /// of overhead with NOW-like latency and gap).
    pub fn lan_tcp() -> Self {
        let now = Self::berkeley_now();
        LoggpParams {
            o_send: now.o_send + SimDelta::from_micros(100.0),
            o_recv: now.o_recv + SimDelta::from_micros(100.0),
            ..now
        }
    }

    /// The reported `o`: average of send and receive overhead.
    pub fn o_mean(&self) -> SimDelta {
        (self.o_send + self.o_recv) / 2
    }

    /// Bulk bandwidth `1/G` in MB/s.
    pub fn bulk_mb_per_s(&self) -> f64 {
        mb_per_s_from_per_byte(self.gap_per_byte)
    }
}

impl Default for LoggpParams {
    /// Defaults to the Berkeley NOW baseline.
    fn default() -> Self {
        Self::berkeley_now()
    }
}

impl fmt::Display for LoggpParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "o={} (s={},r={}) g={} L={} 1/G={:.1}MB/s",
            self.o_mean(),
            self.o_send,
            self.o_recv,
            self.gap,
            self.latency,
            self.bulk_mb_per_s()
        )
    }
}

/// Converts a bulk bandwidth in MB/s to a per-byte [`SimDelta`].
///
/// # Panics
///
/// Panics if `mb_per_s` is not strictly positive and finite.
pub(crate) fn per_byte_from_mb_per_s(mb_per_s: f64) -> SimDelta {
    assert!(
        mb_per_s.is_finite() && mb_per_s > 0.0,
        "bandwidth must be positive, got {mb_per_s}"
    );
    // 1 MB/s = 1e6 B/s -> ns per byte = 1e9 / (mb * 1e6) = 1000 / mb.
    SimDelta::from_nanos((1_000.0 / mb_per_s).round() as u64)
}

/// Converts a per-byte gap back to MB/s (0 means "infinite bandwidth").
pub(crate) fn mb_per_s_from_per_byte(per_byte: SimDelta) -> f64 {
    if per_byte.is_zero() {
        f64::INFINITY
    } else {
        1_000.0 / per_byte.as_nanos() as f64
    }
}

/// The *added* deltas dialled into the apparatus (paper Figure 2).
///
/// * `d_o` — delay loop added on the host's send path **and** its
///   pre-receive path (so reported steady-state gap rises by `2·d_o`).
/// * `d_g` — stall added in the NIC transmit loop *after* injection.
/// * `d_lat` — extra arrival delay applied through the receive-side delay
///   queue (latency rises; `o` and `g` untouched).
/// * `d_gap_per_byte` — extra per-byte stall after each bulk fragment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Knobs {
    /// Added per-message overhead (applied to send and receive paths).
    pub d_o: SimDelta,
    /// Added per-message gap (NIC injection stall).
    pub d_g: SimDelta,
    /// Added latency (receive-side delay queue).
    pub d_lat: SimDelta,
    /// Added per-byte bulk gap.
    pub d_gap_per_byte: SimDelta,
}

impl Knobs {
    /// No added delays: the baseline machine.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Knobs with only added overhead.
    pub fn with_overhead(d_o: SimDelta) -> Self {
        Knobs {
            d_o,
            ..Self::default()
        }
    }

    /// Knobs with only added gap.
    pub fn with_gap(d_g: SimDelta) -> Self {
        Knobs {
            d_g,
            ..Self::default()
        }
    }

    /// Knobs with only added latency.
    pub fn with_latency(d_lat: SimDelta) -> Self {
        Knobs {
            d_lat,
            ..Self::default()
        }
    }

    /// Knobs with only added bulk gap, expressed as a *target* bulk bandwidth
    /// in MB/s given the machine baseline `G`.
    ///
    /// Returns `None` if the target exceeds the baseline bandwidth (the
    /// apparatus can only slow the machine down).
    pub fn with_bulk_bandwidth(base: &LoggpParams, target_mb_per_s: f64) -> Option<Self> {
        let target = per_byte_from_mb_per_s(target_mb_per_s);
        if target < base.gap_per_byte {
            return None;
        }
        Some(Knobs {
            d_gap_per_byte: target - base.gap_per_byte,
            ..Self::default()
        })
    }
}

impl fmt::Display for Knobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "+o={} +g={} +L={} +G={}ns/B",
            self.d_o,
            self.d_g,
            self.d_lat,
            self.d_gap_per_byte.as_nanos()
        )
    }
}

/// How the added-latency knob is realized (paper §3.2).
///
/// The paper is careful to add latency through a **receive-side delay
/// queue**: the NIC deposits the message normally but defers setting its
/// presence bit, so `o` and `g` are untouched. The naive alternative —
/// slowing the receive path itself — has "the side effect of increasing
/// g". Both mechanisms are implemented so the `ablation_latency_mechanism`
/// bench can demonstrate the artifact the paper avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LatencyMode {
    /// The paper's mechanism: presence-bit deferral; `g` unaffected.
    #[default]
    DelayQueue,
    /// The naive mechanism: the receive context spends `ΔL` per message,
    /// so the effective gap grows by `ΔL`.
    SlowRxPath,
}

/// GAM flow-control window: maximum outstanding requests per processor
/// (paper §3.3). The single authoritative definition — a test over the
/// AM layer's sources (`tests/source_rules.rs`) rejects re-hardcoded
/// copies of this depth.
pub(crate) const GAM_WINDOW: u32 = 8;

/// GAM bulk-transfer fragment size in bytes (paper: "up to 4KB"). The
/// single authoritative definition, mirroring `GAM_WINDOW`.
pub const GAM_FRAG_BYTES: u32 = 4096;

/// Wire footprint in bytes of a short message (header + 4-word payload),
/// derived from Table 4: small-message KB/s ÷ msg rate = 28 B for
/// Radix/EM3D.
pub(crate) const GAM_SHORT_WIRE_BYTES: u32 = 28;

/// Full network configuration: machine baseline, knobs, the AM-layer
/// window, and the fault plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NetConfig {
    /// Baseline machine parameters.
    pub machine: LoggpParams,
    /// Added deltas.
    pub knobs: Knobs,
    /// Maximum outstanding *requests* per processor (GAM flow-control
    /// window). Constant and independent of `L` — this reproduces the
    /// paper's observation (§3.3) that effective `g` rises for very large
    /// `L` because "the implementation has a fixed number of outstanding
    /// messages independent of L".
    pub window: u32,
    /// Mechanism implementing the added-latency knob.
    pub latency_mode: LatencyMode,
    /// Deterministic fault model applied at the wire. The default
    /// [`FaultPlan::none`] is inert and leaves every run bit-identical to
    /// the lossless transport.
    pub faults: FaultPlan,
    /// Deterministic node-level fault model (crash/recovery/straggler)
    /// plus failure-detector timing. The default
    /// [`NodeFaultPlan::none`] is inert: no heartbeats, no detector
    /// events, runs bit-identical to the healthy cluster.
    pub node_faults: NodeFaultPlan,
}

impl NetConfig {
    /// Berkeley NOW baseline configuration with no added delays.
    pub fn berkeley_now() -> Self {
        NetConfig {
            machine: LoggpParams::berkeley_now(),
            knobs: Knobs::baseline(),
            window: GAM_WINDOW,
            latency_mode: LatencyMode::DelayQueue,
            faults: FaultPlan::none(),
            node_faults: NodeFaultPlan::none(),
        }
    }

    /// Replaces the knobs, keeping everything else.
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Replaces the machine baseline, keeping everything else.
    pub fn with_machine(mut self, machine: LoggpParams) -> Self {
        self.machine = machine;
        self
    }

    /// Replaces the latency mechanism, keeping everything else.
    pub fn with_latency_mode(mut self, mode: LatencyMode) -> Self {
        self.latency_mode = mode;
        self
    }

    /// Replaces the flow-control window, keeping everything else.
    pub fn with_window(mut self, window: u32) -> Self {
        assert!(window > 0, "window must be at least 1");
        self.window = window;
        self
    }

    /// Replaces the fault plan, keeping everything else. An active plan
    /// engages the reliable-delivery protocol.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the node-fault plan, keeping everything else. An active
    /// plan engages the heartbeat/failure-detector control plane *and*
    /// the reliable-delivery protocol (senders must be able to stop
    /// retransmitting into a dead peer).
    pub fn with_node_faults(mut self, node_faults: NodeFaultPlan) -> Self {
        self.node_faults = node_faults;
        self
    }

    /// True if the reliable-delivery protocol is engaged: sequence-number
    /// tracking, duplicate suppression, and retransmission timers. False by
    /// default, in which case the transport takes the exact lossless code
    /// path (no timers, no extra state).
    pub fn reliability_active(&self) -> bool {
        self.faults.is_active() || self.node_faults.is_active()
    }

    /// Effective send overhead (`o_send + Δo`).
    pub fn eff_o_send(&self) -> SimDelta {
        self.machine.o_send + self.knobs.d_o
    }

    /// Effective receive overhead (`o_recv + Δo`).
    pub fn eff_o_recv(&self) -> SimDelta {
        self.machine.o_recv + self.knobs.d_o
    }

    /// Effective injection gap (`g + Δg`).
    pub fn eff_gap(&self) -> SimDelta {
        self.machine.gap + self.knobs.d_g
    }

    /// Effective latency (`L + ΔL`).
    pub fn eff_latency(&self) -> SimDelta {
        self.machine.latency + self.knobs.d_lat
    }

    /// Effective per-byte bulk gap (`G + ΔG`).
    pub fn eff_gap_per_byte(&self) -> SimDelta {
        self.machine.gap_per_byte + self.knobs.d_gap_per_byte
    }

    /// Transmit-context spans for a message of `bytes` payload bytes:
    /// `(wire_done − tx_start, tx_free − tx_start)`.
    ///
    /// A short message leaves instantly and stalls the transmit loop for
    /// the effective gap. A bulk message is cut into fragments of up to
    /// [`GAM_FRAG_BYTES`]; each occupies the DMA engine for `(G+ΔG)·size` (at
    /// least the base per-message gap), then the added-gap knob stalls the
    /// loop. The transport's injection and the predictor's re-pricing both
    /// call this, so they cannot drift apart.
    pub fn tx_spans(&self, bytes: u32) -> (SimDelta, SimDelta) {
        if bytes == 0 {
            return (SimDelta::ZERO, self.eff_gap());
        }
        let mut t = SimDelta::ZERO;
        let mut remaining = bytes;
        let mut last_done = SimDelta::ZERO;
        while remaining > 0 {
            let frag = remaining.min(GAM_FRAG_BYTES);
            remaining -= frag;
            let dma = self.eff_gap_per_byte() * u64::from(frag);
            last_done = t + dma.max(self.machine.gap);
            t = last_done + self.knobs.d_g;
        }
        (last_done, t)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::berkeley_now()
    }
}

impl fmt::Display for NetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} | {} | W={} frag={}B",
            self.machine, self.knobs, self.window, GAM_FRAG_BYTES
        )?;
        if self.reliability_active() {
            write!(
                f,
                " | {} rto={}..{} tries<={}",
                self.faults, RTO, RTO_MAX, MAX_ATTEMPTS
            )?;
            if self.node_faults.is_active() {
                write!(f, " {}", self.node_faults)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_baseline_matches_table1() {
        let p = LoggpParams::berkeley_now();
        assert!((p.o_mean().as_micros_f64() - 2.9).abs() < 1e-9);
        assert!((p.gap.as_micros_f64() - 5.8).abs() < 1e-9);
        assert!((p.latency.as_micros_f64() - 5.0).abs() < 1e-9);
        assert!((p.bulk_mb_per_s() - 38.0).abs() < 0.5);
    }

    #[test]
    fn paragon_and_meiko_match_table1() {
        let p = LoggpParams::intel_paragon();
        assert!((p.o_mean().as_micros_f64() - 1.8).abs() < 1e-9);
        assert!((p.bulk_mb_per_s() - 141.0).abs() < 3.0);
        let m = LoggpParams::meiko_cs2();
        assert!((m.gap.as_micros_f64() - 13.6).abs() < 1e-9);
        assert!((m.bulk_mb_per_s() - 47.0).abs() < 1.0);
    }

    #[test]
    fn bandwidth_round_trip() {
        for mb in [1.0, 5.5, 15.0, 38.0, 141.0] {
            let g = per_byte_from_mb_per_s(mb);
            let back = mb_per_s_from_per_byte(g);
            assert!(
                (back - mb).abs() / mb < 0.03,
                "round trip {mb} -> {back} off by >3%"
            );
        }
    }

    #[test]
    fn knob_bandwidth_target_is_slowdown_only() {
        let base = LoggpParams::berkeley_now();
        assert!(Knobs::with_bulk_bandwidth(&base, 100.0).is_none());
        let k = Knobs::with_bulk_bandwidth(&base, 10.0).unwrap();
        let cfg = NetConfig::berkeley_now().with_knobs(k);
        assert!((mb_per_s_from_per_byte(cfg.eff_gap_per_byte()) - 10.0).abs() < 0.2);
    }

    #[test]
    fn effective_params_add_deltas() {
        let cfg = NetConfig::berkeley_now().with_knobs(Knobs {
            d_o: SimDelta::from_micros(50.0),
            d_g: SimDelta::from_micros(10.0),
            d_lat: SimDelta::from_micros(25.0),
            d_gap_per_byte: SimDelta::from_nanos(100),
        });
        assert!((cfg.eff_o_send().as_micros_f64() - 51.8).abs() < 1e-9);
        assert!((cfg.eff_o_recv().as_micros_f64() - 54.0).abs() < 1e-9);
        assert!((cfg.eff_gap().as_micros_f64() - 15.8).abs() < 1e-9);
        assert!((cfg.eff_latency().as_micros_f64() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn short_message_leaves_at_once_and_holds_the_gap() {
        let cfg = NetConfig::berkeley_now();
        assert_eq!(cfg.tx_spans(0), (SimDelta::ZERO, cfg.machine.gap));
    }

    #[test]
    fn bulk_fragment_train_matches_a_replay_by_hand() {
        let cfg = NetConfig::berkeley_now().with_knobs(Knobs::with_gap(SimDelta::from_nanos(100)));
        let (done, free) = cfg.tx_spans(GAM_FRAG_BYTES * 2 + 100);
        let full = (cfg.eff_gap_per_byte() * u64::from(GAM_FRAG_BYTES)).max(cfg.machine.gap);
        let tail = (cfg.eff_gap_per_byte() * 100).max(cfg.machine.gap);
        let expect_done = full + cfg.knobs.d_g + full + cfg.knobs.d_g + tail;
        assert_eq!(done, expect_done);
        assert_eq!(free, expect_done + cfg.knobs.d_g);
    }

    #[test]
    fn lan_preset_adds_100us_overhead() {
        let lan = LoggpParams::lan_tcp();
        assert!((lan.o_mean().as_micros_f64() - 102.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let _ = NetConfig::berkeley_now().with_window(0);
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", NetConfig::berkeley_now());
        assert!(s.contains("W=8"));
        assert!(s.contains("frag=4096B"));
        assert!(!s.contains("faults"), "inert plan must not clutter: {s}");
        let s = format!(
            "{}",
            NetConfig::berkeley_now().with_faults(FaultPlan::with_drop_rate(0.01, 1))
        );
        assert!(s.contains("drop=1.00%"), "{s}");
        assert!(s.contains("rto=250.000us..16000.000us tries<=16"), "{s}");
    }

    #[test]
    fn reliability_engages_on_faults() {
        let base = NetConfig::berkeley_now();
        assert!(!base.reliability_active());
        assert!(base
            .with_faults(FaultPlan::with_drop_rate(0.01, 1))
            .reliability_active());
        // A seeded-but-inert plan does not engage the protocol.
        assert!(!base
            .with_faults(FaultPlan::none().with_seed(9))
            .reliability_active());
    }

    #[test]
    fn node_faults_engage_reliability() {
        use crate::fault::NodeFault;
        use nowlab_sim::SimTime;
        let base = NetConfig::berkeley_now();
        let crashy = NodeFaultPlan::none().with_fault(NodeFault::crash(0, SimTime::ZERO));
        assert!(base.with_node_faults(crashy).reliability_active());
        // The empty node plan stays fully inert.
        let empty = base.with_node_faults(NodeFaultPlan::none());
        assert!(!empty.reliability_active());
        assert_eq!(empty, base);
        let s = format!("{empty}");
        assert!(
            !s.contains("nodes"),
            "inert node plan must not clutter: {s}"
        );
        let s = format!("{}", base.with_node_faults(crashy));
        assert!(s.contains("nodes[hb="), "{s}");
    }
}
