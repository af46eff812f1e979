//! Communication instrumentation.
//!
//! The paper instruments its communication layer to record, per processor,
//! message counts, the sender→receiver traffic matrix (Figure 4), bulk and
//! read percentages, and bandwidths (Table 4). This module is the equivalent
//! hook: every injected message updates a [`ProcCounters`]; a
//! [`CommStats`] snapshot aggregates them into the paper's summary columns.

use nowlab_sim::SimDelta;

/// The collective-operation families the upper layers count through
/// [`crate::AmPort::note_coll`] (mirroring the `barriers` counter): one
/// tick per completed collective call per participating processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollKind {
    /// One-to-all data distribution.
    Broadcast,
    /// All-to-one (or all-to-all) combining of one value per processor.
    Reduce,
    /// All-to-all concatenation of per-processor blocks.
    Allgather,
    /// Personalized all-to-all exchange.
    AllToAll,
}

/// Per-processor communication counters, updated by the transport.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Messages sent (requests *and* replies, as in the paper's `m`).
    pub sends: u64,
    /// Messages received and drained.
    pub recvs: u64,
    /// Sent messages that used the bulk-transfer mechanism.
    pub sends_bulk: u64,
    /// Sent messages that are read requests or read replies.
    pub sends_read: u64,
    /// Sent messages that are replies (subset of `sends`).
    pub replies_sent: u64,
    /// Wire bytes of short messages sent.
    pub bytes_short: u64,
    /// Payload bytes of bulk messages sent.
    pub bytes_bulk: u64,
    /// Messages sent to each destination (the Figure 4 matrix row).
    pub per_dst: Vec<u64>,
    /// Barriers this processor completed.
    pub barriers: u64,
    /// Collective broadcasts this processor participated in.
    pub coll_bcasts: u64,
    /// Collective reductions this processor participated in.
    pub coll_reduces: u64,
    /// Collective allgathers this processor participated in.
    pub coll_allgathers: u64,
    /// Collective all-to-all exchanges this processor participated in.
    pub coll_alltoalls: u64,
    /// Messages this processor sent that the faulty wire dropped
    /// (including outage losses; bulk messages count once however many
    /// fragments were lost).
    pub drops: u64,
    /// Duplicate deliveries the faulty wire created for this processor's
    /// sends.
    pub dups: u64,
    /// Duplicate messages this processor received and suppressed (the
    /// reliability protocol's exactly-once filter).
    pub dup_suppressed: u64,
    /// Messages this processor re-sent: timed-out requests plus cached
    /// replies re-sent in answer to duplicate requests.
    pub retransmits: u64,
    /// Retransmission timeouts that fired while their request was still
    /// unacknowledged.
    pub timeouts: u64,
    /// Largest retransmission backoff armed by this processor (diagnoses
    /// how deep the exponential backoff went).
    pub max_retry_backoff: SimDelta,
    /// Heartbeat rounds this processor emitted (one per control-plane
    /// tick it was alive for; zero when the node-fault plan is inert).
    pub heartbeats: u64,
    /// Peers this processor's failure detector moved to *suspect*.
    pub suspicions: u64,
    /// Suspicions later retracted because the peer's heartbeat resumed
    /// (crash-recovery faults and detector over-eagerness both land
    /// here).
    pub false_suspicions: u64,
    /// Peers this processor's failure detector confirmed dead (silence
    /// beyond the confirm threshold, or retransmit-attempt exhaustion).
    pub peer_deaths: u64,
    /// Largest detection latency: confirmation instant minus the peer's
    /// actual crash instant (zero if no death was confirmed).
    pub max_detect_latency: SimDelta,
}

impl ProcCounters {
    /// Creates counters for a cluster of `p` processors.
    pub fn new(p: usize) -> Self {
        ProcCounters {
            per_dst: vec![0; p],
            ..Self::default()
        }
    }
}

/// Immutable snapshot of a finished run's communication behavior.
///
/// `PartialEq`/`Eq` compare every counter exactly — this is what the CLI's
/// `--verify-determinism` double-run mode diffs, so any nondeterminism in
/// the communication schedule shows up as an inequality here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Per-processor counters (index = processor id).
    pub per_proc: Vec<ProcCounters>,
    /// Virtual run time the counters cover.
    pub elapsed: SimDelta,
}

impl CommStats {
    /// Number of processors covered.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Average messages sent per processor.
    pub fn avg_msgs_per_proc(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.total_sends() as f64 / self.per_proc.len() as f64
    }

    /// Maximum messages sent by any processor (the paper's imbalance
    /// indicator and the `m` of its analytic models).
    pub fn max_msgs_per_proc(&self) -> u64 {
        self.per_proc.iter().map(|c| c.sends).max().unwrap_or(0)
    }

    /// Total messages sent by all processors.
    pub fn total_sends(&self) -> u64 {
        self.per_proc.iter().map(|c| c.sends).sum()
    }

    /// Communication balance: max messages per processor ÷ average (1.0 is
    /// perfectly balanced).
    pub fn balance(&self) -> f64 {
        let avg = self.avg_msgs_per_proc();
        if avg == 0.0 {
            1.0
        } else {
            self.max_msgs_per_proc() as f64 / avg
        }
    }

    /// Message frequency: average messages per processor per millisecond.
    pub fn msgs_per_proc_per_ms(&self) -> f64 {
        let ms = self.elapsed.as_millis_f64();
        if ms == 0.0 {
            0.0
        } else {
            self.avg_msgs_per_proc() / ms
        }
    }

    /// Average interval between message sends, in microseconds.
    pub fn msg_interval_us(&self) -> f64 {
        let avg = self.avg_msgs_per_proc();
        if avg == 0.0 {
            f64::INFINITY
        } else {
            self.elapsed.as_micros_f64() / avg
        }
    }

    /// Average interval between barriers, in milliseconds (∞ if no
    /// barriers).
    pub fn barrier_interval_ms(&self) -> f64 {
        let barriers = self.per_proc.iter().map(|c| c.barriers).max().unwrap_or(0);
        if barriers == 0 {
            f64::INFINITY
        } else {
            self.elapsed.as_millis_f64() / barriers as f64
        }
    }

    /// Percentage of sent messages using the bulk mechanism.
    pub fn pct_bulk(&self) -> f64 {
        let total = self.total_sends();
        if total == 0 {
            return 0.0;
        }
        let bulk: u64 = self.per_proc.iter().map(|c| c.sends_bulk).sum();
        100.0 * bulk as f64 / total as f64
    }

    /// Percentage of sent messages that are read requests or replies.
    pub fn pct_reads(&self) -> f64 {
        let total = self.total_sends();
        if total == 0 {
            return 0.0;
        }
        let reads: u64 = self.per_proc.iter().map(|c| c.sends_read).sum();
        100.0 * reads as f64 / total as f64
    }

    /// Average per-processor bulk bandwidth in KB/s (bytes through the
    /// communication layer, as in Table 4).
    pub fn bulk_kb_per_s(&self) -> f64 {
        self.kb_per_s(self.per_proc.iter().map(|c| c.bytes_bulk).sum())
    }

    /// Average per-processor short-message bandwidth in KB/s.
    pub fn small_kb_per_s(&self) -> f64 {
        self.kb_per_s(self.per_proc.iter().map(|c| c.bytes_short).sum())
    }

    fn kb_per_s(&self, total_bytes: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 || self.per_proc.is_empty() {
            return 0.0;
        }
        total_bytes as f64 / 1_000.0 / secs / self.per_proc.len() as f64
    }

    /// Total messages the faulty wire dropped.
    pub fn total_drops(&self) -> u64 {
        self.per_proc.iter().map(|c| c.drops).sum()
    }

    /// Total duplicate deliveries the faulty wire created.
    pub fn total_dups(&self) -> u64 {
        self.per_proc.iter().map(|c| c.dups).sum()
    }

    /// Total duplicates suppressed by receivers (exactly-once filter).
    pub fn total_dup_suppressed(&self) -> u64 {
        self.per_proc.iter().map(|c| c.dup_suppressed).sum()
    }

    /// Total retransmissions (timed-out requests + replayed replies).
    pub fn total_retransmits(&self) -> u64 {
        self.per_proc.iter().map(|c| c.retransmits).sum()
    }

    /// Total retransmission timeouts that fired.
    pub fn total_timeouts(&self) -> u64 {
        self.per_proc.iter().map(|c| c.timeouts).sum()
    }

    /// Largest retransmission backoff armed anywhere in the cluster.
    pub fn max_retry_backoff(&self) -> SimDelta {
        self.per_proc
            .iter()
            .map(|c| c.max_retry_backoff)
            .max()
            .unwrap_or(SimDelta::ZERO)
    }

    /// Total heartbeat rounds emitted by all processors.
    pub fn total_heartbeats(&self) -> u64 {
        self.per_proc.iter().map(|c| c.heartbeats).sum()
    }

    /// Total suspicions raised by all failure detectors.
    pub fn total_suspicions(&self) -> u64 {
        self.per_proc.iter().map(|c| c.suspicions).sum()
    }

    /// Total suspicions retracted after the peer's heartbeat resumed.
    pub fn total_false_suspicions(&self) -> u64 {
        self.per_proc.iter().map(|c| c.false_suspicions).sum()
    }

    /// Total peer-death confirmations across all failure detectors.
    pub fn total_peer_deaths(&self) -> u64 {
        self.per_proc.iter().map(|c| c.peer_deaths).sum()
    }

    /// Largest crash-to-confirmation latency observed anywhere.
    pub fn max_detect_latency(&self) -> SimDelta {
        self.per_proc
            .iter()
            .map(|c| c.max_detect_latency)
            .max()
            .unwrap_or(SimDelta::ZERO)
    }

    /// Total collective broadcasts (summed over participants).
    pub fn total_coll_bcasts(&self) -> u64 {
        self.per_proc.iter().map(|c| c.coll_bcasts).sum()
    }

    /// Total collective reductions (summed over participants).
    pub fn total_coll_reduces(&self) -> u64 {
        self.per_proc.iter().map(|c| c.coll_reduces).sum()
    }

    /// Total collective allgathers (summed over participants).
    pub fn total_coll_allgathers(&self) -> u64 {
        self.per_proc.iter().map(|c| c.coll_allgathers).sum()
    }

    /// Total collective all-to-all exchanges (summed over participants).
    pub fn total_coll_alltoalls(&self) -> u64 {
        self.per_proc.iter().map(|c| c.coll_alltoalls).sum()
    }

    /// The sender→receiver message-count matrix (Figure 4): entry `[i][j]`
    /// is the number of messages processor `i` sent to processor `j`.
    pub fn balance_matrix(&self) -> Vec<Vec<u64>> {
        self.per_proc.iter().map(|c| c.per_dst.clone()).collect()
    }

    /// Largest single source→destination message count (Figure 4's black
    /// level).
    pub fn matrix_max(&self) -> u64 {
        self.per_proc
            .iter()
            .flat_map(|c| c.per_dst.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Renders the Figure 4 communication-balance matrix as ASCII art, one
/// character per (sender, receiver) cell, scaled from `' '` (zero) to `'@'`
/// (the matrix maximum).
pub fn render_balance_matrix(stats: &CommStats) -> String {
    nowlab_trace::render_shade_matrix(&stats.balance_matrix())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommStats {
        let mut a = ProcCounters::new(2);
        a.sends = 100;
        a.sends_bulk = 25;
        a.sends_read = 50;
        a.bytes_short = 2_800;
        a.bytes_bulk = 10_000;
        a.per_dst = vec![0, 100];
        a.barriers = 4;
        let mut b = ProcCounters::new(2);
        b.sends = 300;
        b.per_dst = vec![300, 0];
        b.barriers = 4;
        CommStats {
            per_proc: vec![a, b],
            elapsed: SimDelta::from_millis(2.0),
        }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let s = sample();
        assert_eq!(s.total_sends(), 400);
        assert_eq!(s.avg_msgs_per_proc(), 200.0);
        assert_eq!(s.max_msgs_per_proc(), 300);
        assert!((s.balance() - 1.5).abs() < 1e-12);
        assert!((s.msgs_per_proc_per_ms() - 100.0).abs() < 1e-12);
        assert!((s.msg_interval_us() - 10.0).abs() < 1e-12);
        assert!((s.barrier_interval_ms() - 0.5).abs() < 1e-12);
        assert!((s.pct_bulk() - 6.25).abs() < 1e-12);
        assert!((s.pct_reads() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidths_are_per_processor_averages() {
        let s = sample();
        // 10_000 bulk bytes over 2ms across 2 procs = 2_500 KB/s.
        assert!((s.bulk_kb_per_s() - 2_500.0).abs() < 1e-9);
        assert!((s.small_kb_per_s() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = CommStats::default();
        assert_eq!(s.avg_msgs_per_proc(), 0.0);
        assert_eq!(s.balance(), 1.0);
        assert_eq!(s.pct_bulk(), 0.0);
        assert!(s.barrier_interval_ms().is_infinite());
        assert!(s.msg_interval_us().is_infinite());
        assert_eq!(s.matrix_max(), 0);
        assert_eq!(s.total_drops(), 0);
        assert_eq!(s.max_retry_backoff(), SimDelta::ZERO);
    }

    #[test]
    fn fault_aggregates_sum_across_procs() {
        let mut a = ProcCounters::new(2);
        a.drops = 3;
        a.dups = 1;
        a.retransmits = 4;
        a.timeouts = 4;
        a.max_retry_backoff = SimDelta::from_micros(100.0);
        let mut b = ProcCounters::new(2);
        b.drops = 2;
        b.dup_suppressed = 5;
        b.max_retry_backoff = SimDelta::from_micros(400.0);
        let s = CommStats {
            per_proc: vec![a, b],
            elapsed: SimDelta::from_millis(1.0),
        };
        assert_eq!(s.total_drops(), 5);
        assert_eq!(s.total_dups(), 1);
        assert_eq!(s.total_dup_suppressed(), 5);
        assert_eq!(s.total_retransmits(), 4);
        assert_eq!(s.total_timeouts(), 4);
        assert_eq!(s.max_retry_backoff(), SimDelta::from_micros(400.0));
    }

    #[test]
    fn coll_aggregates_sum_across_procs() {
        let mut a = ProcCounters::new(2);
        a.coll_bcasts = 3;
        a.coll_reduces = 2;
        let mut b = ProcCounters::new(2);
        b.coll_bcasts = 3;
        b.coll_allgathers = 1;
        b.coll_alltoalls = 4;
        let s = CommStats {
            per_proc: vec![a, b],
            elapsed: SimDelta::from_millis(1.0),
        };
        assert_eq!(s.total_coll_bcasts(), 6);
        assert_eq!(s.total_coll_reduces(), 2);
        assert_eq!(s.total_coll_allgathers(), 1);
        assert_eq!(s.total_coll_alltoalls(), 4);
    }

    #[test]
    fn matrix_render_shape() {
        let s = sample();
        let art = render_balance_matrix(&s);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        // Hottest cell renders as '@', zero as ' '.
        assert_eq!(&art[0..1], " ");
        assert!(lines[1].starts_with('@'));
    }
}
