//! The one cost vocabulary: every class of simulated time a report can
//! name, under one label each.
//!
//! Three reports split time into LogGP parts, each over its own scope: a
//! message's end-to-end time ([`MESSAGE`], this crate's
//! `TraceSummary::totals`), a processor's elapsed time ([`PROCESSOR`],
//! `nowlab-metrics`) and the critical path of a run ([`CRITICAL_PATH`],
//! `nowlab-predict`). A [`View`] is the classes one report partitions its
//! scope into, in column order; a [`Projection`] groups a view's columns
//! into coarser named classes. Where two views report one class, they mean
//! the same thing by it (DESIGN.md §9 tabulates every label, its views and
//! how their numbers relate).

/// A class of simulated time: what a span of it was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Application compute (`Ctx::compute` spans).
    Compute,
    /// Send overhead the source host paid, Δo included.
    OSend,
    /// Receive overhead the destination host paid, Δo included.
    ORecv,
    /// The machine's baseline part of a send overhead.
    OSendBase,
    /// The machine's baseline part of a receive overhead.
    ORecvBase,
    /// Overhead beyond the baseline, send and receive together: the Δo
    /// busy loop of the overhead knob (paper §3), or a straggler's excess.
    DeltaO,
    /// Waiting for the source NIC's transmit context (`g` serialization).
    TxWait,
    /// DMA occupancy of a bulk fragment train (`G`).
    Dma,
    /// Wire transit (`L`, plus fault jitter).
    Wire,
    /// Receive-NIC serialization before visibility (`g` at the sink).
    RxHold,
    /// Waiting in the receive queue for the destination's poll.
    RxQueue,
    /// A processor stalled for a send-window credit (flow control).
    CreditWait,
    /// A processor polling for an awaited message or deadline.
    RxStall,
    /// A deadline-bounded wait (disk model, back-off): not communication.
    Idle,
    /// None of the above (local bookkeeping between spans).
    Other,
}

/// Number of [`CostClass`] variants.
const CLASSES: usize = 15;

/// A column table's entry for a class the view does not report.
const ABSENT: u8 = u8::MAX;

impl CostClass {
    /// The class's one name, in every report that shows it.
    pub const fn label(self) -> &'static str {
        match self {
            CostClass::Compute => "compute",
            CostClass::OSend => "o_send",
            CostClass::ORecv => "o_recv",
            CostClass::OSendBase => "o_send_base",
            CostClass::ORecvBase => "o_recv_base",
            CostClass::DeltaO => "delta_o",
            CostClass::TxWait => "tx_wait",
            CostClass::Dma => "dma",
            CostClass::Wire => "wire",
            CostClass::RxHold => "rx_hold",
            CostClass::RxQueue => "rx_queue",
            CostClass::CreditWait => "credit_wait",
            CostClass::RxStall => "rx_stall",
            CostClass::Idle => "idle",
            CostClass::Other => "other",
        }
    }
}

/// The classes one report partitions its time into, in column order, with
/// the column of every class as a `const` table.
#[derive(Debug)]
pub struct View<const N: usize> {
    classes: [CostClass; N],
    column: [u8; CLASSES],
}

impl<const N: usize> View<N> {
    const fn new(classes: [CostClass; N]) -> Self {
        let mut column = [ABSENT; CLASSES];
        let mut i = 0;
        while i < N {
            assert!(column[classes[i] as usize] == ABSENT, "a class repeats");
            column[classes[i] as usize] = i as u8;
            i += 1;
        }
        View { classes, column }
    }

    /// The classes, in column order.
    pub const fn classes(&self) -> &[CostClass; N] {
        &self.classes
    }

    /// The column of `class`. Panics when the view does not report it —
    /// at compile time where the column is taken in a `const`.
    pub const fn column(&self, class: CostClass) -> usize {
        let at = self.column[class as usize];
        assert!(at != ABSENT, "the view does not report this class");
        at as usize
    }

    /// The labels, in column order.
    pub fn labels(&self) -> [&'static str; N] {
        self.classes.map(CostClass::label)
    }
}

/// Per message: the seven spans of a lifecycle in lifecycle order
/// (`MsgRecord::spans`), which telescope to its end-to-end time.
pub const MESSAGE: View<7> = View::new([
    CostClass::OSend,
    CostClass::TxWait,
    CostClass::Dma,
    CostClass::Wire,
    CostClass::RxHold,
    CostClass::RxQueue,
    CostClass::ORecv,
]);

/// Per processor-nanosecond (`nowlab-metrics`' totals, timelines and
/// `states` array): every window of every processor, exactly once.
pub const PROCESSOR: View<7> = View::new([
    CostClass::Compute,
    CostClass::OSendBase,
    CostClass::ORecvBase,
    CostClass::DeltaO,
    CostClass::CreditWait,
    CostClass::RxStall,
    CostClass::Other,
]);

/// Along the critical path (`nowlab-predict`'s breakdown buckets), which
/// the classes telescope to.
pub const CRITICAL_PATH: View<8> = View::new([
    CostClass::OSend,
    CostClass::ORecv,
    CostClass::Compute,
    CostClass::Idle,
    CostClass::TxWait,
    CostClass::Dma,
    CostClass::Wire,
    CostClass::RxHold,
]);

/// A view's `N` columns grouped into `M` named coarser classes: each
/// column lands in exactly one group, so a projection conserves time as
/// exactly as the view it projects.
#[derive(Debug)]
pub struct Projection<const N: usize, const M: usize> {
    /// The groups' names, in group order.
    pub names: [&'static str; M],
    /// The group of each column of the view.
    group: [usize; N],
}

impl<const N: usize, const M: usize> Projection<N, M> {
    /// Nanoseconds per column of the view, summed per group.
    pub fn fold(&self, ns: &[u64; N]) -> [u64; M] {
        let mut out = [0; M];
        for (&g, &v) in self.group.iter().zip(ns) {
            out[g] += v;
        }
        out
    }

    /// Each group's share of `whole` nanoseconds (all zero when `whole`
    /// is zero).
    pub fn shares(&self, ns: &[u64; N], whole: u64) -> [f64; M] {
        self.fold(ns).map(|part| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        })
    }
}

/// The [`PROCESSOR`] view in four (the `time_breakdown` exhibit):
/// `compute`; `o_send_base`, `o_recv_base`, `delta_o`; `credit_wait`,
/// `rx_stall`; `other`.
pub const COARSE: Projection<7, 4> = Projection {
    names: ["compute", "overhead", "net wait", "other"],
    group: [0, 1, 1, 1, 2, 2, 3],
};

/// The [`MESSAGE`] view in four (the share columns of a
/// `--trace-summary` sweep): `o_send`, `o_recv`; `tx_wait`, `dma`,
/// `rx_hold`; `wire`; `rx_queue`. On a fault-free run whose messages all
/// completed, its `overhead` is [`COARSE`]'s to the nanosecond: both are
/// every overhead paid.
pub const SHARES: Projection<7, 4> = Projection {
    names: ["overhead", "nic", "wire", "rx_queue"],
    group: [0, 1, 1, 2, 1, 3, 0],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_view_maps_each_class_to_its_column_and_back() {
        fn check<const N: usize>(view: &View<N>) {
            for (i, &class) in view.classes().iter().enumerate() {
                assert_eq!(view.column(class), i);
            }
        }
        check(&MESSAGE);
        check(&PROCESSOR);
        check(&CRITICAL_PATH);
        assert_eq!(
            PROCESSOR.labels(),
            [
                "compute",
                "o_send_base",
                "o_recv_base",
                "delta_o",
                "credit_wait",
                "rx_stall",
                "other"
            ]
        );
        assert_eq!(
            CRITICAL_PATH.labels(),
            ["o_send", "o_recv", "compute", "idle", "tx_wait", "dma", "wire", "rx_hold"]
        );
    }

    #[test]
    #[should_panic(expected = "does not report")]
    fn a_class_outside_the_view_has_no_column() {
        MESSAGE.column(CostClass::Compute);
    }

    #[test]
    fn a_projection_partitions_its_view() {
        let ns = [1, 2, 4, 8, 16, 32, 64];
        assert_eq!(COARSE.fold(&ns), [1, 2 + 4 + 8, 16 + 32, 64]);
        assert_eq!(SHARES.fold(&ns), [1 + 64, 2 + 4 + 16, 8, 32]);
        let shares = SHARES.shares(&ns, 127);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(COARSE.shares(&ns, 0), [0.0; 4]);
    }
}
