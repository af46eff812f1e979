//! Assembly and evaluation of the happens-before message DAG.
//!
//! Nodes are *instants*: the start and end of every busy activity (send
//! overhead, receive overhead, compute segment), the transmit-context
//! pickup and receive-queue visibility of every message, and the exit of
//! every deadline-bounded idle wait. Edges are written down once, as the
//! symbolic costs of [`crate::cost`], and not stored: what kind of instant
//! a node is says which in-edges it has ([`Dag::in_edges`]), each a price
//! class and a measured span, so that a configuration `θ` is one small
//! table of per-class deltas. Evaluating the DAG under `θ` computes each
//! instant's predicted time as the longest weighted path from the virtual
//! source — exactly the discrete-event semantics, with the one deliberate
//! approximation that NIC serialization *order* is frozen at the baseline
//! order (see DESIGN.md §13). One sweep of the topological order
//! ([`Dag::sweep`]) evaluates up to [`LANES`] configurations at once over
//! a register file of the few node times that are live at any point.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use nowlab_am::NetConfig;
use nowlab_sim::SimDelta;
use nowlab_trace::{TraceReport, CRITICAL_PATH};

use crate::cost::{Classes, Cost};
use crate::PredictError;

const NO_PROC: u16 = u16::MAX;
const NO_MSG: u32 = u32::MAX;
const NO_NODE: u32 = u32::MAX;

/// The most configurations one sweep evaluates.
pub(crate) const LANES: usize = 16;

/// What instant a node stands for, which fixes the in-edges it has (see
/// [`Dag::in_edges`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Virtual time-zero root.
    Source,
    /// Virtual end-of-run join.
    Sink,
    /// A send overhead, receive overhead or compute segment began.
    SendStart,
    RecvStart,
    ComputeStart,
    /// The activity begun at the node before this one ended.
    SendEnd,
    RecvEnd,
    ComputeEnd,
    /// A deadline-bounded idle wait exited.
    IdleExit,
    /// A message picked up by the source transmit context.
    TxStart,
    /// A message visible in the destination receive queue.
    Visible,
    /// The visibility of a message the run ended before delivering: time
    /// zero, no in-edges.
    Unseen,
}

impl Kind {
    /// In declaration order: `ALL[kind as usize] == kind`.
    const ALL: [Kind; 12] = [
        Kind::Source,
        Kind::Sink,
        Kind::SendStart,
        Kind::RecvStart,
        Kind::ComputeStart,
        Kind::SendEnd,
        Kind::RecvEnd,
        Kind::ComputeEnd,
        Kind::IdleExit,
        Kind::TxStart,
        Kind::Visible,
        Kind::Unseen,
    ];
}

/// A node's op-code byte: its [`Kind`], and whether it is the first node
/// of its processor's chain, whose program-order predecessor is the
/// source and not the node before it.
#[derive(Clone, Copy)]
struct Op(u8);

impl Op {
    const FIRST: u8 = 0x80;

    fn new(kind: Kind, first: bool) -> Self {
        debug_assert_eq!(Kind::ALL[kind as usize], kind);
        Op(kind as u8 | if first { Self::FIRST } else { 0 })
    }

    fn kind(self) -> Kind {
        Kind::ALL[usize::from(self.0 & !Self::FIRST)]
    }

    fn first(self) -> bool {
        self.0 & Self::FIRST != 0
    }
}

/// One in-edge of a node: it costs `w.saturating_add_signed(Δ[class])`
/// under any configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct InEdge {
    tail: u32,
    /// Price class (see [`Classes`]).
    class: u32,
    /// Measured span, ns (zero on NIC and ordering edges).
    w: u64,
    /// Record index of the message the edge belongs to (`NO_MSG` if none).
    msg: u32,
}

impl InEdge {
    fn new(tail: u32, class: u32, w: u64, msg: u32) -> Self {
        InEdge {
            tail,
            class,
            w,
            msg,
        }
    }

    /// An edge that orders and costs nothing.
    fn order(tail: u32, msg: u32) -> Self {
        InEdge::new(tail, Classes::ZERO, 0, msg)
    }
}

/// What a message's edges read that its nodes' instants do not say.
struct Rec {
    /// Trace id (for critical-message reporting).
    id: u64,
    /// Receive-overhead span (`done − pop`): what the credit edge out of
    /// a reply's `Visible` carries.
    o_recv: u64,
    /// The message the same transmit context picked up just before this
    /// one (`NO_MSG` for a source's first).
    tx_prev: u32,
    /// Class of `TxFree` at this payload size; `Transit` is the next id.
    class: u32,
    src: u16,
    dst: u16,
}

/// Critical-path attribution for one configuration.
#[derive(Clone, Debug)]
pub struct PathBreakdown {
    /// Predicted measured-region span (the buckets sum to this exactly).
    pub total: SimDelta,
    /// Time on the critical path per [`CRITICAL_PATH`] class, in its
    /// column order.
    pub buckets: [SimDelta; CRITICAL_PATH.classes().len()],
    /// Per-application-phase rows, labels in lexicographic order.
    pub phases: Vec<PhaseRow>,
    /// Trace ids of the messages whose edges lie on the critical path.
    pub critical_msgs: Vec<u64>,
    /// Edges walked (diagnostic).
    pub edges_on_path: usize,
}

/// One application phase's share of the critical path.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase label (`"(startup)"` before the first mark).
    pub label: String,
    /// Time per [`CRITICAL_PATH`] class, in its column order.
    pub buckets: [SimDelta; CRITICAL_PATH.classes().len()],
    /// Row total.
    pub total: SimDelta,
}

/// The compiled DAG: a table of nodes whose in-edges are implied. Node ids
/// run source, every processor's program-order chain, the two NIC nodes
/// (`TxStart`, then `Visible`) of every message in record order, sink.
pub(crate) struct Dag {
    /// Measured baseline timestamp of each node, ns.
    measured: Vec<u64>,
    op: Vec<Op>,
    /// The one in-edge tail of each node that is neither the node before
    /// it nor read off `recs` (`NO_NODE` if it has none): the freeing
    /// reply's `Visible` for a credit-bound `SendStart`, the message's own
    /// `Visible` for a blocking `RecvStart`, the chain position at entry
    /// for an `IdleExit`, the `SendEnd` for a `TxStart`, the destination's
    /// previous `Visible` for a `Visible`. An `…End` node has no such edge
    /// and keeps the record index of its overhead activity here instead
    /// (`NO_MSG` for compute).
    dep: Vec<u32>,
    /// Each node's register in [`Dag::sweep`]. Until `topological_order`
    /// gives it one, the number of in-edges whose tail the node is.
    slot: Vec<u32>,
    /// Registers a sweep needs.
    slots: usize,
    /// First node of each processor's chain, then `nic_base`.
    chain_start: Vec<u32>,
    /// Message `i`'s NIC nodes are `nic_base + 2i` and `nic_base + 2i + 1`.
    nic_base: u32,
    recs: Vec<Rec>,
    /// `(exit node, deadline − enter)` of every idle wait in node order,
    /// ns.
    idle_bounds: Vec<(u32, u64)>,
    /// Tails of the sink's in-edges: every chain's last node, every
    /// source's last pickup, every destination's last visibility.
    sink_tails: Vec<u32>,
    /// In-edges over all nodes, counted as `build` declares them.
    edges: usize,
    classes: Classes,
    /// Every edge as its build site declared it — `(head, tail, cost,
    /// msg)` in emission order — to hold against what `in_edges` implies.
    #[cfg(test)]
    declared: Vec<(u32, u32, Cost, u32)>,
    topo: Vec<u32>,
    begin_anchor: u32,
    end_anchor: u32,
    /// Per-processor `(at_ns, label)` phase marks, sorted by time.
    phases: Vec<Vec<(u64, String)>>,
}

#[derive(Clone, Copy)]
struct ActItem {
    start: u64,
    end: u64,
    /// Record index for overhead activities, `NO_MSG` for compute.
    msg: u32,
    kind: ActKind,
}

#[derive(Clone, Copy)]
enum ActKind {
    OSend,
    /// `blocking`: the baseline popped the message the instant it became
    /// visible, i.e. the processor was demonstrably *waiting* for it. Only
    /// those receives take a visibility→pop dependency edge; a backlogged
    /// receive (`pop > visible`) was serviced when the processor got
    /// around to it, so it is ordered by occupancy (program order) alone
    /// and does not pull wire latency onto the host chain.
    ORecv {
        blocking: bool,
    },
    Compute,
}

/// Sorts each processor's `(key, record)` pairs and returns, per record,
/// the record just before it in its processor's order (`NO_MSG` for the
/// first) and, per processor, the last record of its order.
fn predecessors<K: Ord + Copy>(
    order: &mut [Vec<(K, u32)>],
    n_rec: usize,
) -> (Vec<u32>, Vec<Option<u32>>) {
    let mut prev = vec![NO_MSG; n_rec];
    let mut last = Vec::with_capacity(order.len());
    for list in order {
        list.sort_unstable();
        for w in list.windows(2) {
            prev[w[1].1 as usize] = w[0].1;
        }
        last.push(list.last().map(|&(_, i)| i));
    }
    (prev, last)
}

pub(crate) fn build(
    report: &TraceReport,
    cfg: &NetConfig,
    procs: usize,
    warnings: &mut Vec<String>,
) -> Result<Dag, PredictError> {
    if procs >= usize::from(NO_PROC) {
        return Err(PredictError::Unsupported(format!(
            "{procs} processors; the DAG addresses at most {}",
            NO_PROC - 1
        )));
    }
    let records = &report.records;
    let n_rec = records.len();
    // Node ids are `u32`, and `NO_NODE` is none of them. A message gives
    // at most six instants, a compute segment two and an idle wait one.
    let max_nodes =
        2 + 6 * n_rec as u64 + 2 * report.computes.len() as u64 + report.idles.len() as u64;
    if max_nodes >= u64::from(NO_NODE) {
        return Err(PredictError::Unsupported(format!(
            "{n_rec} messages; the DAG addresses fewer than 2^32 nodes"
        )));
    }
    // A message reached the destination's delivery chain iff its
    // visibility was recorded (always, unless the run was cut short).
    let has_vis = |r: &nowlab_trace::MsgRecord| r.completed() || r.visible.as_nanos() > 0;

    // One pass over the records buckets, per processor, everything the
    // chains are built from, as compact `(sort key, record)` pairs:
    // busy activities (send overhead, receive overhead; compute segments
    // follow), NIC pickup and visibility order, and the request-send and
    // credit-return orders of the flow-control window.
    let mut acts: Vec<Vec<ActItem>> = vec![Vec::new(); procs];
    let mut by_tx: Vec<Vec<((u64, u64), u32)>> = vec![Vec::new(); procs];
    let mut by_vis: Vec<Vec<(u64, u32)>> = vec![Vec::new(); procs];
    let mut sends: Vec<Vec<(u64, u32)>> = vec![Vec::new(); procs];
    let mut returns: Vec<Vec<(u64, u32)>> = vec![Vec::new(); procs];
    let mut incomplete = 0u64;
    for (i, r) in records.iter().enumerate() {
        let (src, dst) = (usize::from(r.src), usize::from(r.dst));
        if src >= procs || dst >= procs {
            return Err(PredictError::Unsupported(format!(
                "record {} references processor {}/{} outside 0..{}",
                r.id, src, dst, procs
            )));
        }
        let i = i as u32;
        acts[src].push(ActItem {
            start: r.send_begin.as_nanos(),
            end: r.inject.as_nanos(),
            msg: i,
            kind: ActKind::OSend,
        });
        by_tx[src].push(((r.tx_start.as_nanos(), r.inject.as_nanos()), i));
        if has_vis(&r) {
            by_vis[dst].push((r.visible.as_nanos(), i));
        }
        if !r.reply {
            sends[src].push((r.send_begin.as_nanos(), i));
        }
        if r.completed() {
            acts[dst].push(ActItem {
                start: r.pop.as_nanos(),
                end: r.done.as_nanos(),
                msg: i,
                kind: ActKind::ORecv {
                    blocking: r.pop == r.visible,
                },
            });
            if r.reply {
                returns[dst].push((r.done.as_nanos(), i));
            }
        } else {
            incomplete += 1;
        }
    }
    if incomplete > 0 {
        warnings.push(format!(
            "{incomplete} message(s) never completed; their receive side is \
             excluded from the DAG"
        ));
    }
    for c in report.computes.iter().filter(|c| c.proc < procs) {
        acts[c.proc].push(ActItem {
            start: c.start.as_nanos(),
            end: (c.start + c.dur).as_nanos(),
            msg: NO_MSG,
            kind: ActKind::Compute,
        });
    }
    let mut idles: Vec<Vec<&nowlab_trace::IdleSeg>> = vec![Vec::new(); procs];
    for seg in report.idles.iter().filter(|s| s.proc < procs) {
        idles[seg.proc].push(seg);
    }
    // Processors are single-threaded, so per-proc activities never
    // overlap; the stable sort by (start, end) recovers program order.
    for list in &mut acts {
        list.sort_by_key(|a| (a.start, a.end));
    }
    for list in &mut idles {
        list.sort_by_key(|s| s.enter.as_nanos());
    }

    let chain_nodes =
        2 * acts.iter().map(Vec::len).sum::<usize>() + idles.iter().map(Vec::len).sum::<usize>();
    let n_nodes = 2 + chain_nodes + 2 * n_rec;
    // NIC nodes follow the chains, so their ids are known while the
    // chains are being laid down.
    let nic_base = 1 + chain_nodes as u32;
    let tx_node = |i: u32| nic_base + 2 * i;
    let vis_node = |i: u32| nic_base + 2 * i + 1;

    // Per-source and per-destination serialization follow the baseline
    // pickup/visibility order.
    let (tx_prev, last_tx) = predecessors(&mut by_tx, n_rec);
    let (vis_prev, last_vis) = predecessors(&mut by_vis, n_rec);
    drop((by_tx, by_vis));

    // Flow-control window: a processor's n-th request send (0-based) must
    // hold a credit, so it cannot begin before the (n−W+1)-th credit has
    // returned — a reply to one of its own requests fully processed. The
    // *order* credits return is frozen at the baseline's reply-processing
    // order; `credit_from[send]` is the reply whose return frees the slot.
    let window = cfg.window as usize;
    let mut credit_from = vec![NO_MSG; n_rec];
    for (sends, returns) in sends.iter_mut().zip(&mut returns) {
        sends.sort_unstable();
        returns.sort_unstable();
        // A truncated run may have fewer returns than the window needs.
        for (&(_, si), &(_, ri)) in sends.iter().skip(window).zip(returns.iter()) {
            credit_from[si as usize] = ri;
        }
    }
    drop((sends, returns));

    let mut dag = Dag {
        measured: Vec::with_capacity(n_nodes),
        op: Vec::with_capacity(n_nodes),
        dep: Vec::with_capacity(n_nodes),
        // Sized up front: a credit or blocking-receive edge names a
        // `Visible` that is laid after its head.
        slot: vec![0; n_nodes],
        slots: 0,
        chain_start: Vec::with_capacity(procs + 1),
        nic_base,
        recs: Vec::with_capacity(n_rec),
        idle_bounds: Vec::new(),
        sink_tails: Vec::new(),
        edges: 0,
        classes: Classes::new(cfg),
        #[cfg(test)]
        declared: Vec::new(),
        topo: Vec::new(),
        begin_anchor: 0,
        end_anchor: 0,
        phases: vec![Vec::new(); procs],
    };
    dag.node(0, Kind::Source, false);

    // Program-order chains. `osend_end[i]` is the node at which message
    // i's send overhead completed (= its injection instant). A
    // processor's lists are dropped as soon as its chain is laid.
    let mut osend_end: Vec<u32> = vec![0; n_rec];
    let mut chain_tail: Vec<u32> = Vec::with_capacity(procs);
    for (acts, idles) in acts.into_iter().zip(idles) {
        dag.chain_start.push(dag.measured.len() as u32);
        let mut cursor = 0u32; // source
        let mut pending = acts.iter().peekable();
        // Chains every activity that began before `limit`.
        let mut run_until = |limit: u64, dag: &mut Dag, cursor: &mut u32| {
            while let Some(a) = pending.next_if(|a| a.start < limit) {
                let (start, end) = match a.kind {
                    ActKind::OSend => (Kind::SendStart, Kind::SendEnd),
                    ActKind::ORecv { .. } => (Kind::RecvStart, Kind::RecvEnd),
                    ActKind::Compute => (Kind::ComputeStart, Kind::ComputeEnd),
                };
                let s = dag.chain_node(a.start, start, *cursor);
                dag.edge(*cursor, Cost::Zero, NO_MSG);
                let dur = SimDelta::from_nanos(a.end.saturating_sub(a.start));
                let cost = match a.kind {
                    ActKind::OSend => {
                        // The credit edge runs from the freeing reply's
                        // visibility and carries its receive-overhead span
                        // (the pop+process that precedes the credit
                        // increment). Always consistent at the baseline:
                        // `visible + (done − pop) ≤ done ≤ send_begin`
                        // held in the real run.
                        let ri = credit_from[a.msg as usize];
                        if ri != NO_MSG {
                            let r = records.get(ri as usize).expect("a credit names a record");
                            let span = r.done.saturating_since(r.pop);
                            dag.dep_edge(vis_node(ri), Cost::ORecv(span), ri);
                        }
                        osend_end[a.msg as usize] = s + 1;
                        Cost::OSend(dur)
                    }
                    ActKind::ORecv { blocking } => {
                        if blocking {
                            // The baseline waited for this message: its
                            // pop depends on visibility, so wire latency
                            // reaches the host chain here.
                            dag.dep_edge(vis_node(a.msg), Cost::Zero, a.msg);
                        }
                        Cost::ORecv(dur)
                    }
                    ActKind::Compute => Cost::Compute(dur),
                };
                *cursor = dag.chain_node(a.end, end, s);
                dag.dep[*cursor as usize] = a.msg;
                dag.edge(s, cost, a.msg);
            }
        };
        for seg in idles {
            run_until(seg.enter.as_nanos(), &mut dag, &mut cursor);
            // The wait's lower bound hangs off the processor's position at
            // entry; receive overheads serviced inside the wait chain
            // through `cursor` as usual.
            let idle_base = cursor;
            run_until(seg.exit.as_nanos(), &mut dag, &mut cursor);
            let bound = seg.deadline.saturating_since(seg.enter);
            let ex = dag.chain_node(seg.exit.as_nanos(), Kind::IdleExit, cursor);
            dag.idle_bounds.push((ex, bound.as_nanos()));
            dag.dep_edge(idle_base, Cost::Idle(bound), NO_MSG);
            dag.edge(cursor, Cost::Zero, NO_MSG);
            cursor = ex;
        }
        run_until(u64::MAX, &mut dag, &mut cursor);
        chain_tail.push(cursor);
    }
    dag.chain_start.push(nic_base);
    debug_assert_eq!(dag.measured.len() as u32, nic_base);

    // NIC nodes. Injection hands the message to the transmit context,
    // which the previous message of the same source may still hold;
    // visibility follows transit and the destination's previous delivery.
    for (i, r) in records.iter().enumerate() {
        let i = i as u32;
        let tx = dag.node(r.tx_start.as_nanos(), Kind::TxStart, false);
        dag.dep_edge(osend_end[i as usize], Cost::Zero, i);
        let tx_prev = tx_prev[i as usize];
        if tx_prev != NO_MSG {
            let bytes = records.get(tx_prev as usize).expect("a record").bytes;
            dag.edge(tx_node(tx_prev), Cost::TxFree { bytes }, i);
        }
        if has_vis(&r) {
            dag.node(r.visible.as_nanos(), Kind::Visible, false);
            dag.edge(tx, Cost::Transit { bytes: r.bytes }, i);
            let prev = vis_prev[i as usize];
            if prev != NO_MSG {
                dag.dep_edge(vis_node(prev), Cost::RxChain, i);
            }
        } else {
            dag.node(r.visible.as_nanos(), Kind::Unseen, false);
        }
        let class = dag.classes.sized(r.bytes);
        dag.recs.push(Rec {
            id: r.id,
            o_recv: r.done.saturating_since(r.pop).as_nanos(),
            tx_prev,
            class,
            src: r.src,
            dst: r.dst,
        });
    }

    // Virtual sink joining every chain (full-run makespan).
    let last_nic = last_tx
        .iter()
        .zip(&last_vis)
        .flat_map(|(tx, vis)| [tx.map(tx_node), vis.map(vis_node)])
        .flatten();
    let joined: Vec<u32> = chain_tail.into_iter().chain(last_nic).collect();
    let sink_measured = joined
        .iter()
        .map(|&n| dag.measured[n as usize])
        .max()
        .unwrap_or(0);
    let sink = dag.node(sink_measured, Kind::Sink, false);
    for &t in &joined {
        dag.edge(t, Cost::Zero, NO_MSG);
    }
    dag.sink_tails = joined;

    // Measured-region anchors: the program-order node a processor sat at
    // when the region mark was taken (chain timestamps never decrease).
    let anchor = |p: usize, t: u64| -> u32 {
        let start = dag.chain_start[p];
        let times = &dag.measured[start as usize..dag.chain_start[p + 1] as usize];
        match times.partition_point(|&at| at <= t) {
            0 => 0,
            idx => start + idx as u32 - 1,
        }
    };
    let begin = report.regions.iter().find(|r| r.begin);
    let end = report.regions.iter().rev().find(|r| !r.begin);
    (dag.begin_anchor, dag.end_anchor) = match (begin, end) {
        (Some(b), Some(e)) if b.proc < procs && e.proc < procs => {
            let ba = anchor(b.proc, b.at.as_nanos());
            let ea = anchor(e.proc, e.at.as_nanos());
            if dag.measured[ba as usize] != b.at.as_nanos()
                || dag.measured[ea as usize] != e.at.as_nanos()
            {
                warnings.push(
                    "region marks do not coincide with activity boundaries; \
                     span prediction is anchored to the nearest preceding \
                     instant"
                        .to_string(),
                );
            }
            (ba, ea)
        }
        _ => {
            warnings.push(
                "no measured-region marks in the trace; predicting the \
                 whole-run makespan"
                    .to_string(),
            );
            (0, sink)
        }
    };

    dag.topological_order()?;

    for m in report.phases.iter().filter(|m| m.proc < procs) {
        dag.phases[m.proc].push((m.at.as_nanos(), m.label.as_str().to_string()));
    }
    for list in &mut dag.phases {
        list.sort();
    }
    Ok(dag)
}

impl Dag {
    /// Appends a node; the `edge` and `dep_edge` calls up to the next
    /// `node` declare its in-edges.
    fn node(&mut self, measured: u64, kind: Kind, first: bool) -> u32 {
        let id = self.measured.len() as u32;
        self.measured.push(measured);
        self.op.push(Op::new(kind, first));
        self.dep.push(NO_NODE);
        id
    }

    /// Appends a node to a processor's chain, `pred` being the chain's
    /// last node so far (the source if there is none).
    fn chain_node(&mut self, measured: u64, kind: Kind, pred: u32) -> u32 {
        self.node(measured, kind, pred == 0)
    }

    /// Declares an in-edge of the node appended last. Nothing of it is
    /// stored — `in_edges` reads it off the node's kind — so it is
    /// counted, as an edge and as a reader of `tail`, and in test builds
    /// kept to check `in_edges` against.
    fn edge(&mut self, tail: u32, cost: Cost, msg: u32) {
        self.edges += 1;
        self.slot[tail as usize] += 1;
        #[cfg(test)]
        self.declared
            .push((self.measured.len() as u32 - 1, tail, cost, msg));
        #[cfg(not(test))]
        let _ = (tail, cost, msg);
    }

    /// Declares the in-edge of the node appended last whose tail `dep`
    /// has to record.
    fn dep_edge(&mut self, tail: u32, cost: Cost, msg: u32) {
        *self.dep.last_mut().expect("follows a `node` call") = tail;
        self.edge(tail, cost, msg);
    }

    /// Hands `f` the in-edges of `id`, in the order `build` declares them
    /// (`breakdown` takes the first tight one, so that order is part of
    /// the output), until `f` breaks. An `…End` node has one, from its
    /// `…Start` — the node before it — carrying the difference of the two
    /// measured instants. A `…Start` has the ordering edge from the node
    /// before it and, if `dep` says so, the credit or blocking-receive
    /// edge; the NIC nodes and the idle exit likewise have one edge by
    /// position and one by `dep`; only the sink has more than two.
    #[inline(always)]
    fn in_edges<B>(&self, id: u32, mut f: impl FnMut(InEdge) -> ControlFlow<B>) -> ControlFlow<B> {
        let n = id as usize;
        let (op, dep) = (self.op[n], self.dep[n]);
        let (edge, order) = (InEdge::new, InEdge::order);
        // Program order: the node before, or the source for a chain's first.
        let pred = if op.first() { 0 } else { id.wrapping_sub(1) };
        let msg_of = |node| self.msg_of(node);
        let rec = |i: u32| &self.recs[i as usize];
        match op.kind() {
            Kind::Source | Kind::Unseen => {}
            Kind::Sink => {
                for &tail in &self.sink_tails {
                    f(order(tail, NO_MSG))?;
                }
            }
            kind @ (Kind::SendStart | Kind::RecvStart | Kind::ComputeStart) => {
                f(order(pred, NO_MSG))?;
                if dep != NO_NODE {
                    let msg = msg_of(dep);
                    f(match kind {
                        // The credit: the freeing reply's receive overhead.
                        Kind::SendStart => edge(dep, Classes::O_RECV, rec(msg).o_recv, msg),
                        // The receive that waited for its message.
                        _ => order(dep, msg),
                    })?;
                }
            }
            kind @ (Kind::SendEnd | Kind::RecvEnd | Kind::ComputeEnd) => {
                let class = match kind {
                    Kind::SendEnd => Classes::O_SEND,
                    Kind::RecvEnd => Classes::O_RECV,
                    _ => Classes::COMPUTE,
                };
                let span = self.measured[n].saturating_sub(self.measured[n - 1]);
                f(edge(id - 1, class, span, dep))?;
            }
            Kind::IdleExit => {
                let at = self.idle_bounds.partition_point(|&(exit, _)| exit < id);
                f(edge(dep, Classes::IDLE, self.idle_bounds[at].1, NO_MSG))?;
                f(order(pred, NO_MSG))?;
            }
            Kind::TxStart => {
                let i = msg_of(id);
                f(order(dep, i))?;
                let prev = rec(i).tx_prev;
                if prev != NO_MSG {
                    f(edge(self.nic_base + 2 * prev, rec(prev).class, 0, i))?;
                }
            }
            Kind::Visible => {
                let i = msg_of(id);
                f(edge(id - 1, rec(i).class + 1, 0, i))?;
                if dep != NO_NODE {
                    f(edge(dep, Classes::RX_CHAIN, 0, i))?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The first in-edge of `id` that `wanted` accepts.
    fn find_in_edge(&self, id: u32, mut wanted: impl FnMut(&InEdge) -> bool) -> Option<InEdge> {
        let found = self.in_edges(id, |e| {
            if wanted(&e) {
                ControlFlow::Break(e)
            } else {
                ControlFlow::Continue(())
            }
        });
        found.break_value()
    }

    /// The record index of the message whose NIC node `node` is.
    fn msg_of(&self, node: u32) -> u32 {
        (node - self.nic_base) / 2
    }

    /// The processor `node` is an instant of (`NO_PROC` for source/sink).
    /// `chain` is the chain a walk is on: it is searched for only when
    /// `node` lies on another.
    fn proc_of(&self, node: u32, chain: &mut usize) -> u16 {
        let rec = || &self.recs[self.msg_of(node) as usize];
        match self.op[node as usize].kind() {
            Kind::Source | Kind::Sink => NO_PROC,
            Kind::TxStart => rec().src,
            Kind::Visible | Kind::Unseen => rec().dst,
            _ => {
                let starts = &self.chain_start;
                if !(starts[*chain]..starts[*chain + 1]).contains(&node) {
                    *chain = starts.partition_point(|&first| first <= node) - 1;
                }
                *chain as u16
            }
        }
    }

    /// Depth-first post-order over in-edges, roots in node-id order: every
    /// node after all its predecessors, with chains mostly contiguous.
    /// Longest-path times do not depend on which valid order is used.
    /// Doubles as the acyclicity proof.
    ///
    /// Gives each node its register as it is emitted, after its tails
    /// have been read: a free one — the emission may just have freed it,
    /// since a sweep reads every tail before it writes the head — or a
    /// fresh one. A register is free once the last reader of its node
    /// is emitted; the two region anchors keep theirs to the end, and the
    /// nodes nobody reads share register 0.
    fn topological_order(&mut self) -> Result<(), PredictError> {
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        const PINNED: u32 = u32::MAX;
        let n = self.measured.len();
        let mut state = vec![0u8; n];
        let mut topo = Vec::with_capacity(n);
        // Readers still to come of the node in each register; 0 is the
        // shared one, and `PINNED` is never freed.
        let mut pending: Vec<u32> = vec![PINNED];
        let mut free: Vec<u32> = Vec::new();
        // A node's reader count until it is emitted, its register after.
        let mut slot = std::mem::take(&mut self.slot);
        let anchors = [self.begin_anchor, self.end_anchor];
        // (node, next in-edge to follow)
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if state[root as usize] != 0 {
                continue;
            }
            state[root as usize] = OPEN;
            stack.push((root, 0));
            while let Some((node, next)) = stack.last_mut() {
                // The next in-edge whose tail is not finished yet. (Seen
                // from the sink, the last root, every tail is: one sweep.)
                let mut at = 0;
                let Some(InEdge { tail, .. }) = self.find_in_edge(*node, |e| {
                    at += 1;
                    at > *next && state[e.tail as usize] != DONE
                }) else {
                    let head = *node;
                    stack.pop();
                    state[head as usize] = DONE;
                    topo.push(head);
                    let _ = self.in_edges(head, |e| {
                        let s = slot[e.tail as usize];
                        if pending[s as usize] != PINNED {
                            pending[s as usize] -= 1;
                            if pending[s as usize] == 0 {
                                free.push(s);
                            }
                        }
                        ControlFlow::<()>::Continue(())
                    });
                    let readers = if anchors.contains(&head) {
                        PINNED
                    } else {
                        slot[head as usize]
                    };
                    slot[head as usize] = if readers == 0 {
                        0
                    } else if let Some(s) = free.pop() {
                        pending[s as usize] = readers;
                        s
                    } else {
                        pending.push(readers);
                        pending.len() as u32 - 1
                    };
                    continue;
                };
                *next = at;
                let i = tail as usize;
                if state[i] == OPEN {
                    return Err(PredictError::Cyclic(format!(
                        "happens-before graph has a cycle through node {} ({:?} at {} ns)",
                        i,
                        self.op[i].kind(),
                        self.measured[i]
                    )));
                }
                state[i] = OPEN;
                stack.push((tail, 0));
            }
        }
        (self.topo, self.slot, self.slots) = (topo, slot, pending.len());
        Ok(())
    }

    pub(crate) fn node_count(&self) -> usize {
        self.measured.len()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edges
    }

    /// The configuration of the recorded run.
    pub(crate) fn base(&self) -> &NetConfig {
        self.classes.base()
    }

    /// The evaluation kernel: one sweep of `topo` computes the
    /// longest-path time of every node under each of `cfgs` (at most `L`;
    /// spare lanes repeat the last), handing `visit` each node's `L` times
    /// as they are computed, and returns each lane's measured-region
    /// span, ns. A node's times live in its register only until its last
    /// reader has read them.
    fn sweep<const L: usize>(
        &self,
        cfgs: &[&NetConfig],
        mut visit: impl FnMut(u32, &[u64; L]),
    ) -> [u64; L] {
        assert!((1..=L).contains(&cfgs.len()), "1 to {L} configurations");
        let tables: Vec<Vec<i64>> = cfgs.iter().map(|cfg| self.classes.table(cfg)).collect();
        // Per class, its `Δ` in every lane.
        let delta: Vec<[i64; L]> = (0..tables[0].len())
            .map(|class| std::array::from_fn(|k| tables[k.min(cfgs.len() - 1)][class]))
            .collect();
        let mut regs = vec![[0u64; L]; self.slots];
        for &nid in &self.topo {
            let mut best = [0u64; L];
            let _ = self.in_edges(nid, |e| {
                let tail = &regs[self.slot[e.tail as usize] as usize];
                for ((b, &t), &d) in best.iter_mut().zip(tail).zip(&delta[e.class as usize]) {
                    *b = (*b).max(t + e.w.saturating_add_signed(d));
                }
                ControlFlow::<()>::Continue(())
            });
            regs[self.slot[nid as usize] as usize] = best;
            visit(nid, &best);
        }
        let at = |anchor: u32| &regs[self.slot[anchor as usize] as usize];
        let (begin, end) = (at(self.begin_anchor), at(self.end_anchor));
        std::array::from_fn(|k| end[k].saturating_sub(begin[k]))
    }

    /// The spans of `cfgs` in [`Dag::sweep`]'s lanes, adding the first
    /// `cfgs.len()` of them to `out`.
    fn spans_into<const L: usize>(&self, cfgs: &[&NetConfig], out: &mut Vec<SimDelta>) {
        let spans = self.sweep::<L>(cfgs, |_, _| {});
        out.extend(
            spans[..cfgs.len()]
                .iter()
                .map(|&ns| SimDelta::from_nanos(ns)),
        );
    }

    /// Predicted measured-region span under each of `cfgs`, in order:
    /// one sweep per [`LANES`] of them, the last as narrow as will hold
    /// what is left. (A sweep two lanes wide costs what two one lane wide
    /// do, so there is none.)
    pub(crate) fn spans(&self, cfgs: &[&NetConfig]) -> Vec<SimDelta> {
        let mut out = Vec::with_capacity(cfgs.len());
        for chunk in cfgs.chunks(LANES) {
            match chunk.len() {
                1 => self.spans_into::<1>(chunk, &mut out),
                2..=4 => self.spans_into::<4>(chunk, &mut out),
                5..=8 => self.spans_into::<8>(chunk, &mut out),
                _ => self.spans_into::<LANES>(chunk, &mut out),
            }
        }
        out
    }

    /// Longest-path time of every node under `cfg`, ns, indexed by node,
    /// written into `t`, by the pass over a node-times buffer that
    /// preceded the register file: the oracle [`Dag::sweep`] is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn times_into(&self, cfg: &NetConfig, t: &mut Vec<u64>) {
        let delta = self.classes.table(cfg);
        if t.len() != self.measured.len() {
            *t = vec![0; self.measured.len()];
        }
        for &nid in &self.topo {
            let mut best = 0u64;
            let _ = self.in_edges(nid, |e| {
                let price = e.w.saturating_add_signed(delta[e.class as usize]);
                best = best.max(t[e.tail as usize] + price);
                ControlFlow::<()>::Continue(())
            });
            t[nid as usize] = best;
        }
    }

    /// Predicted measured-region span under `cfg` given precomputed times.
    pub(crate) fn span(&self, times: &[u64]) -> SimDelta {
        SimDelta::from_nanos(
            times[self.end_anchor as usize].saturating_sub(times[self.begin_anchor as usize]),
        )
    }

    /// Evaluates the DAG at the recorded configuration, checking as it
    /// goes that every node lands on its measured instant exactly
    /// (integer nanoseconds); returns the measured-region span.
    pub(crate) fn validate(&self) -> Result<SimDelta, PredictError> {
        // The five lowest-id nodes that missed, ascending.
        const SHOWN: usize = 5;
        let mut bad: Vec<(u32, u64)> = Vec::new();
        let [span] = self.sweep::<1>(&[self.base()], |nid, &[at]| {
            if at != self.measured[nid as usize] && bad.get(SHOWN - 1).is_none_or(|b| nid < b.0) {
                let i = bad.partition_point(|b| b.0 < nid);
                bad.insert(i, (nid, at));
                bad.truncate(SHOWN);
            }
        });
        if bad.is_empty() {
            return Ok(SimDelta::from_nanos(span));
        }
        let bad: Vec<String> = bad
            .into_iter()
            .map(|(nid, at)| {
                let i = nid as usize;
                format!(
                    "node {} {:?} proc {}: computed {} ns, measured {} ns",
                    i,
                    self.op[i].kind(),
                    self.proc_of(nid, &mut 0),
                    at,
                    self.measured[i]
                )
            })
            .collect();
        Err(PredictError::Mismatch(format!(
            "baseline DAG evaluation diverged from the recorded run: {}",
            bad.join("; ")
        )))
    }

    fn phase_of(&self, proc: u16, at: u64) -> &str {
        if proc == NO_PROC {
            return "(startup)";
        }
        let list = &self.phases[proc as usize];
        let idx = list.partition_point(|&(t, _)| t <= at);
        if idx == 0 {
            "(startup)"
        } else {
            &list[idx - 1].1
        }
    }

    /// Walks the critical path backwards from the region end anchor,
    /// clipping at the region span so the buckets telescope to it exactly.
    pub(crate) fn breakdown(&self, cfg: &NetConfig) -> PathBreakdown {
        if cfg == self.base() {
            // `validate` has shown baseline evaluation to land on the
            // recorded timestamps, so they are the baseline node times.
            self.walk(cfg, &self.measured)
        } else {
            let mut times = vec![0; self.node_count()];
            self.sweep::<1>(&[cfg], |nid, &[at]| times[nid as usize] = at);
            self.walk(cfg, &times)
        }
    }

    /// [`Dag::breakdown`] given every node's time under `cfg`.
    fn walk(&self, cfg: &NetConfig, times: &[u64]) -> PathBreakdown {
        let delta = self.classes.table(cfg);
        let span = self.span(times);
        let mut remaining = span.as_nanos();
        let mut buckets = [0u64; CRITICAL_PATH.classes().len()];
        let mut per_phase: BTreeMap<&str, [u64; CRITICAL_PATH.classes().len()]> = BTreeMap::new();
        let mut msgs: BTreeSet<u64> = BTreeSet::new();
        let mut edges_on_path = 0usize;
        let mut chain = 0;
        let mut node = self.end_anchor;
        while node != 0 && remaining > 0 {
            let t = times[node as usize];
            // At least one in-edge is tight (t is the max over them);
            // take the first in declaration order for determinism.
            let Some(e) = self.find_in_edge(node, |e| {
                let price = e.w.saturating_add_signed(delta[e.class as usize]);
                times[e.tail as usize] + price == t
            }) else {
                break; // no in-edges: a root inside the region window
            };
            edges_on_path += 1;
            let phase = self.phase_of(self.proc_of(node, &mut chain), self.measured[node as usize]);
            let cost = self.classes.cost(e.class, e.w);
            let mut took_any = false;
            for (class, part) in cost.parts(cfg, self.base()) {
                let take = part.as_nanos().min(remaining);
                if take > 0 {
                    let col = CRITICAL_PATH.column(class);
                    buckets[col] += take;
                    per_phase.entry(phase).or_default()[col] += take;
                    remaining -= take;
                    took_any = true;
                }
            }
            if e.msg != NO_MSG && took_any {
                msgs.insert(self.recs[e.msg as usize].id);
            }
            node = e.tail;
        }
        let phases = per_phase
            .into_iter()
            .map(|(label, b)| PhaseRow {
                label: label.to_string(),
                buckets: b.map(SimDelta::from_nanos),
                total: SimDelta::from_nanos(b.iter().sum()),
            })
            .collect();
        PathBreakdown {
            total: span,
            buckets: buckets.map(SimDelta::from_nanos),
            phases,
            critical_msgs: msgs.into_iter().collect(),
            edges_on_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_am::{Knobs, LatencyMode};
    use nowlab_apps::{suite_scaled, SuiteScale};
    use nowlab_core::{Axis, RunSpec, TraceMode};
    use nowlab_trace::{Mark, MsgRecord};

    #[test]
    fn an_unaddressable_processor_count_is_an_error_not_a_panic() {
        let procs = usize::from(NO_PROC);
        let built = build(
            &TraceReport::default(),
            &NetConfig::berkeley_now(),
            procs,
            &mut Vec::new(),
        );
        assert!(matches!(built, Err(PredictError::Unsupported(_))));
    }

    fn traced(name: &str) -> TraceReport {
        let app = suite_scaled(SuiteScale::Test)
            .into_iter()
            .find(|a| a.name() == name)
            .expect("app in suite");
        let out = app.run(&RunSpec::new(4).with_trace(TraceMode::Full));
        out.trace.expect("trace requested")
    }

    /// The run of `tests/predict_golden.rs` that was cut short: processor
    /// 0's second message reached the wire and was never received.
    fn truncated() -> TraceReport {
        let cfg = NetConfig::berkeley_now();
        let (gap, lat) = (cfg.eff_gap().as_nanos(), cfg.eff_latency().as_nanos());
        let o = 1_000;
        let (vis_a, tx_b) = (o + lat, (2 * o).max(o + gap));
        let record = |id, at: [u64; 8], completed| {
            let at = at.map(nowlab_sim::SimTime::from_nanos);
            MsgRecord::from_instants(id, 0, 1, Mark::User, 0, at, completed)
        };
        TraceReport {
            records: [
                record(1, [0, o, o, o, vis_a, vis_a, vis_a, vis_a + o], true),
                record(2, [o, 2 * o, tx_b, tx_b, 0, 0, 0, 0], false),
            ]
            .into_iter()
            .collect(),
            ..TraceReport::default()
        }
    }

    /// Every node's in-edges as `in_edges` implies them, in node order.
    fn implied(dag: &Dag) -> Vec<(u32, InEdge)> {
        let mut edges = Vec::new();
        for head in 0..dag.node_count() as u32 {
            let _ = dag.in_edges(head, |e| {
                edges.push((head, e));
                ControlFlow::<()>::Continue(())
            });
        }
        edges
    }

    /// What `build` declares edge by edge is what the node table implies:
    /// heads, tails, costs (class and span), message indices, order — on
    /// runs with idle exits, several payload sizes and an undelivered
    /// message as well as the two short-message apps.
    #[test]
    fn the_implied_edges_are_the_declared_edges() {
        let stock = NetConfig::berkeley_now();
        let mut runs: Vec<(&str, TraceReport, usize)> =
            ["Radix", "EM3D(write)", "NOW-sort", "Radb"]
                .map(|name| (name, traced(name), 4))
                .into();
        runs.push(("truncated", truncated(), 2));
        let (mut idles, mut sizes, mut unseen) = (0, 0, 0);
        for (name, report, procs) in &runs {
            let dag =
                build(report, &stock, *procs, &mut Vec::new()).unwrap_or_else(|e| panic!("{e}"));
            let implied: Vec<_> = implied(&dag)
                .into_iter()
                .map(|(head, e)| (head, e.tail, dag.classes.cost(e.class, e.w), e.msg))
                .collect();
            let differs = implied.iter().zip(&dag.declared).position(|(a, b)| a != b);
            let differs = differs.map(|k| (k, implied[k], dag.declared[k]));
            assert_eq!(differs, None, "{name}: (edge, implied, declared)");
            assert_eq!(implied.len(), dag.declared.len(), "{name}");
            assert_eq!(dag.edge_count(), dag.declared.len(), "{name}");
            idles += dag.idle_bounds.len();
            sizes = sizes.max(dag.recs.iter().map(|r| r.class).max().unwrap_or(0));
            unseen += dag.op.iter().filter(|op| op.kind() == Kind::Unseen).count();
        }
        assert!(idles > 0, "no idle exit was covered");
        assert!(
            sizes > Classes::RX_CHAIN + 1,
            "no second payload size was covered"
        );
        assert_eq!(unseen, 1, "the undelivered message");
    }

    /// `base`, the stock machine, and every paper grid point of all four
    /// axes under both latency mechanisms.
    fn grid(base: &NetConfig) -> Vec<NetConfig> {
        let mut cfgs = vec![*base, NetConfig::berkeley_now()];
        for axis in [
            Axis::Overhead,
            Axis::Gap,
            Axis::Latency,
            Axis::BulkBandwidth,
        ] {
            for knobs in axis
                .paper_values()
                .into_iter()
                .filter_map(|v| axis.knobs_for(&base.machine, v))
            {
                cfgs.push(base.with_knobs(knobs));
                cfgs.push(cfgs[cfgs.len() - 1].with_latency_mode(LatencyMode::SlowRxPath));
            }
        }
        cfgs
    }

    /// Radix with bulk messages of three sizes, and a baseline 10 us of
    /// overhead slower than the run really was: re-pricing at the stock
    /// machine then takes more off the measured spans than they hold.
    fn saturating() -> (TraceReport, NetConfig) {
        let mut synthetic = traced("Radix");
        let sizes = [0, 100, 5_000, 9_000].into_iter().cycle();
        synthetic.records = (synthetic.records.iter().zip(sizes))
            .map(|(mut r, bytes)| {
                r.bytes = bytes;
                r
            })
            .collect();
        let overhead = Knobs::with_overhead(SimDelta::from_micros(10.0));
        (synthetic, NetConfig::berkeley_now().with_knobs(overhead))
    }

    /// Builds the DAG of `report` against `base` and checks, for every
    /// edge, that the compiled price equals the symbolic one at every
    /// configuration of [`grid`]. Returns how often an overhead edge's
    /// price saturated at zero.
    fn saturated_after_checking_every_edge(report: &TraceReport, base: &NetConfig) -> usize {
        let dag = build(report, base, 4, &mut Vec::new()).unwrap_or_else(|e| panic!("{e}"));
        let implied = implied(&dag);
        assert_eq!(implied.len(), dag.declared.len());
        let mut saturated = 0;
        for cfg in &grid(base) {
            let delta = dag.classes.table(cfg);
            for ((_, e), (_, _, cost, _)) in implied.iter().zip(&dag.declared) {
                let compiled = e.w.saturating_add_signed(delta[e.class as usize]);
                let symbolic = cost.price(cfg, base).as_nanos();
                assert_eq!(compiled, symbolic, "{cost:?} under {:?}", cfg.knobs);
                saturated += usize::from(e.w > 0 && compiled == 0);
            }
        }
        saturated
    }

    #[test]
    fn compiled_prices_equal_the_symbolic_price_on_every_edge() {
        let stock = NetConfig::berkeley_now();
        for name in ["Radix", "EM3D(write)"] {
            assert_eq!(
                saturated_after_checking_every_edge(&traced(name), &stock),
                0
            );
        }
        let (synthetic, slow) = saturating();
        assert!(saturated_after_checking_every_edge(&synthetic, &slow) > 0);
    }

    /// One sweep of the register file computes, for every node in every
    /// lane, what the oracle pass over a node-times buffer computes, on
    /// the ten apps at every configuration of [`grid`] and on the run
    /// whose prices saturate. Spans agree at every chunk length around the
    /// lane width, a non-base `breakdown` walks the oracle's path, and
    /// validation passes exactly when the oracle's times are the
    /// measured ones.
    #[test]
    fn the_register_file_computes_what_the_node_times_pass_does() {
        let stock = NetConfig::berkeley_now();
        let mut runs: Vec<(String, TraceReport, NetConfig)> = suite_scaled(SuiteScale::Test)
            .iter()
            .map(|app| (app.name().to_string(), traced(app.name()), stock))
            .collect();
        let (synthetic, slow) = saturating();
        runs.push(("saturating".to_string(), synthetic, slow));
        let mut validated = 0;
        for (name, report, base) in &runs {
            let dag = build(report, base, 4, &mut Vec::new()).unwrap_or_else(|e| panic!("{e}"));
            let cfgs = grid(base);
            assert!(
                cfgs.len() >= 2 * LANES,
                "{name}: {} configurations",
                cfgs.len()
            );
            let (mut spans, mut lanes) = (Vec::new(), Vec::new());
            for (k, cfg) in cfgs.iter().enumerate() {
                let mut times = Vec::new();
                dag.times_into(cfg, &mut times);
                spans.push(dag.span(&times));
                if cfg != base {
                    let walked = format!("{:?}", dag.walk(cfg, &times));
                    assert_eq!(format!("{:?}", dag.breakdown(cfg)), walked, "{name}: {k}");
                }
                if k == 0 {
                    let valid = times == dag.measured;
                    assert_eq!(dag.validate().ok(), valid.then_some(spans[0]), "{name}");
                    validated += usize::from(valid);
                }
                if k < LANES {
                    lanes.push(times);
                }
            }
            let cfgs: Vec<&NetConfig> = cfgs.iter().collect();
            let mut visited = 0;
            dag.sweep::<LANES>(&cfgs[..LANES], |nid, row| {
                let oracle: Vec<u64> = lanes.iter().map(|t| t[nid as usize]).collect();
                assert_eq!(&row[..], oracle, "{name}: node {nid}");
                visited += 1;
            });
            assert_eq!(visited, dag.node_count(), "{name}");
            for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
                assert_eq!(dag.spans(&cfgs[..n]), spans[..n], "{name}: {n} at once");
            }
        }
        // The ten recorded runs; the synthetic one's sizes were rewritten.
        assert_eq!(validated, 10);
    }

    /// Validation names the five lowest-id nodes that missed their
    /// instant, whatever order it computes them in: the messages are the
    /// ones `06a59b6` (a pass over a node-times buffer, then a scan in id
    /// order) gave for the same corrupted instants of the truncated run.
    #[test]
    fn a_corrupted_instant_is_named_as_the_node_times_pass_named_it() {
        let cases = [
            (
                1,
                "node 1 SendStart proc 0: computed 0 ns, measured 7 ns; \
                 node 2 SendEnd proc 0: computed 993 ns, measured 1000 ns; \
                 node 3 SendStart proc 0: computed 993 ns, measured 1000 ns; \
                 node 4 SendEnd proc 0: computed 1993 ns, measured 2000 ns; \
                 node 5 RecvStart proc 1: computed 5993 ns, measured 6000 ns",
            ),
            (
                2,
                "node 3 SendStart proc 0: computed 1007 ns, measured 1000 ns; \
                 node 4 SendEnd proc 0: computed 2007 ns, measured 2000 ns; \
                 node 5 RecvStart proc 1: computed 6007 ns, measured 6000 ns; \
                 node 6 RecvEnd proc 1: computed 7007 ns, measured 7000 ns; \
                 node 7 TxStart proc 0: computed 1007 ns, measured 1000 ns",
            ),
            (
                5,
                "node 5 RecvStart proc 1: computed 6000 ns, measured 6007 ns; \
                 node 6 RecvEnd proc 1: computed 6993 ns, measured 7000 ns; \
                 node 11 Sink proc 65535: computed 6993 ns, measured 7000 ns",
            ),
            (10, "node 10 Unseen proc 1: computed 0 ns, measured 7 ns"),
        ];
        let stock = NetConfig::berkeley_now();
        for (node, named) in cases {
            let mut dag = build(&truncated(), &stock, 2, &mut Vec::new()).expect("builds");
            dag.measured[node] += 7;
            let why = format!("baseline DAG evaluation diverged from the recorded run: {named}");
            match dag.validate() {
                Err(PredictError::Mismatch(got)) => assert_eq!(got, why, "node {node}"),
                other => panic!("node {node}: {other:?}"),
            }
        }
    }
}
