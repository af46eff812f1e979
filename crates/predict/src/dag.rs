//! Assembly and evaluation of the happens-before message DAG.
//!
//! Nodes are *instants*: the start and end of every busy activity (send
//! overhead, receive overhead, compute segment), the transmit-context
//! pickup and receive-queue visibility of every message, and the exit of
//! every deadline-bounded idle wait. Edges are built from the symbolic
//! costs of [`crate::cost`] and stored compiled — a price class and a
//! measured span — so that a configuration `θ` is one small table of
//! per-class deltas. Evaluating the DAG under `θ` computes each instant's
//! predicted time as the longest weighted path from the virtual source —
//! exactly the discrete-event semantics, with the one deliberate
//! approximation that NIC serialization *order* is frozen at the baseline
//! order (see DESIGN.md §13).

use std::collections::{BTreeMap, BTreeSet};

use nowlab_am::NetConfig;
use nowlab_sim::SimDelta;
use nowlab_trace::TraceReport;

use crate::cost::{Classes, Cost, BUCKETS};
use crate::PredictError;

const NO_PROC: u16 = u16::MAX;
const NO_MSG: u32 = u32::MAX;

/// What instant a node stands for (read only through `Debug` formatting
/// in validation errors).
#[derive(Clone, Copy, Debug)]
enum NodeKind {
    /// Virtual time-zero root.
    Source,
    /// Virtual end-of-run join.
    Sink,
    /// A message picked up by the source transmit context.
    TxStart,
    /// A message visible in the destination receive queue.
    Visible,
    /// A busy activity began.
    ActStart,
    /// A busy activity ended.
    ActEnd,
    /// A deadline-bounded idle wait exited.
    IdleExit,
}

/// Critical-path attribution for one configuration.
#[derive(Clone, Debug)]
pub struct PathBreakdown {
    /// Predicted measured-region span (the buckets sum to this exactly).
    pub total: SimDelta,
    /// Per-bucket time on the critical path, indexed by [`Bucket::index`].
    pub buckets: [SimDelta; BUCKETS],
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
    /// Per-bucket time, indexed by [`Bucket::index`].
    pub buckets: [SimDelta; BUCKETS],
    /// Row total.
    pub total: SimDelta,
}

/// The compiled DAG: nodes and in-edges as flat parallel arrays. Node ids
/// run source, every processor's program-order chain, the two NIC nodes
/// of every message, sink.
pub(crate) struct Dag {
    /// Measured baseline timestamp of each node, ns.
    measured: Vec<u64>,
    /// Owning processor of each node (`NO_PROC` for source/sink).
    proc: Vec<u16>,
    kind: Vec<NodeKind>,
    /// Node `n`'s in-edges are `head_start[n]..head_start[n+1]` of the
    /// four edge arrays, in insertion order (`breakdown` takes the first
    /// tight one, so that order is part of the output).
    head_start: Vec<u32>,
    tail: Vec<u32>,
    /// Price class and measured span: the edge costs
    /// `w.saturating_add_signed(Δ[class])` under any configuration.
    class: Vec<u32>,
    w: Vec<u64>,
    /// Record index of the message the edge belongs to (`NO_MSG` if none).
    msg: Vec<u32>,
    classes: Classes,
    /// Every edge's cost as its build site wrote it, kept for the
    /// differential test against the compiled `(class, w)` form.
    #[cfg(test)]
    costs: Vec<Cost>,
    topo: Vec<u32>,
    begin_anchor: u32,
    end_anchor: u32,
    /// Per-processor `(at_ns, label)` phase marks, sorted by time.
    phases: Vec<Vec<(u64, String)>>,
    /// Record index → trace id (for critical-message reporting).
    msg_ids: Vec<u64>,
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
    // Node and edge ids are `u32`. A message gives at most six instants, a
    // compute segment two and an idle wait one; every node has at most two
    // in-edges, the sink three per processor.
    let max_nodes =
        2 + 6 * n_rec as u64 + 2 * report.computes.len() as u64 + report.idles.len() as u64;
    if u32::try_from(2 * max_nodes + 3 * procs as u64).is_err() {
        return Err(PredictError::Unsupported(format!(
            "{n_rec} messages; the DAG addresses at most 2^32 nodes and edges"
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
        if has_vis(r) {
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
    let max_edges = 2 * n_nodes + 3 * procs;
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
        proc: Vec::with_capacity(n_nodes),
        kind: Vec::with_capacity(n_nodes),
        head_start: Vec::with_capacity(n_nodes + 1),
        tail: Vec::with_capacity(max_edges),
        class: Vec::with_capacity(max_edges),
        w: Vec::with_capacity(max_edges),
        msg: Vec::with_capacity(max_edges),
        classes: Classes::new(cfg),
        #[cfg(test)]
        costs: Vec::new(),
        topo: Vec::new(),
        begin_anchor: 0,
        end_anchor: 0,
        phases: vec![Vec::new(); procs],
        msg_ids: records.iter().map(|r| r.id).collect(),
    };
    dag.node(0, NO_PROC, NodeKind::Source);

    // Program-order chains. `osend_end[i]` is the node at which message
    // i's send overhead completed (= its injection instant).
    let mut osend_end: Vec<u32> = vec![0; n_rec];
    let mut chains: Vec<std::ops::Range<u32>> = Vec::with_capacity(procs);
    let mut chain_tail: Vec<u32> = Vec::with_capacity(procs);
    for p in 0..procs {
        let first = dag.measured.len() as u32;
        let mut cursor = 0u32; // source
        let mut pending = acts[p].iter().peekable();
        // Chains every activity that began before `limit`.
        let mut run_until = |limit: u64, dag: &mut Dag, cursor: &mut u32| {
            while let Some(a) = pending.next_if(|a| a.start < limit) {
                let s = dag.node(a.start, p as u16, NodeKind::ActStart);
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
                            let r = &records[ri as usize];
                            let span = r.done.saturating_since(r.pop);
                            dag.edge(vis_node(ri), Cost::ORecv(span), ri);
                        }
                        osend_end[a.msg as usize] = s + 1;
                        Cost::OSend(dur)
                    }
                    ActKind::ORecv { blocking } => {
                        if blocking {
                            // The baseline waited for this message: its
                            // pop depends on visibility, so wire latency
                            // reaches the host chain here.
                            dag.edge(vis_node(a.msg), Cost::Zero, a.msg);
                        }
                        Cost::ORecv(dur)
                    }
                    ActKind::Compute => Cost::Compute(dur),
                };
                *cursor = dag.node(a.end, p as u16, NodeKind::ActEnd);
                dag.edge(s, cost, a.msg);
            }
        };
        for seg in &idles[p] {
            run_until(seg.enter.as_nanos(), &mut dag, &mut cursor);
            // The wait's lower bound hangs off the processor's position at
            // entry; receive overheads serviced inside the wait chain
            // through `cursor` as usual.
            let idle_base = cursor;
            run_until(seg.exit.as_nanos(), &mut dag, &mut cursor);
            let ex = dag.node(seg.exit.as_nanos(), p as u16, NodeKind::IdleExit);
            let bound = Cost::Idle(seg.deadline.saturating_since(seg.enter));
            dag.edge(idle_base, bound, NO_MSG);
            dag.edge(cursor, Cost::Zero, NO_MSG);
            cursor = ex;
        }
        run_until(u64::MAX, &mut dag, &mut cursor);
        chains.push(first..dag.measured.len() as u32);
        chain_tail.push(cursor);
    }
    drop(acts);
    debug_assert_eq!(dag.measured.len() as u32, nic_base);

    // NIC nodes. Injection hands the message to the transmit context,
    // which the previous message of the same source may still hold;
    // visibility follows transit and the destination's previous delivery.
    for (i, r) in records.iter().enumerate() {
        let i = i as u32;
        let tx = dag.node(r.tx_start.as_nanos(), r.src, NodeKind::TxStart);
        dag.edge(osend_end[i as usize], Cost::Zero, i);
        let prev = tx_prev[i as usize];
        if prev != NO_MSG {
            let bytes = records[prev as usize].bytes;
            dag.edge(tx_node(prev), Cost::TxFree { bytes }, i);
        }
        dag.node(r.visible.as_nanos(), r.dst, NodeKind::Visible);
        if has_vis(r) {
            dag.edge(tx, Cost::Transit { bytes: r.bytes }, i);
        }
        let prev = vis_prev[i as usize];
        if prev != NO_MSG {
            dag.edge(vis_node(prev), Cost::RxChain, i);
        }
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
    let sink = dag.node(sink_measured, NO_PROC, NodeKind::Sink);
    for t in joined {
        dag.edge(t, Cost::Zero, NO_MSG);
    }
    dag.head_start.push(dag.tail.len() as u32);

    // Measured-region anchors: the program-order node a processor sat at
    // when the region mark was taken (chain timestamps never decrease).
    let anchor = |p: usize, t: u64| -> u32 {
        let chain = chains[p].clone();
        let times = &dag.measured[chain.start as usize..chain.end as usize];
        match times.partition_point(|&at| at <= t) {
            0 => 0,
            idx => chain.start + idx as u32 - 1,
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

    dag.topo = dag.topological_order()?;

    for m in report.phases.iter().filter(|m| m.proc < procs) {
        dag.phases[m.proc].push((m.at.as_nanos(), m.label.as_str().to_string()));
    }
    for list in &mut dag.phases {
        list.sort();
    }
    Ok(dag)
}

impl Dag {
    /// Appends a node; the `edge` calls up to the next `node` are its
    /// in-edges, which is what lays the edge arrays out in CSR order.
    fn node(&mut self, measured: u64, proc: u16, kind: NodeKind) -> u32 {
        let id = self.measured.len() as u32;
        self.head_start.push(self.tail.len() as u32);
        self.measured.push(measured);
        self.proc.push(proc);
        self.kind.push(kind);
        id
    }

    /// Appends an in-edge of the node appended last.
    fn edge(&mut self, tail: u32, cost: Cost, msg: u32) {
        let (class, w) = self.classes.intern(cost);
        #[cfg(test)]
        self.costs.push(cost);
        self.tail.push(tail);
        self.class.push(class);
        self.w.push(w);
        self.msg.push(msg);
    }

    fn in_edges(&self, node: u32) -> std::ops::Range<usize> {
        self.head_start[node as usize] as usize..self.head_start[node as usize + 1] as usize
    }

    /// Depth-first post-order over in-edges, roots in node-id order: every
    /// node after all its predecessors, with chains mostly contiguous.
    /// Longest-path times do not depend on which valid order is used.
    /// Doubles as the acyclicity proof.
    fn topological_order(&self) -> Result<Vec<u32>, PredictError> {
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let n = self.measured.len();
        let mut state = vec![0u8; n];
        let mut topo = Vec::with_capacity(n);
        // (node, next in-edge to follow)
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if state[root as usize] != 0 {
                continue;
            }
            state[root as usize] = OPEN;
            stack.push((root, self.in_edges(root).start));
            while let Some((node, next)) = stack.last_mut() {
                if *next == self.in_edges(*node).end {
                    state[*node as usize] = DONE;
                    topo.push(*node);
                    stack.pop();
                    continue;
                }
                let tail = self.tail[*next];
                *next += 1;
                match state[tail as usize] {
                    0 => {
                        state[tail as usize] = OPEN;
                        stack.push((tail, self.in_edges(tail).start));
                    }
                    OPEN => {
                        let i = tail as usize;
                        return Err(PredictError::Cyclic(format!(
                            "happens-before graph has a cycle through node {} ({:?} at {} ns)",
                            i, self.kind[i], self.measured[i]
                        )));
                    }
                    _ => {}
                }
            }
        }
        Ok(topo)
    }

    pub(crate) fn node_count(&self) -> usize {
        self.measured.len()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.tail.len()
    }

    /// The configuration of the recorded run.
    pub(crate) fn base(&self) -> &NetConfig {
        self.classes.base()
    }

    /// Longest-path time of every node under `cfg`, ns, indexed by node,
    /// written into `t` (every element is overwritten).
    pub(crate) fn times_into(&self, cfg: &NetConfig, t: &mut Vec<u64>) {
        let delta = self.classes.table(cfg);
        if t.len() != self.measured.len() {
            *t = vec![0; self.measured.len()];
        }
        for &nid in &self.topo {
            let r = self.in_edges(nid);
            let edges = self.tail[r.clone()]
                .iter()
                .zip(&self.class[r.clone()])
                .zip(&self.w[r]);
            let mut best = 0u64;
            for ((&tail, &class), &w) in edges {
                best = best.max(t[tail as usize] + w.saturating_add_signed(delta[class as usize]));
            }
            t[nid as usize] = best;
        }
    }

    /// Predicted measured-region span under `cfg` given precomputed times.
    pub(crate) fn span(&self, times: &[u64]) -> SimDelta {
        SimDelta::from_nanos(
            times[self.end_anchor as usize].saturating_sub(times[self.begin_anchor as usize]),
        )
    }

    /// Checks that baseline evaluation reproduces every measured instant
    /// exactly (integer nanoseconds).
    pub(crate) fn validate(&self, times: &[u64]) -> Result<(), PredictError> {
        let bad: Vec<String> = (0..self.measured.len())
            .filter(|&i| times[i] != self.measured[i])
            .take(5)
            .map(|i| {
                format!(
                    "node {} {:?} proc {}: computed {} ns, measured {} ns",
                    i, self.kind[i], self.proc[i], times[i], self.measured[i]
                )
            })
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(PredictError::Mismatch(format!(
                "baseline DAG evaluation diverged from the recorded run: {}",
                bad.join("; ")
            )))
        }
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
        let mut evaluated = Vec::new();
        let times = if cfg == self.base() {
            // `validate` has shown baseline evaluation to land on the
            // recorded timestamps, so they are the baseline node times.
            &self.measured
        } else {
            self.times_into(cfg, &mut evaluated);
            &evaluated
        };
        let delta = self.classes.table(cfg);
        let span = self.span(times);
        let mut remaining = span.as_nanos();
        let mut buckets = [0u64; BUCKETS];
        let mut per_phase: BTreeMap<String, [u64; BUCKETS]> = BTreeMap::new();
        let mut msgs: BTreeSet<u64> = BTreeSet::new();
        let mut edges_on_path = 0usize;
        let mut node = self.end_anchor;
        while node != 0 && remaining > 0 {
            let t = times[node as usize];
            // At least one in-edge is tight (t is the max over them);
            // take the first in insertion order for determinism.
            let Some(k) = self.in_edges(node).find(|&k| {
                let price = self.w[k].saturating_add_signed(delta[self.class[k] as usize]);
                times[self.tail[k] as usize] + price == t
            }) else {
                break; // no in-edges: a root inside the region window
            };
            edges_on_path += 1;
            let phase = self
                .phase_of(self.proc[node as usize], self.measured[node as usize])
                .to_string();
            let cost = self.classes.cost(self.class[k], self.w[k]);
            let mut took_any = false;
            for (bucket, part) in cost.parts(cfg, self.base()) {
                let take = part.as_nanos().min(remaining);
                if take > 0 {
                    buckets[bucket.index()] += take;
                    per_phase.entry(phase.clone()).or_default()[bucket.index()] += take;
                    remaining -= take;
                    took_any = true;
                }
            }
            if self.msg[k] != NO_MSG && took_any {
                msgs.insert(self.msg_ids[self.msg[k] as usize]);
            }
            node = self.tail[k];
        }
        let phases = per_phase
            .into_iter()
            .map(|(label, b)| PhaseRow {
                label,
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
    use crate::cost::Bucket;
    use nowlab_am::{Knobs, LatencyMode};
    use nowlab_apps::{suite_scaled, SuiteScale};
    use nowlab_core::{Axis, RunSpec, TraceMode};

    /// Sanity: bucket labels stay in sync with the accumulation arrays.
    #[test]
    fn bucket_indices_are_dense_and_stable() {
        for (i, b) in Bucket::all().iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        let names: Vec<&str> = Bucket::all().iter().map(|b| b.as_str()).collect();
        assert_eq!(
            names,
            ["o_send", "o_recv", "compute", "idle", "tx_gap", "dma", "wire", "rx_gap"]
        );
    }

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

    /// Builds the DAG of `report` against `base` and checks, for every
    /// edge, that the compiled price equals the symbolic one at `base`, at
    /// the stock machine and at every paper grid point of all four axes
    /// under both latency mechanisms. Returns how often an overhead edge's
    /// price saturated at zero.
    fn saturated_after_checking_every_edge(report: &TraceReport, base: &NetConfig) -> usize {
        let dag = build(report, base, 4, &mut Vec::new()).unwrap_or_else(|e| panic!("{e}"));
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
        let mut saturated = 0;
        for cfg in &cfgs {
            let delta = dag.classes.table(cfg);
            for (k, cost) in dag.costs.iter().enumerate() {
                let compiled = dag.w[k].saturating_add_signed(delta[dag.class[k] as usize]);
                let symbolic = cost.price(cfg, base).as_nanos();
                assert_eq!(compiled, symbolic, "{cost:?} under {:?}", cfg.knobs);
                saturated += usize::from(dag.w[k] > 0 && compiled == 0);
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
        // Bulk messages of three sizes, and a baseline 10 us of overhead
        // slower than the run really was: re-pricing at the stock machine
        // then takes more off the measured spans than they hold.
        let mut synthetic = traced("Radix");
        let sizes = [0, 100, 5_000, 9_000].into_iter().cycle();
        for (r, bytes) in synthetic.records.iter_mut().zip(sizes) {
            r.bytes = bytes;
        }
        let slow = stock.with_knobs(Knobs::with_overhead(SimDelta::from_micros(10.0)));
        assert!(saturated_after_checking_every_edge(&synthetic, &slow) > 0);
    }
}
