//! What the happens-before DAG costs the host, as a count that repeats
//! exactly.
//!
//! One test, alone in its binary, so the counting allocator (the shim the
//! `nowlab-apps` footprint tests share) sees `analyze` and one re-pricing
//! pass over a benchmark-scale 16-processor Radix trace and nothing else
//! — the DAG whose size is most of the `predict` workload's `peak_rss_mb`.
//! The traced run itself is outside the count.

#[path = "../crates/apps/tests/common/mod.rs"]
mod common;

use common::{peak_live_bytes, Counting};
use nowlab::apps::radix::{Radix, RadixParams};
use nowlab::core::{Axis, RunSpec, SweepableApp, TraceMode};
use nowlab::predict::analyze;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same two calls at `f640445`, the last commit
/// whose DAG stored an in-edge CSR (measured by this file on a build of
/// it): 3 482 178 nodes, 4 732 308 edges. A count of bytes asked for, not
/// of pages touched: the CSR reserved five edge arrays for two in-edges a
/// node and wrote 1.36 a node.
const PARENT_PEAK: isize = 253_685_138;
/// About 10 % above the 129 248 702 the node table measures. That peak
/// is where the first chain is laid: the table reserved in full (71 MB)
/// beside all sixteen activity lists it is laid from. What outlives
/// `analyze` is less: table and `topo` 85 MB, plus 28 MB of node times
/// during a pass.
const CEILING: isize = 142_000_000;

#[test]
fn analyzing_a_benchmark_scale_trace_stays_under_the_ceiling() {
    let app = Radix::new(RadixParams::benchmark());
    let spec = RunSpec::new(16).with_trace(TraceMode::Full);
    let out = app.run(&spec);
    assert!(out.completed);
    let report = out.trace.as_ref().expect("trace requested");
    let knobs = Axis::Overhead.knobs_for(&spec.net.machine, 50.0);
    let slow = spec.net.with_knobs(knobs.expect("overhead knob"));
    let ((nodes, edges), peak) = peak_live_bytes(|| {
        let analysis = analyze(report, &spec.net, spec.procs, out.runtime).expect("analyzes");
        assert!(analysis.predict_runtimes(&[slow])[0] > out.runtime);
        (analysis.node_count(), analysis.edge_count())
    });
    println!("radix, 16 procs, {nodes} nodes, {edges} edges: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
