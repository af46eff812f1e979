//! What the happens-before DAG costs the host, as a count that repeats
//! exactly.
//!
//! One test, alone in its binary, so the counting allocator (the shim the
//! `nowlab-apps` footprint tests share) sees `analyze` and the re-pricing
//! of the `predict` workload's grid over a benchmark-scale 16-processor
//! Radix trace and nothing else — the DAG whose size is most of that
//! workload's `peak_rss_mb`. The traced run itself is outside the count.

#[path = "../crates/apps/tests/common/mod.rs"]
mod common;

use common::{peak_live_bytes, Counting};
use nowlab::apps::radix::{Radix, RadixParams};
use nowlab::core::{Axis, RunSpec, SweepableApp, TraceMode};
use nowlab::predict::analyze;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same calls at `06a59b6`, the last commit that
/// evaluated a configuration per pass over a node-times buffer (measured
/// by this file on a build of it): 3 482 178 nodes, 4 732 308 edges. A
/// count of bytes asked for, not of pages touched. Its peak was where the
/// first chain is laid, not in a pass: the node table reserved in full
/// beside all sixteen activity lists.
const PARENT_PEAK: isize = 129_248_702;
/// About 10 % above the 108 873 102 measured since `build` merges the
/// orders the run produced instead of sorting them (133 192 390 while it
/// sorted): no transmit-order lists and no sort scratch, and a record is
/// 24 bytes plus a 4-byte `tx_prev` column, not 32 bytes plus a second
/// `tx_prev` column while building. The register file had cost 3.9 MB:
/// the per-node reader counts that become the register table
/// (13.9 MB) are reserved where the first chain is laid, where the
/// per-chain-node record column (10.0 MB) was. Gone from re-pricing is
/// the 27.9 MB node-times buffer; the fifteen points are one sweep over a
/// few kilobytes of registers.
const CEILING: isize = 120_000_000;

#[test]
fn analyzing_a_benchmark_scale_trace_stays_under_the_ceiling() {
    let app = Radix::new(RadixParams::benchmark());
    let spec = RunSpec::new(16).with_trace(TraceMode::Full);
    let out = app.run(&spec);
    assert!(out.completed);
    let report = out.trace.as_ref().expect("trace requested");
    // The overhead and latency grids, baselines included, as `predict`
    // re-prices them: fifteen points and two read off.
    let grid: Vec<_> = [Axis::Overhead, Axis::Latency]
        .into_iter()
        .flat_map(|axis| {
            axis.paper_values()
                .into_iter()
                .filter_map(move |v| axis.knobs_for(&spec.net.machine, v))
        })
        .map(|knobs| spec.net.with_knobs(knobs))
        .collect();
    let repriced = grid.iter().filter(|&cfg| *cfg != spec.net).count();
    let ((nodes, edges), peak) = peak_live_bytes(|| {
        let analysis = analyze(report, &spec.net, spec.procs, out.runtime).expect("analyzes");
        let runtimes = analysis.predict_runtimes(&grid);
        assert!(runtimes.iter().all(|&r| r >= out.runtime));
        assert!(runtimes.iter().any(|&r| r > out.runtime));
        (analysis.node_count(), analysis.edge_count())
    });
    assert_eq!(repriced, 15);
    println!("radix, 16 procs, {nodes} nodes, {edges} edges, {repriced} points re-priced: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
