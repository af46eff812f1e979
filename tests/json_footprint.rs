//! What reading a report back costs the host, as a count that repeats
//! exactly.
//!
//! One test, alone in its binary, so the counting allocator (the shim the
//! `nowlab-apps` footprint tests share) sees `json::parse` and
//! `render_report` of a benchmark-scale 16-processor Radix metrics report
//! and nothing else. The calls are the ones the `observed` workload makes
//! after each run: the parsed tree stays alive while `render_report`
//! parses the text a second time, so two trees coexist at the peak. The
//! run and the writing of the report are outside the count.

#[path = "../crates/apps/tests/common/mod.rs"]
mod common;

use common::{peak_live_bytes, Counting};
use nowlab::apps::radix::{Radix, RadixParams};
use nowlab::core::{MetricsMode, RunMeta, RunSpec, SweepableApp};
use nowlab::metrics::json::{self, Value};
use nowlab::metrics::render_report;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same calls at `8f1149b`, the last commit whose
/// tree held every number as a 32-byte value and every container in a
/// growable `Vec` (measured by this file on a build of it): 10.9 MB a
/// tree, 9.1 bytes of tree per byte of text.
const PARENT_PEAK: isize = 21_874_950;
/// About 10 % above the 5 905 080 the compact tree measures: every
/// container one exact-size box, and each timeline row and other integer
/// array bare `i64`s, so a tree is 2.5 bytes per byte of text.
const CEILING: isize = 6_500_000;

#[test]
fn reading_a_benchmark_scale_report_stays_under_the_ceiling() {
    let app = Radix::new(RadixParams::benchmark());
    let spec = RunSpec::new(16).with_metrics(MetricsMode::On);
    let out = app.run(&spec);
    assert!(out.completed);
    let meta = RunMeta {
        app: app.name(),
        procs: spec.procs,
        seed: spec.seed,
    };
    let mut buf = Vec::new();
    out.metrics
        .expect("metrics requested")
        .write_json(&meta, &mut buf)
        .expect("in-memory write");
    let text = String::from_utf8(buf).expect("writer emits ASCII");
    let ((tree, rendered), peak) = peak_live_bytes(|| {
        let tree = json::parse(&text).expect("parses");
        let rendered = render_report(&text).expect("renders");
        (tree, rendered)
    });
    let windows = tree
        .get("events_per_window")
        .and_then(Value::as_u64s)
        .map_or(0, |w| w.len());
    assert!(windows >= 1_800, "{windows} windows");
    assert!(!rendered.is_empty());
    println!(
        "radix, 16 procs, {windows} windows, {} text bytes: peak live bytes {peak}",
        text.len()
    );
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
