//! What keeping every message record costs the host, as a count that
//! repeats exactly.
//!
//! One test, alone in its binary, so the counting allocator (`common`)
//! sees one benchmark-scale 16-processor Radix run under
//! `TraceMode::Full` and nothing else — the run whose record store is the
//! `observed` workload's `peak_rss_mb`.

mod common;

use common::{peak_live_bytes, Counting};
use nowlab_apps::radix::{Radix, RadixParams};
use nowlab_core::{RunSpec, SweepableApp, TraceMode};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same run at `6ee7831`, the commit before the
/// record stopped storing its spans (measured by this file on a build of
/// it): 492 960 records of 192 B. The peak is `finish`'s `shrink_to_fit`,
/// where the grown store (524 288 slots) and its exact-size copy are both
/// live — the shim counts a `realloc` as the allocate-copy-free it may be.
const PARENT_PEAK: isize = 212_719_280;
/// About 10 % above the 135 782 368 the 104-byte record measures: the
/// store's last reservation (645 278 slots, 67.1 MB, of which the run
/// writes 51.3 MB — a count of bytes asked for, not of pages touched),
/// its exact-size copy (51.3 MB), and 17.4 MB of everything else (the id
/// index, the side channels, the run itself).
const CEILING: isize = 149_000_000;

#[test]
fn a_fully_traced_benchmark_scale_run_stays_under_the_ceiling() {
    let app = Radix::new(RadixParams::benchmark());
    let spec = RunSpec::new(16).with_trace(TraceMode::Full);
    let (out, peak) = peak_live_bytes(|| app.run(&spec));
    assert!(out.completed);
    let records = out.trace.expect("trace requested").records.len();
    println!("radix, 16 procs, Full trace, {records} records: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
