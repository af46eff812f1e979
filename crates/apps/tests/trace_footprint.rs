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
/// The same run at `81e1361`, each record stored whole as a 104-byte
/// `MsgRecord` (135 782 368 when `f640445` introduced it): a 645 278-slot
/// reservation, its exact-size copy and the rest.
const WHOLE_RECORD_PEAK: isize = 135_766_416;
/// About 10 % above the 82 493 616 the 64-byte packed entry measures: the
/// store's reservation (524 289 entries, 33.6 MB, of which the run writes
/// 31.5 MB — a count of bytes asked for, not of pages touched), its
/// exact-size copy (31.5 MB), and 17.4 MB of everything else (the id
/// index, the side channels, the run itself). The whole-record store is
/// above it.
const CEILING: isize = 90_700_000;

#[test]
fn a_fully_traced_benchmark_scale_run_stays_under_the_ceiling() {
    let app = Radix::new(RadixParams::benchmark());
    let spec = RunSpec::new(16).with_trace(TraceMode::Full);
    let (out, peak) = peak_live_bytes(|| app.run(&spec));
    assert!(out.completed);
    let records = out.trace.expect("trace requested").records.len();
    println!("radix, 16 procs, Full trace, {records} records: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, whole record {WHOLE_RECORD_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
