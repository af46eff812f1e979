//! Radb's host memory, as a count that repeats exactly.
//!
//! One test, alone in its binary, so the counting allocator (`common`)
//! sees one benchmark-scale 16-processor Radb run and nothing else.

mod common;

use common::{peak_live_bytes, Counting};
use nowlab_apps::radb::Radb;
use nowlab_apps::radix::RadixParams;
use nowlab_core::{RunSpec, SweepableApp};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same run at `40da148`, the commit before the
/// cursor-walk distribution (measured by this file on a build of it).
const PARENT_PEAK: isize = 42_767_248;
/// About 10 % above the 25 117 976 the cursor walk measures: `keys`, `recv`
/// and the fifteen remote payloads of each of 16 processors, 8 B a key
/// each, plus 0.5 MB of everything else.
const CEILING: isize = 27_800_000;

#[test]
fn a_benchmark_scale_run_stays_under_the_ceiling() {
    let app = Radb::new(RadixParams::benchmark().scaled(8.0));
    let spec = RunSpec::new(16);
    let (out, peak) = peak_live_bytes(|| app.run(&spec));
    assert!(out.completed);
    println!("radb, 16 procs, 1 Mi keys: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
