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

/// Peak live bytes of the same run at `25a6345`, the commit before a
/// processor stopped holding its source keys and its payloads at once
/// (measured by this file on a build of it).
const PARENT_PEAK: isize = 25_117_976;
/// About 10 % above the 17 706 056 measured since: the receive regions
/// (8 388 608 B, 8 B for each of the 1 Mi keys), the fifteen remote
/// payloads of each of 16 processors (7 864 320 B), one processor's keys
/// (524 288 B: the last to pack holds them beside its payloads) and
/// 0.9 MB of everything else.
const CEILING: isize = 19_500_000;

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
