//! Radb's host memory, as a count that repeats exactly.
//!
//! One test, alone in its binary, so the counting allocator sees one
//! benchmark-scale 16-processor Radb run and nothing else. The figure is
//! the high-water mark of live heap bytes above what was live when the run
//! started; unlike `VmHWM` it does not depend on the allocator's page
//! reuse or on what ran before, so it can gate a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nowlab_apps::radb::Radb;
use nowlab_apps::radix::RadixParams;
use nowlab_core::{RunSpec, SweepableApp};

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and their
    /// high-water mark. Per thread, because the simulator runs on the
    /// test's thread alone while libtest's main thread allocates at times
    /// of its own choosing. Signed: a thread may free what another
    /// allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods hand the caller's layout and pointer to `System`
// unchanged, so `System`'s own contract is the one callers rely on. The
// counters are `const`-initialised `Cell`s without destructors, so reading
// them allocates nothing and is valid for the whole life of a thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.get() + layout.size() as isize;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as isize);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of the same run at `40da148`, the commit before the
/// cursor-walk distribution (measured by this file on a build of it).
const PARENT_PEAK: isize = 42_767_248;
/// About 10 % above the 25 332 528 the cursor walk measures: `keys`, `recv`
/// and the fifteen remote payloads of each of 16 processors, 8 B a key
/// each, plus 0.7 MB of everything else.
const CEILING: isize = 27_800_000;

#[test]
fn a_benchmark_scale_run_stays_under_the_ceiling() {
    let app = Radb::new(RadixParams::benchmark().scaled(8.0));
    let spec = RunSpec::new(16);
    let before = LIVE.get();
    PEAK.set(before);
    let out = app.run(&spec);
    let peak = PEAK.get() - before;
    assert!(out.completed);
    println!("radb, 16 procs, 1 Mi keys: peak live bytes {peak}");
    println!("parent {PARENT_PEAK}, ceiling {CEILING}");
    assert!(
        peak <= CEILING,
        "peak live bytes {peak} above the ceiling {CEILING}"
    );
}
