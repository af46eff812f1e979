//! The counting allocator the footprint tests install, each in its own
//! binary (`#[global_allocator] static ALLOC: Counting = Counting;`), so
//! it sees one benchmark-scale run and nothing else. The figure it yields
//! is the high-water mark of live heap bytes above what was live when the
//! run started; unlike `VmHWM` it does not depend on the allocator's page
//! reuse or on what ran before, so it can gate a regression. The same
//! counter also tells what a run leaves live once its result is dropped,
//! and two more count the allocator calls a run makes and the bytes they
//! ask for (`tests/run_goldens.rs`'s host-work golden).
//! Each binary uses only part of this module.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and their
    /// high-water mark. Per thread, because the simulator runs on the
    /// test's thread alone while libtest's main thread allocates at times
    /// of its own choosing. Signed: a thread may free what another
    /// allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocations this thread has made, and the bytes they asked for.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait; it forwards to System unchanged"
)]
// SAFETY: both methods hand the caller's layout and pointer to `System`
// unchanged, so `System`'s own contract is the one callers rely on. The
// counters are `const`-initialised `Cell`s without destructors, so reading
// them allocates nothing and is valid for the whole life of a thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.get() + layout.size() as isize;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + layout.size() as u64);
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

/// Runs `f` on this thread and returns its result with the peak of live
/// heap bytes above what was live when it started.
pub fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    (out, PEAK.get() - before)
}

/// What a call asked of the heap on this thread.
#[derive(Clone, Copy, Debug)]
pub struct HeapWork {
    /// Allocations made, reallocations included (each is one more).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
    /// Peak of live heap bytes above what was live at the start.
    pub peak: isize,
}

/// Runs `f` on this thread and returns its result with the heap work it
/// did.
pub fn heap_work<T>(f: impl FnOnce() -> T) -> (T, HeapWork) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let (out, peak) = peak_live_bytes(f);
    let work = HeapWork {
        allocs: ALLOCS.get() - allocs,
        bytes: BYTES.get() - bytes,
        peak,
    };
    (out, work)
}

/// Runs `f` on this thread, drops its result, and returns the heap bytes
/// still live above what was live when it started: what `f` leaked.
pub fn residual_bytes<T>(f: impl FnOnce() -> T) -> isize {
    let before = LIVE.get();
    drop(f());
    LIVE.get() - before
}
