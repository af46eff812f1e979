//! Lock-free ready list: the executor's wake log.
//!
//! `std::task::Waker` must be `Send + Sync`, so the ready queue it pushes
//! into has to be a `Sync` type even though this executor is strictly
//! single-threaded. Through PR 7 that was an `Arc<Mutex<VecDeque<TaskId>>>`
//! locked on every wake and every pop — an uncontended-but-real lock
//! round trip per poll of a simulation that never leaves one thread.
//!
//! This module replaces it with a wake *log*:
//!
//! * [`ReadyQueue`] is a fixed array of atomic slots plus a `fetch_add`
//!   cursor. A push claims the next index and stores its task id; the
//!   run loop drains the whole log into a plain `Vec` with one atomic
//!   swap. Wakes beyond the slot array (more distinct tasks woken in one
//!   poll round than the array holds) spill into a `Mutex<Vec>` — cold by
//!   construction, since the array is sized from `Sim::with_capacity`.
//! * [`TaskWaker`] carries one ready *bit* per task. A wake enqueues the
//!   task only if the bit was clear, so a task appears at most once per
//!   drain; the executor clears the bit immediately before polling, so a
//!   wake arriving *during* the poll re-enqueues it. Because every entry
//!   was appended by a `fetch_add` in program order, drained order is
//!   exactly the old strict-FIFO order.
//!
//! Determinism: single-threaded execution makes every atomic here a plain
//! load/store at runtime; the types exist only to satisfy the `Waker`
//! contract. FIFO order and the at-most-once-queued invariant are what
//! the byte-identical replay suites exercise.
//!
//! All atomics use `Relaxed` ordering, and the cursor/ready-bit updates
//! are split `load` + `store` pairs rather than read-modify-write
//! instructions: there is exactly one thread, so there is nothing to
//! synchronize *with*, and on x86 a `lock xchg`/`lock xadd` in the
//! per-wake path costs tens of cycles that buy nothing. The atomic
//! *types* exist only to satisfy the `Send + Sync` bound on `Waker`.
//!
//! **Caveat (by design):** because the updates are not atomic RMWs, waking
//! a task from a *different* OS thread than the one running [`Sim::run`]
//! can lose or duplicate log entries. The executor has never supported
//! cross-thread wakes — `Sim` itself is `!Send` — and the kernel count
//! goldens (`tests/kernel_counts.rs`, the benchmark's `sim.*` probes) plus
//! the byte-identical replay suites pin the single-threaded behavior.
//!
//! [`Sim::run`]: crate::Sim::run
#![expect(
    clippy::disallowed_types,
    reason = "the wake log's atomic slots/cursor and per-task AtomicBool ready bit exist only because std::task::Waker must be Send+Sync; the executor is strictly single-threaded (Rc-internal), every ordering is Relaxed, and the Mutex spill list is cold by construction"
)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Wake;

pub(crate) type TaskId = usize;

/// Single-producer-role wake log (see module docs).
pub(crate) struct ReadyQueue {
    /// Fixed slot array; index `i` holds the `i`-th task id woken since
    /// the last drain.
    slots: Box<[AtomicUsize]>,
    /// Next free slot index. May run past `slots.len()`; the excess went
    /// to `overflow` in the same order.
    cursor: AtomicUsize,
    /// Spill list for wake bursts larger than the slot array.
    overflow: Mutex<Vec<TaskId>>,
}

impl ReadyQueue {
    /// A queue sized so that `tasks` distinct tasks can be woken between
    /// drains without touching the spill lock.
    pub(crate) fn with_capacity(tasks: usize) -> Arc<Self> {
        let n = tasks.max(64).next_power_of_two();
        Arc::new(ReadyQueue {
            slots: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            cursor: AtomicUsize::new(0),
            overflow: Mutex::new(Vec::new()),
        })
    }

    /// Appends a task id to the log.
    pub(crate) fn push(&self, id: TaskId) {
        // Split load/store instead of `fetch_add`: single-threaded by
        // contract (see module docs).
        let i = self.cursor.load(Ordering::Relaxed);
        self.cursor.store(i + 1, Ordering::Relaxed);
        match self.slots.get(i) {
            Some(slot) => slot.store(id, Ordering::Relaxed),
            None => self
                .overflow
                .lock()
                .expect("sim ready overflow poisoned")
                .push(id),
        }
    }

    /// True when no wake has been logged since the last drain.
    pub(crate) fn is_empty(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) == 0
    }

    /// Moves the whole log into `out` (appending), oldest wake first,
    /// and resets the log to empty.
    pub(crate) fn drain_into(&self, out: &mut Vec<TaskId>) {
        // The run loop calls this once per fired event and once per poll
        // round, and most calls find the log empty — so the empty check
        // must be a plain load, not an unconditional `swap` RMW.
        let n = self.cursor.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.cursor.store(0, Ordering::Relaxed);
        let in_slots = n.min(self.slots.len());
        out.extend(
            self.slots[..in_slots]
                .iter()
                .map(|s| s.load(Ordering::Relaxed)),
        );
        if n > self.slots.len() {
            let mut spill = self.overflow.lock().expect("sim ready overflow poisoned");
            out.append(&mut spill);
        }
    }
}

/// Per-task waker shim: task id, ready bit, and the shared wake log.
///
/// Created once at spawn; `Waker::from(Arc<TaskWaker>)` is cached in the
/// task slot so polls reuse it allocation-free.
pub(crate) struct TaskWaker {
    id: TaskId,
    /// True while the task sits in the wake log (or its drained copy)
    /// awaiting a poll. Gates [`ReadyQueue::push`] so a task is enqueued
    /// at most once per poll round.
    queued: AtomicBool,
    queue: Arc<ReadyQueue>,
}

impl TaskWaker {
    pub(crate) fn new(id: TaskId, queue: Arc<ReadyQueue>) -> Arc<Self> {
        Arc::new(TaskWaker {
            id,
            queued: AtomicBool::new(false),
            queue,
        })
    }

    /// Marks the task queued and appends it to the wake log, unless it
    /// is already queued.
    pub(crate) fn enqueue(&self) {
        // Split load/store instead of `swap` — single-threaded by
        // contract (see module docs).
        if !self.queued.load(Ordering::Relaxed) {
            self.queued.store(true, Ordering::Relaxed);
            self.queue.push(self.id);
        }
    }

    /// Clears the ready bit. Called by the executor immediately before
    /// polling, so wakes arriving during the poll re-enqueue the task.
    pub(crate) fn clear_queued(&self) {
        self.queued.store(false, Ordering::Relaxed);
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.enqueue();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.enqueue();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_preserves_fifo_order() {
        let q = ReadyQueue::with_capacity(4);
        for id in [3, 1, 4, 1, 5] {
            q.push(id);
        }
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![3, 1, 4, 1, 5]);
        out.clear();
        q.drain_into(&mut out);
        assert!(out.is_empty(), "drain resets the log");
    }

    #[test]
    fn bursts_beyond_the_slot_array_spill_in_order() {
        let q = ReadyQueue::with_capacity(0); // 64 slots
        for id in 0..200 {
            q.push(id);
        }
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn ready_bit_deduplicates_wakes() {
        let q = ReadyQueue::with_capacity(4);
        let w = TaskWaker::new(7, Arc::clone(&q));
        w.enqueue();
        w.enqueue();
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![7], "second wake while queued is a no-op");
        w.clear_queued();
        w.enqueue();
        out.clear();
        q.drain_into(&mut out);
        assert_eq!(out, vec![7], "after the bit clears, wakes enqueue again");
    }
}
