//! Hierarchical timer wheel: the executor's time-ordered event queue.
//!
//! Replaces the `BinaryHeap<Reverse<TimerKey>>` the kernel used through
//! PR 7. The heap paid `O(log n)` sift cost *per event* on both push and
//! pop, and popping same-instant ties one at a time forced a
//! borrow→pop→release round trip per event. The wheel makes the common
//! case — a timer landing within a few hundred microseconds of now —
//! an `O(1)` push into a bucket, and extracts *all* timers at one
//! instant as a single batch.
//!
//! # Structure
//!
//! * **Ring.** `num_buckets` (a power of two) buckets, each spanning
//!   `2^shift` nanoseconds of virtual time. A timer at time `t` lives in
//!   bucket number `t >> shift`; the ring slot is the bucket number
//!   masked by `num_buckets - 1`. A slot is never shared by two live
//!   bucket numbers: an entry is only accepted into the ring while its
//!   bucket number lies within the horizon `[cursor, cursor +
//!   num_buckets)`, and the cursor only advances past fully drained
//!   buckets.
//! * **Occupancy bitmap.** One bit per ring slot, so "find the next
//!   non-empty bucket" is a handful of word scans instead of walking
//!   `Vec` headers.
//! * **Overflow.** Timers beyond the horizon (retransmit backoffs,
//!   long compute spans, far `sleep_until`s) go to a conventional
//!   `(time, seq)`-ordered min-heap and are *promoted* into the ring as
//!   the cursor approaches them.
//!
//! # Determinism
//!
//! The kernel's contract is that events fire in strictly ascending
//! `(time, seq)` lexicographic order — `seq` being the global
//! registration sequence number. The wheel preserves it exactly:
//!
//! * Buckets partition time, so draining the earliest non-empty bucket
//!   first yields globally ascending times.
//! * Within a bucket, a batch is every entry carrying the minimal time;
//!   the batch is then sorted by `seq`. Entries pushed directly arrive
//!   already in `seq` order, but entries *promoted* from the overflow
//!   heap can interleave with later direct pushes at the same instant,
//!   so the (almost always no-op) sort is what makes wheel order
//!   bit-identical to the old heap order. `crates/sim/tests/
//!   wheel_vs_heap.rs` replays randomized workloads against a reference
//!   heap to hold this line.
//!
//! # The entry carries the event
//!
//! A [`TimerEntry`] is `(time, seq, word)`, 24 bytes. `word` packs what
//! fires ([`Fire`]): a hook id and its token, a task id, or — for the
//! payloads that do not fit a word (boxed closures, foreign `Waker`s)
//! — a slot of the executor's action slab (see `executor.rs`). The
//! two high-rate event kinds of a cluster run, hook-dispatched message
//! deliveries and task sleeps, therefore go through the wheel and
//! nothing else. The bucket `Vec`s are most of a run's heap, which is
//! why the word is packed instead of widening the entry to 32 bytes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ready::TaskId;
use crate::time::SimTime;

/// Log2 of the virtual-time span of one ring bucket, in nanoseconds.
///
/// Geometry is driven by the LogGP sweeps this kernel exists to run:
/// latency and overhead parameters range up to ~100 µs, and a timer that
/// misses the ring horizon is handled *twice* (overflow-heap push, then
/// promotion into the ring) — strictly more work than the old binary
/// heap did. 256 ns buckets with a ≥1024-bucket ring give a ≥262 µs
/// horizon, so delivery, gap-pacing, overhead, and sweep-scale latency
/// timers all take the O(1) ring path; only genuinely far timers
/// (retransmit backstops, heartbeats) pay for the heap. Distinct
/// instants sharing a 256 ns bucket are separated at extraction time, so
/// the span affects constant factors, never ordering.
const BUCKET_SHIFT: u32 = 8;

/// Ring size bounds: at least 1024 buckets (262 µs horizon), at most
/// 8192 (2.1 ms) — past that, promotion from the overflow heap is
/// cheaper than the larger bitmap scans.
const MIN_BUCKETS: usize = 1024;
const MAX_BUCKETS: usize = 8192;

/// One pending timer: when, which registration, and what fires (see
/// [`Fire`]).
///
/// Ordering is lexicographic over `(time, seq)` — the deterministic
/// tiebreaker the whole apparatus depends on. `seq` is strictly
/// increasing across registrations, so `word` (last field) is never
/// reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TimerEntry {
    pub time: SimTime,
    pub seq: u64,
    pub word: u64,
}

/// What a [`TimerEntry`] fires, as packed into its `word`: the top byte
/// is the kind (`0` slab, `1` task, `2 + h` hook `h`), the low 56 bits
/// the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fire {
    /// The action parked in this slot of the executor's slab.
    Slab(u32),
    /// Poll this task.
    Task(TaskId),
    /// Dispatch `token` through registered hook number `hook`.
    Hook { hook: u32, token: u64 },
}

const PAYLOAD_BITS: u32 = 56;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;
const KIND_TASK: u64 = 1;
const KIND_HOOK0: u64 = 2;

impl Fire {
    /// The packed word, or `None` when the payload is too wide for one
    /// (a token ≥ 2⁵⁶, a hook id past 253): the caller parks the action
    /// in the slab and packs `Fire::Slab` instead, which always fits.
    pub(crate) fn pack(self) -> Option<u64> {
        let (kind, payload) = match self {
            Fire::Slab(slot) => (0, u64::from(slot)),
            Fire::Task(id) => (KIND_TASK, id as u64),
            Fire::Hook { hook, token } => (KIND_HOOK0 + u64::from(hook), token),
        };
        (kind <= u64::MAX >> PAYLOAD_BITS && payload <= PAYLOAD_MASK)
            .then_some(kind << PAYLOAD_BITS | payload)
    }

    /// `Fire::Slab(slot).pack()`, which cannot fail: kind 0, so the word
    /// is the slot number.
    pub(crate) fn slab_word(slot: u32) -> u64 {
        u64::from(slot)
    }

    pub(crate) fn unpack(word: u64) -> Fire {
        let payload = word & PAYLOAD_MASK;
        match word >> PAYLOAD_BITS {
            0 => Fire::Slab(payload as u32),
            KIND_TASK => Fire::Task(payload as TaskId),
            kind => Fire::Hook {
                hook: (kind - KIND_HOOK0) as u32,
                token: payload,
            },
        }
    }
}

/// Capacity and occupancy probe for the wheel (see
/// [`crate::Sim::scheduler_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Ring buckets allocated. Fixed at construction; never grows.
    pub ring_buckets: usize,
    /// Sum of the per-bucket `Vec` capacities (allocation churn probe:
    /// steady-state workloads stop growing this after warm-up).
    pub bucket_capacity: usize,
    /// Entries currently parked in the overflow heap (far timers).
    pub overflow_len: usize,
    /// Total entries tracked (ring + overflow).
    pub entries: usize,
}

pub(crate) struct TimerWheel {
    /// The ring. Allocated once; the bucket *array* never grows (the
    /// per-bucket `Vec`s grow amortized and keep their capacity).
    buckets: Box<[Vec<TimerEntry>]>,
    /// One bit per ring slot: set iff the bucket is non-empty.
    occupied: Box<[u64]>,
    /// Ring index mask (`buckets.len() - 1`).
    mask: u64,
    /// Lowest bucket number that may still hold ring entries. All ring
    /// entries have bucket numbers in `[cursor, cursor + buckets.len())`.
    cursor: u64,
    /// Far timers, beyond the ring horizon at push time.
    overflow: BinaryHeap<Reverse<TimerEntry>>,
    /// Total entries (ring + overflow).
    len: usize,
}

impl TimerWheel {
    /// A wheel pre-sized for roughly `timers` concurrently pending
    /// timers (the executor's ≈4-per-task heuristic feeds this from
    /// `Sim::with_capacity`).
    pub(crate) fn with_capacity(timers: usize) -> Self {
        let n = timers.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        TimerWheel {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; n / 64].into_boxed_slice(),
            mask: (n - 1) as u64,
            cursor: 0,
            overflow: BinaryHeap::with_capacity(timers),
            len: 0,
        }
    }

    /// Total entries tracked.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Capacity/occupancy snapshot.
    pub(crate) fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            ring_buckets: self.buckets.len(),
            bucket_capacity: self.buckets.iter().map(Vec::capacity).sum(),
            overflow_len: self.overflow.len(),
            entries: self.len,
        }
    }

    /// Inserts an entry. `entry.time` must not precede the instant of
    /// the most recently extracted batch (the executor clamps to `now`).
    pub(crate) fn push(&mut self, entry: TimerEntry) {
        self.len += 1;
        let bn = entry.time.as_nanos() >> BUCKET_SHIFT;
        debug_assert!(bn >= self.cursor, "timer wheel pushed into the past");
        if bn >= self.cursor + self.buckets.len() as u64 {
            self.overflow.push(Reverse(entry));
        } else {
            let idx = (bn & self.mask) as usize;
            self.buckets[idx].push(entry);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// True when no entries remain (ring or overflow).
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending time across ring and overflow, without draining
    /// anything. A full scan — used only on cold paths (reinsertion after
    /// an early stop); the hot loop tracks a *lower bound* instead, which
    /// the executor re-validates after extraction.
    pub(crate) fn peek_next(&self) -> Option<SimTime> {
        let ring = self
            .first_occupied()
            .map(|idx| bucket_min(&self.buckets[idx]));
        let far = self.overflow.peek().map(|Reverse(e)| e.time);
        match (ring, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Extracts every entry at the earliest pending instant, in `seq`
    /// order, into `out`. Returns that instant, or `None` if the wheel
    /// is empty. One call replaces a borrow→pop→release round trip per
    /// event — the batch-drain move of the raw-speed campaign.
    ///
    /// Invariant used here: [`Self::promote`] runs after every cursor
    /// advance, so between calls every overflow entry's bucket lies at or
    /// beyond `cursor + num_buckets` — strictly after every ring bucket.
    /// The ring's first occupied bucket therefore holds the global
    /// minimum whenever the ring is non-empty, and the overflow heap is
    /// consulted only when the ring has drained completely.
    pub(crate) fn take_batch(&mut self, out: &mut Vec<TimerEntry>) -> Option<SimTime> {
        debug_assert!(out.is_empty());
        if self.len == 0 {
            return None;
        }
        let idx = match self.first_occupied() {
            Some(idx) => idx,
            None => {
                // Ring empty, overflow not: jump the cursor to the far
                // cluster and pull it in.
                let Reverse(top) = *self.overflow.peek().expect("len > 0 with empty ring");
                self.cursor = top.time.as_nanos() >> BUCKET_SHIFT;
                self.promote();
                self.first_occupied().expect("promotion filled the ring")
            }
        };
        let bucket = &mut self.buckets[idx];
        // One pass: the minimum time, and whether the bucket is uniform
        // (a single instant — the common case at 256 ns per bucket).
        let mut t = bucket[0].time;
        let mut uniform = true;
        for e in &bucket[1..] {
            if e.time != t {
                uniform = false;
                if e.time < t {
                    t = e.time;
                }
            }
        }
        if uniform {
            // Whole bucket fires: move it out without compaction.
            out.append(bucket);
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        } else {
            // Partition preserving order: ties keep their push order,
            // which for direct pushes is already seq order.
            bucket.retain(|e| {
                if e.time == t {
                    out.push(*e);
                    false
                } else {
                    true
                }
            });
        }
        // Promoted entries were appended behind direct pushes regardless
        // of seq; restore the global tiebreaker. Direct pushes arrive in
        // seq order, so the sort almost never actually runs.
        if !out.is_sorted_by_key(|e| e.seq) {
            out.sort_unstable_by_key(|e| e.seq);
        }
        self.len -= out.len();
        // The extracted bucket's number is exactly `t >> shift`; advance
        // the cursor there and re-establish the promotion invariant.
        self.cursor = t.as_nanos() >> BUCKET_SHIFT;
        if let Some(Reverse(top)) = self.overflow.peek() {
            if (top.time.as_nanos() >> BUCKET_SHIFT) < self.cursor + self.buckets.len() as u64 {
                self.promote();
            }
        }
        Some(t)
    }

    /// Moves every overflow entry that now falls within the ring horizon
    /// into its bucket.
    #[cold]
    fn promote(&mut self) {
        let horizon = self.cursor + self.buckets.len() as u64;
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.time.as_nanos() >> BUCKET_SHIFT >= horizon {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry vanished");
            let idx = ((e.time.as_nanos() >> BUCKET_SHIFT) & self.mask) as usize;
            self.buckets[idx].push(e);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Ring index of the first occupied bucket in circular order from
    /// the cursor, or `None` if the ring is empty.
    fn first_occupied(&self) -> Option<usize> {
        let n = self.buckets.len();
        let words = self.occupied.len();
        let start = (self.cursor & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // First word: mask off bits below the cursor slot, then walk the
        // whole bitmap once (wrapping), finally re-check the low bits of
        // the first word.
        let head = self.occupied[sw] & (!0u64 << sb);
        if head != 0 {
            return Some(sw * 64 + head.trailing_zeros() as usize);
        }
        for off in 1..words {
            let w = (sw + off) % words;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        let tail = self.occupied[sw] & !(!0u64 << sb);
        if tail != 0 {
            return Some(sw * 64 + tail.trailing_zeros() as usize);
        }
        let _ = n;
        None
    }
}

/// Minimum time within a non-empty bucket.
fn bucket_min(bucket: &[TimerEntry]) -> SimTime {
    debug_assert!(!bucket.is_empty());
    let mut t = SimTime::MAX;
    for e in bucket {
        if e.time < t {
            t = e.time;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(time: u64, seq: u64) -> TimerEntry {
        TimerEntry {
            time: SimTime::from_nanos(time),
            seq,
            word: seq,
        }
    }

    #[test]
    fn entry_stays_three_words() {
        // The bucket `Vec`s are most of a sweep's heap: a fourth word
        // costs ~0.8 MiB of peak RSS on the benchmark's sweep_write.
        assert_eq!(std::mem::size_of::<TimerEntry>(), 24);
    }

    #[test]
    fn fire_words_round_trip_or_refuse() {
        let fits = [
            Fire::Slab(0),
            Fire::Slab(u32::MAX),
            Fire::Task(0),
            Fire::Task(123_456),
            Fire::Hook { hook: 0, token: 0 },
            Fire::Hook {
                hook: 253,
                token: PAYLOAD_MASK,
            },
        ];
        for f in fits {
            assert_eq!(Fire::unpack(f.pack().expect("fits")), f);
        }
        assert_eq!(Some(Fire::slab_word(7)), Fire::Slab(7).pack());
        let too_wide = [
            Fire::Hook {
                hook: 254,
                token: 0,
            },
            Fire::Hook {
                hook: 0,
                token: 1 << 56,
            },
            Fire::Hook {
                hook: u32::MAX,
                token: u64::MAX,
            },
        ];
        for f in too_wide {
            assert_eq!(f.pack(), None, "{f:?}");
        }
    }

    fn drain_all(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = w.take_batch(&mut batch) {
            for entry in batch.drain(..) {
                assert_eq!(entry.time, t);
                out.push((t.as_nanos(), entry.seq));
            }
        }
        out
    }

    #[test]
    fn orders_across_buckets_and_overflow() {
        let mut w = TimerWheel::with_capacity(0);
        // Far beyond the minimum ring horizon.
        w.push(e(1_000_000, 0));
        w.push(e(10, 1));
        w.push(e(70, 2));
        w.push(e(10, 3));
        assert_eq!(w.peek_next(), Some(SimTime::from_nanos(10)));
        assert_eq!(
            drain_all(&mut w),
            vec![(10, 1), (10, 3), (70, 2), (1_000_000, 0)]
        );
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek_next(), None);
    }

    #[test]
    fn same_instant_ties_form_one_batch_in_seq_order() {
        let mut w = TimerWheel::with_capacity(0);
        for seq in 0..5 {
            w.push(e(100, seq));
        }
        let mut batch = Vec::new();
        let t = w.take_batch(&mut batch).unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
        assert_eq!(
            batch.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn distinct_instants_in_one_bucket_split_batches() {
        let mut w = TimerWheel::with_capacity(0);
        // 3 and 5 share bucket 0 but are distinct instants.
        w.push(e(5, 0));
        w.push(e(3, 1));
        w.push(e(5, 2));
        assert_eq!(drain_all(&mut w), vec![(3, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn promoted_overflow_tie_merges_into_the_direct_batch() {
        let mut w = TimerWheel::with_capacity(0);
        let horizon = (MIN_BUCKETS as u64) << BUCKET_SHIFT;
        // seq 0 goes to overflow (beyond horizon from cursor 0).
        w.push(e(horizon + 10, 0));
        // Drain a near timer so the cursor advances and the horizon
        // swallows the overflow entry.
        w.push(e(horizon - 64, 1));
        let mut batch = Vec::new();
        assert_eq!(
            w.take_batch(&mut batch),
            Some(SimTime::from_nanos(horizon - 64))
        );
        batch.clear();
        // A direct push at the same instant as the promoted entry, with
        // a *later* seq: the batch must still come out in seq order.
        w.push(e(horizon + 10, 2));
        let t = w.take_batch(&mut batch).unwrap();
        assert_eq!(t, SimTime::from_nanos(horizon + 10));
        assert_eq!(batch.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn ring_slots_are_reused_as_the_cursor_laps() {
        let mut w = TimerWheel::with_capacity(0);
        let span = 1u64 << BUCKET_SHIFT; // one bucket
        let mut expect = Vec::new();
        // March far past one full ring revolution, two timers per step.
        for i in 0..600u64 {
            let t = i * span;
            w.push(e(t, 2 * i));
            w.push(e(t, 2 * i + 1));
            expect.push((t, 2 * i));
            expect.push((t, 2 * i + 1));
            // Interleave draining so pushes stay within the horizon.
            if i % 3 == 2 {
                let mut batch = Vec::new();
                while w.take_batch(&mut batch).is_some() {
                    for entry in batch.drain(..) {
                        let (et, eseq) = expect.remove(0);
                        assert_eq!((entry.time.as_nanos(), entry.seq), (et, eseq));
                    }
                }
            }
        }
        for (et, eseq) in std::mem::take(&mut expect) {
            let mut batch = Vec::new();
            if let Some(t) = w.take_batch(&mut batch) {
                assert_eq!(t.as_nanos(), et);
                assert_eq!(batch[0].seq, eseq);
                for extra in &batch[1..] {
                    expect.push((extra.time.as_nanos(), extra.seq));
                }
            }
        }
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn ring_never_grows() {
        let mut w = TimerWheel::with_capacity(32);
        let before = w.stats().ring_buckets;
        for i in 0..10_000u64 {
            w.push(e(i * 7, i));
        }
        let mut batch = Vec::new();
        while w.take_batch(&mut batch).is_some() {
            batch.clear();
        }
        assert_eq!(w.stats().ring_buckets, before);
    }
}
