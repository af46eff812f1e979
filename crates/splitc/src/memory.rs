//! Per-processor memory: the local side of the global address space.
//!
//! Each simulated processor owns one [`Memory`]: a set of word-addressed
//! regions (the distributed arrays of Split-C), a set of mailboxes (receive
//! queues for user active messages), the dissemination-barrier counters and
//! the collectives layer's state.
//!
//! The [`Memory`] is installed as the processor's Active-Message user state,
//! so handlers mutate it directly on the destination processor.

use std::collections::VecDeque;
use std::fmt;

use nowlab_am::Payload;

/// Index of a region within one processor's [`Memory`].
///
/// SPMD programs allocate regions in the same order on every processor, so a
/// `RegionId` names the local slice of one distributed array.
pub type RegionId = usize;

/// Index of a mailbox within one processor's [`Memory`].
pub type MailboxId = usize;

/// A pointer into the global address space: (processor, region, word
/// offset). The Split-C "global pointer".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GlobalPtr {
    /// Owning processor.
    pub proc: usize,
    /// Region on that processor.
    pub region: RegionId,
    /// Word offset within the region.
    pub offset: usize,
}

impl GlobalPtr {
    /// Creates a global pointer.
    pub fn new(proc: usize, region: RegionId, offset: usize) -> Self {
        GlobalPtr {
            proc,
            region,
            offset,
        }
    }
}

impl fmt::Display for GlobalPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}:r{}+{}", self.proc, self.region, self.offset)
    }
}

/// A message delivered to a mailbox by a user active message.
#[derive(Clone, Debug)]
pub struct MailMsg {
    /// Sender processor.
    pub src: usize,
    /// Three user argument words (the fourth word addresses the mailbox).
    pub args: [u64; 3],
    /// Optional bulk payload.
    pub payload: Payload,
}

/// One processor's local memory and communication-layer state.
pub struct Memory {
    regions: Vec<Vec<u64>>,
    mailboxes: Vec<VecDeque<MailMsg>>,
    /// Dissemination-barrier arrival counters, one per round.
    pub(crate) barrier_arrived: Vec<u64>,
    /// Barriers this processor has entered.
    pub(crate) barrier_gen: u64,
    /// The collectives layer's per-processor state (epoch counters and
    /// in-flight data; see [`nowlab_coll::CollState`]).
    pub(crate) coll: nowlab_coll::CollState,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("regions", &self.regions.len())
            .field("mailboxes", &self.mailboxes.len())
            .field("barrier_gen", &self.barrier_gen)
            .finish()
    }
}

impl Memory {
    /// Creates a memory for a cluster of `procs` processors.
    pub fn new(procs: usize) -> Self {
        let rounds = barrier_rounds(procs);
        Memory {
            regions: Vec::new(),
            mailboxes: Vec::new(),
            barrier_arrived: vec![0; rounds.max(1)],
            barrier_gen: 0,
            coll: nowlab_coll::CollState::default(),
        }
    }

    /// Allocates a zero-initialized region of `words` and returns its id.
    pub fn alloc_region(&mut self, words: usize) -> RegionId {
        self.regions.push(vec![0; words]);
        self.regions.len() - 1
    }

    /// Allocates an empty mailbox and returns its id.
    pub fn alloc_mailbox(&mut self) -> MailboxId {
        self.mailboxes.push(VecDeque::new());
        self.mailboxes.len() - 1
    }

    /// Immutable view of a region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist.
    pub fn region(&self, r: RegionId) -> &[u64] {
        self.regions
            .get(r)
            .unwrap_or_else(|| panic!("region {r} not allocated (missing barrier after alloc?)"))
    }

    /// Mutable view of a region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist.
    pub fn region_mut(&mut self, r: RegionId) -> &mut Vec<u64> {
        self.regions
            .get_mut(r)
            .unwrap_or_else(|| panic!("region {r} not allocated (missing barrier after alloc?)"))
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if region or offset are out of bounds.
    pub fn load(&self, r: RegionId, offset: usize) -> u64 {
        self.region(r)[offset]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if region or offset are out of bounds.
    pub fn store(&mut self, r: RegionId, offset: usize, value: u64) {
        self.region_mut(r)[offset] = value;
    }

    /// Atomic fetch-and-add (the simulation is single-threaded; atomicity is
    /// by construction). Returns the previous value.
    pub fn fetch_add(&mut self, r: RegionId, offset: usize, delta: u64) -> u64 {
        let slot = &mut self.region_mut(r)[offset];
        let old = *slot;
        *slot = old.wrapping_add(delta);
        old
    }

    /// Atomic compare-and-swap; returns the previous value (success iff it
    /// equals `expected`).
    pub fn compare_swap(&mut self, r: RegionId, offset: usize, expected: u64, new: u64) -> u64 {
        let slot = &mut self.region_mut(r)[offset];
        let old = *slot;
        if old == expected {
            *slot = new;
        }
        old
    }

    /// Pushes a message into a mailbox.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox does not exist.
    pub fn push_mail(&mut self, mb: MailboxId, msg: MailMsg) {
        self.mailboxes
            .get_mut(mb)
            .unwrap_or_else(|| panic!("mailbox {mb} not allocated"))
            .push_back(msg);
    }

    /// Pops the oldest message from a mailbox.
    pub fn pop_mail(&mut self, mb: MailboxId) -> Option<MailMsg> {
        self.mailboxes.get_mut(mb).and_then(VecDeque::pop_front)
    }

    /// Number of messages waiting in a mailbox.
    pub fn mail_len(&self, mb: MailboxId) -> usize {
        self.mailboxes.get(mb).map_or(0, VecDeque::len)
    }
}

/// Number of dissemination-barrier rounds for `procs` processors
/// (`ceil(log2 procs)`).
pub fn barrier_rounds(procs: usize) -> usize {
    if procs <= 1 {
        0
    } else {
        (usize::BITS - (procs - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_match_log2_ceiling() {
        assert_eq!(barrier_rounds(1), 0);
        assert_eq!(barrier_rounds(2), 1);
        assert_eq!(barrier_rounds(3), 2);
        assert_eq!(barrier_rounds(4), 2);
        assert_eq!(barrier_rounds(5), 3);
        assert_eq!(barrier_rounds(16), 4);
        assert_eq!(barrier_rounds(17), 5);
        assert_eq!(barrier_rounds(32), 5);
    }

    #[test]
    fn region_alloc_and_ops() {
        let mut m = Memory::new(4);
        let r = m.alloc_region(8);
        assert_eq!(r, 0);
        assert_eq!(m.load(r, 3), 0);
        m.store(r, 3, 99);
        assert_eq!(m.load(r, 3), 99);
        assert_eq!(m.fetch_add(r, 3, 1), 99);
        assert_eq!(m.load(r, 3), 100);
        assert_eq!(m.compare_swap(r, 3, 100, 7), 100);
        assert_eq!(m.load(r, 3), 7);
        assert_eq!(m.compare_swap(r, 3, 100, 8), 7);
        assert_eq!(m.load(r, 3), 7);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn missing_region_panics_helpfully() {
        let m = Memory::new(2);
        let _ = m.region(0);
    }

    #[test]
    fn mailboxes_are_fifo() {
        let mut m = Memory::new(2);
        let mb = m.alloc_mailbox();
        for i in 0..3 {
            m.push_mail(
                mb,
                MailMsg {
                    src: 1,
                    args: [i, 0, 0],
                    payload: Payload::None,
                },
            );
        }
        assert_eq!(m.mail_len(mb), 3);
        assert_eq!(m.pop_mail(mb).unwrap().args[0], 0);
        assert_eq!(m.pop_mail(mb).unwrap().args[0], 1);
        assert_eq!(m.pop_mail(mb).unwrap().args[0], 2);
        assert!(m.pop_mail(mb).is_none());
    }

    #[test]
    fn global_ptr_display_and_offset() {
        let gp = GlobalPtr::new(3, 1, 10);
        assert_eq!(format!("{gp}"), "p3:r1+10");
        assert_eq!((gp.proc, gp.region, gp.offset), (3, 1, 10));
    }

    #[test]
    fn fetch_add_wraps() {
        let mut m = Memory::new(1);
        let r = m.alloc_region(1);
        m.store(r, 0, u64::MAX);
        assert_eq!(m.fetch_add(r, 0, 2), u64::MAX);
        assert_eq!(m.load(r, 0), 1);
    }
}
