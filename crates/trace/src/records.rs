//! The Full-mode record store: each kept message packed into one 64-byte
//! entry, one cache line, where its [`MsgRecord`] view takes 104 bytes.
//!
//! An entry holds `send_begin` whole and the eight later instants as
//! `u32` nanosecond offsets from it (the longest lifecycle of a healthy
//! benchmark-scale run is about 20 ms; an offset reaches 4.3 s), and the
//! id and pair as `u32`. A record that does not fit — an instant before
//! `send_begin`, as a faulty run's tangled records show; an offset of
//! 2³²−1 ns or more, as a message queued through a long crash pause has;
//! an id or pair of 2³² or more — is kept whole in a side list, and its
//! entry points to it. Every record reads back exactly as it was stored,
//! whichever form holds it.

use std::fmt;

use nowlab_sim::SimTime;

use crate::{Mark, MsgRecord};

/// [`MsgRecord::reply`]. The entry's other flag bits are the record's own
/// (`COMPLETED`, `TANGLED`, `VISIBLE_SEEN`), which this and [`WIDE`] must
/// not overlap.
const REPLY: u8 = 8;
/// The record sits in the side list, at the index `send_begin` holds.
const WIDE: u8 = 16;
/// The `handler_at` offset of a record whose handler has not run.
const NO_HANDLER: u32 = u32::MAX;

const _: () =
    assert!((crate::COMPLETED | crate::TANGLED | crate::VISIBLE_SEEN) & (REPLY | WIDE) == 0);

/// One record, packed.
#[derive(Clone, Copy)]
struct Entry {
    /// The instant in nanoseconds; for a [`WIDE`] entry, the side-list
    /// index.
    send_begin: u64,
    /// `inject`, `tx_start`, `wire_done`, `arrival`, `visible`, `pop`,
    /// `done` and `handler_at`, each less `send_begin`.
    at: [u32; 8],
    id: u32,
    /// Zero while no pairing edge was observed, as in the record.
    pair: u32,
    bytes: u32,
    src: u16,
    dst: u16,
    attempts: u16,
    dropped_attempts: u16,
    kind: Mark,
    flags: u8,
}

// A kept message costs one cache line.
const _: () = assert!(std::mem::size_of::<Entry>() == 64);

/// The entry of a slot no record was stored in. The recorder reserves one
/// per id, and drops those of ids it never saw before handing the store
/// over.
const VACANT: Entry = Entry {
    send_begin: 0,
    at: [0, 0, 0, 0, 0, 0, 0, NO_HANDLER],
    id: 0,
    pair: 0,
    bytes: 0,
    src: 0,
    dst: 0,
    attempts: 0,
    dropped_attempts: 0,
    kind: Mark::User,
    flags: 0,
};

/// A store of up to 1 MiB is a test-scale run's, and grows by doubling
/// like any `Vec`.
pub(crate) const SMALL_STORE: usize = (1 << 20) / std::mem::size_of::<Entry>();

/// Past that the store asks for more than 32 MiB at once, which glibc
/// always serves as a mapping of its own: grown in place, resident only
/// where written, returned whole on drop. A smaller request may be carved
/// from the heap, where each doubling copies the store and the copies
/// left behind stay resident (DESIGN.md §9, "How the store grows").
pub(crate) const OWN_MAPPING: usize = (32 << 20) / std::mem::size_of::<Entry>() + 1;

impl Entry {
    /// `rec` packed, or `None` if it does not fit.
    fn pack(rec: &MsgRecord) -> Option<Entry> {
        let base = rec.send_begin.as_nanos();
        let handler = rec.handler_at().unwrap_or(rec.send_begin);
        let at = [
            rec.inject,
            rec.tx_start,
            rec.wire_done,
            rec.arrival,
            rec.visible,
            rec.pop,
            rec.done,
            handler,
        ]
        .map(|t| t.as_nanos().wrapping_sub(base));
        // The fit test. An instant before `send_begin` wraps to an offset
        // far past any that fits; `NO_HANDLER` is no offset.
        let widest = at.into_iter().max().unwrap_or(0);
        if widest >= u64::from(NO_HANDLER) || (rec.id | rec.pair) > u64::from(u32::MAX) {
            return None;
        }
        let mut at = at.map(|d| d as u32);
        if rec.handler_at().is_none() {
            at[7] = NO_HANDLER;
        }
        Some(Entry {
            send_begin: base,
            at,
            id: rec.id as u32,
            pair: rec.pair as u32,
            bytes: rec.bytes,
            src: rec.src,
            dst: rec.dst,
            attempts: rec.attempts,
            dropped_attempts: rec.dropped_attempts,
            kind: rec.kind,
            flags: rec.flags | if rec.reply { REPLY } else { 0 },
        })
    }

    /// The record a packed (not [`WIDE`]) entry holds.
    #[inline]
    fn unpack(&self) -> MsgRecord {
        let base = self.send_begin;
        let at = |k: usize| SimTime::from_nanos(base + u64::from(self.at[k]));
        MsgRecord {
            id: u64::from(self.id),
            send_begin: SimTime::from_nanos(base),
            inject: at(0),
            tx_start: at(1),
            wire_done: at(2),
            arrival: at(3),
            visible: at(4),
            pop: at(5),
            done: at(6),
            handler_at: if self.at[7] == NO_HANDLER {
                SimTime::MAX
            } else {
                at(7)
            },
            pair: u64::from(self.pair),
            bytes: self.bytes,
            src: self.src,
            dst: self.dst,
            attempts: self.attempts,
            dropped_attempts: self.dropped_attempts,
            kind: self.kind,
            reply: self.flags & REPLY != 0,
            flags: self.flags & !REPLY,
        }
    }

    #[inline]
    fn is_wide(&self) -> bool {
        self.flags & WIDE != 0
    }
}

/// The record `e` holds, wherever it is kept.
#[inline]
fn read(e: &Entry, wide: &[MsgRecord]) -> MsgRecord {
    if e.is_wide() {
        wide[e.send_begin as usize]
    } else {
        e.unpack()
    }
}

/// A Full-mode trace's per-message records, in ascending id order: 64
/// bytes a record, read back as [`MsgRecord`] values.
///
/// Two stores are equal when they hold equal records in the same order,
/// whichever form holds each.
#[derive(Clone, Default)]
pub struct Records {
    entries: Vec<Entry>,
    /// The records no entry could hold, each pointed to by exactly one.
    wide: Vec<MsgRecord>,
}

// Readers in other crates (the DAG builder, the Chrome writer) call these
// once per record: inlined, they unpack only the fields the reader uses.
impl Records {
    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds no record.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th record, if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<MsgRecord> {
        self.entries.get(i).map(|e| read(e, &self.wide))
    }

    /// The records, in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = MsgRecord> + '_ {
        self.entries.iter().map(|e| read(e, &self.wide))
    }

    /// How many of the records did not fit an entry and are kept whole
    /// (zero for a healthy run's trace).
    pub fn wide(&self) -> usize {
        self.wide.len()
    }

    /// Stores `rec` in slot `at`, which holds no record yet; the slots
    /// before it that did not exist are vacant. The store doubles, except
    /// that past [`SMALL_STORE`] it never holds fewer than [`OWN_MAPPING`]
    /// slots.
    pub(crate) fn put(&mut self, at: usize, rec: MsgRecord) {
        if self.entries.len() <= at {
            if self.entries.capacity() <= at {
                let mut slots = (at + 1).max(2 * self.entries.capacity());
                if slots > SMALL_STORE {
                    slots = slots.max(OWN_MAPPING);
                }
                self.entries.reserve_exact(slots - self.entries.len());
            }
            self.entries.resize(at + 1, VACANT);
        }
        debug_assert!(!self.entries[at].is_wide(), "slot {at} holds a record");
        self.entries[at] = self.entry_for(rec);
        debug_assert_eq!(self.get(at), Some(rec), "slot {at} reads back");
    }

    /// Patches the record in slot `at` in place. The patched record is
    /// packed again, which may move it to the side list.
    pub(crate) fn update(&mut self, at: usize, patch: impl FnOnce(&mut MsgRecord)) {
        let e = self.entries[at];
        if e.is_wide() {
            patch(&mut self.wide[e.send_begin as usize]);
            return;
        }
        let mut rec = e.unpack();
        patch(&mut rec);
        self.entries[at] = self.entry_for(rec);
        debug_assert_eq!(self.get(at), Some(rec), "slot {at} reads back");
    }

    /// Drops, in slot order, every slot `keep` answers false for; none of
    /// them may hold a record.
    pub(crate) fn retain_slots(&mut self, mut keep: impl FnMut() -> bool) {
        self.entries.retain(|e| {
            let kept = keep();
            debug_assert!(kept || !e.is_wide(), "a dropped slot holds no record");
            kept
        });
    }

    /// Hands back the growth capacity, so the store is its exact size.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.wide.shrink_to_fit();
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The entry for `rec`: packed, or pointing to its place in the side
    /// list.
    fn entry_for(&mut self, rec: MsgRecord) -> Entry {
        Entry::pack(&rec).unwrap_or_else(|| {
            self.wide.push(rec);
            Entry {
                send_begin: (self.wide.len() - 1) as u64,
                flags: WIDE,
                ..VACANT
            }
        })
    }
}

impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Records {}

impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<MsgRecord> for Records {
    fn from_iter<I: IntoIterator<Item = MsgRecord>>(iter: I) -> Records {
        let mut records = Records::default();
        for rec in iter {
            records.put(records.len(), rec);
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{COMPLETED, TANGLED, VISIBLE_SEEN};
    use nowlab_sim::SimDelta;

    /// A completed record whose `done` lies `span` ns after `send_begin`.
    fn spanning(id: u64, span: u64) -> MsgRecord {
        let begin = 1_000_000_007;
        let at = [0, 1, 2, 3, 4, 5, 6, span].map(|d| SimTime::from_nanos(begin + d));
        MsgRecord::from_instants(id, 3, 4, Mark::Bulk, 4096, at, true)
    }

    /// The store of `recs`, and how many of them it kept whole, after
    /// checking that every record reads back as it went in.
    fn stored(recs: &[MsgRecord]) -> (Records, usize) {
        let store: Records = recs.iter().copied().collect();
        assert_eq!(store.len(), recs.len());
        assert!(store.iter().eq(recs.iter().copied()));
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(store.get(i), Some(*rec));
        }
        assert_eq!(store.get(recs.len()), None);
        let wide = store.wide();
        (store, wide)
    }

    #[test]
    fn an_offset_fits_up_to_two_to_the_32_minus_two() {
        let top = u64::from(u32::MAX);
        for (span, wide) in [(top - 1, 0), (top, 1), (top + 1, 1), (u64::MAX / 2, 1)] {
            assert_eq!(stored(&[spanning(1, span)]).1, wide, "span {span}");
        }
        // The handler's offset too: `u32::MAX` is its "no handler".
        for (span, wide) in [(top - 1, 0), (top, 1)] {
            let mut rec = spanning(1, 10);
            rec.handler_at = rec.send_begin + SimDelta::from_nanos(span);
            assert_eq!(stored(&[rec]).1, wide, "handler at +{span}");
        }
    }

    #[test]
    fn an_id_or_pair_past_32_bits_is_kept_whole() {
        let top = u64::from(u32::MAX);
        let paired = |id, pair| MsgRecord {
            pair,
            ..spanning(id, 10)
        };
        for (rec, wide) in [
            (paired(top, top), 0),
            (paired(top + 1, 0), 1),
            (paired(1, top + 1), 1),
            (paired(1 << 53, 1 << 53), 1),
        ] {
            assert_eq!(stored(&[rec]).1, wide, "id {} pair {}", rec.id, rec.pair);
        }
    }

    #[test]
    fn every_field_reads_back_in_both_forms() {
        let mut recs = Vec::new();
        for (k, kind) in [Mark::Read, Mark::Rmw, Mark::Barrier]
            .into_iter()
            .enumerate()
        {
            let k = k as u64;
            let mut rec = spanning(10 + k, 100 + k);
            rec.kind = kind;
            rec.reply = k % 2 == 1;
            rec.attempts = u16::MAX - k as u16;
            rec.dropped_attempts = 7 + k as u16;
            rec.bytes = u32::MAX - k as u32;
            rec.flags = [COMPLETED, COMPLETED | TANGLED, VISIBLE_SEEN][k as usize];
            rec.handler_at = rec.done;
            rec.pair = 20 + k;
            recs.push(rec);
            // The same record, wide: its send_begin follows its pop.
            rec.send_begin = rec.done + SimDelta::from_nanos(1);
            recs.push(rec);
        }
        let (store, wide) = stored(&recs);
        assert_eq!(wide, 3);
        assert_eq!(store.iter().last(), recs.last().copied());
    }

    #[test]
    fn stores_compare_by_record_not_by_form() {
        let rec = spanning(5, 10);
        let packed: Records = [rec].into_iter().collect();
        let whole = Records {
            entries: vec![Entry {
                send_begin: 0,
                flags: WIDE,
                ..VACANT
            }],
            wide: vec![rec],
        };
        assert_eq!((packed.wide(), whole.wide()), (0, 1));
        assert_eq!(packed, whole);
        assert_eq!(format!("{packed:?}"), format!("{whole:?}"));
        let other: Records = [spanning(5, 11)].into_iter().collect();
        assert_ne!(packed, other);
        assert_ne!(packed, Records::default());
    }
}
