//! Message types carried by the Active Message layer.

use std::fmt;
use std::rc::Rc;

/// Index of a processor in the cluster (0..P).
pub type ProcId = usize;

/// Index into the cluster-wide handler table.
pub type HandlerId = usize;

/// Request identifier, unique per source processor.
pub type ReqId = u64;

/// Semantic class of a message; the trace crate defines it (it sits below
/// this one in the dependency graph), so a recorded message carries the
/// mark its request was sent with.
pub use nowlab_trace::Mark;

/// Payload attached to a message.
///
/// Short messages carry up to four 64-bit argument words only; bulk messages
/// additionally carry either real 64-bit words or a synthetic length (for
/// streaming workloads such as NOW-sort where the byte values are irrelevant
/// but the wire time is not).
#[derive(Clone, Debug, Default)]
pub enum Payload {
    /// No payload beyond the argument words.
    #[default]
    None,
    /// Real 64-bit words (shared, so forwarding does not copy).
    Words(Rc<[u64]>),
    /// Synthetic payload: occupies wire time and counts bytes, carries no
    /// data.
    Synthetic(u32),
}

impl Payload {
    /// Creates a payload from owned words.
    pub fn from_words(words: Vec<u64>) -> Self {
        Payload::Words(words.into())
    }

    /// Number of payload bytes on the wire.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            Payload::None => 0,
            Payload::Words(w) => (w.len() * 8) as u32,
            Payload::Synthetic(n) => *n,
        }
    }

    /// True if there is no payload.
    pub fn is_none(&self) -> bool {
        matches!(self, Payload::None)
    }

    /// Borrows the payload as words, if it is a word payload.
    pub fn as_words(&self) -> Option<&[u64]> {
        match self {
            Payload::Words(w) => Some(w),
            _ => None,
        }
    }
}

/// Direction of a message within a request/response pair.
///
/// Every AM request is answered: reads return data, stores and one-way
/// messages are acknowledged at the transport level. This pairing is what
/// makes the paper's `2·m·Δo` overhead model exact (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// A request, consuming one flow-control credit at the source.
    Request,
    /// The response to `ReqId`, restoring that credit on arrival.
    Reply,
}

/// A message in flight (or queued) between two processors.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sending processor.
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Request/response direction.
    pub dir: Dir,
    /// Request id for credit matching (replies carry their request's id).
    pub req: ReqId,
    /// Cumulative acknowledgement piggybacked on every message: the
    /// sender's receipt watermark toward `dst` — every request it sent to
    /// `dst` with id below `ack` has completed (its reply was received).
    /// The receiver uses it to garbage-collect duplicate-suppression state
    /// (see DESIGN.md §3). Always zero when the reliability protocol is
    /// disengaged.
    pub ack: ReqId,
    /// Per-link FIFO sequence number (requests only): position of this
    /// request in the stream `src` sends to `dst`. The lossless wire
    /// delivers per-source FIFO and the upper layers rely on it, so the
    /// reliable path restores that order at the receiver — a request
    /// arriving ahead of a lost predecessor is held back until the gap is
    /// retransmitted. Zero on replies and when the protocol is disengaged.
    pub seq: u64,
    /// Handler to run on arrival (requests only).
    pub handler: HandlerId,
    /// Four argument words (GAM short-message format).
    pub args: [u64; 4],
    /// Optional bulk payload.
    pub payload: Payload,
    /// Semantic class for instrumentation.
    pub mark: Mark,
    /// Trace correlation id, stamped from a deterministic per-cluster
    /// counter when the port constructs the message (always, so traced
    /// and untraced runs are identical). Retransmissions keep their
    /// original id; `0` marks a raw injection that bypassed the port.
    pub trace: u64,
}

impl Msg {
    /// True if this message uses the bulk-transfer mechanism (it carries a
    /// payload beyond the four argument words).
    pub fn is_bulk(&self) -> bool {
        !self.payload.is_none()
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}#{} {}->{} h{} {:?} {}B",
            self.dir,
            self.req,
            self.src,
            self.dst,
            self.handler,
            self.mark,
            self.payload.wire_bytes()
        )
    }
}

/// What a handler tells the transport to send back.
#[derive(Clone, Debug, Default)]
pub struct ReplyData {
    /// Four reply argument words.
    pub args: [u64; 4],
    /// Optional bulk reply payload (e.g. a bulk get).
    pub payload: Payload,
}

impl ReplyData {
    /// An empty acknowledgement.
    pub fn ack() -> Self {
        Self::default()
    }

    /// A reply carrying argument words only.
    pub fn words(args: [u64; 4]) -> Self {
        ReplyData {
            args,
            payload: Payload::None,
        }
    }

    /// A reply carrying a single word in `args[0]`.
    pub fn word(w: u64) -> Self {
        Self::words([w, 0, 0, 0])
    }

    /// A reply carrying a bulk payload.
    pub fn bulk(args: [u64; 4], payload: Payload) -> Self {
        ReplyData { args, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_wire_bytes() {
        assert_eq!(Payload::None.wire_bytes(), 0);
        assert_eq!(Payload::from_words(vec![0u64; 4]).wire_bytes(), 32);
        assert_eq!(Payload::Synthetic(4096).wire_bytes(), 4096);
    }

    #[test]
    fn payload_accessors() {
        let w = Payload::from_words(vec![1, 2, 3]);
        assert_eq!(w.as_words(), Some(&[1u64, 2, 3][..]));
        assert!(Payload::Synthetic(16).as_words().is_none());
        assert!(Payload::None.is_none());
        assert!(!w.is_none());
    }

    #[test]
    fn bulk_detection() {
        let m = Msg {
            src: 0,
            dst: 1,
            dir: Dir::Request,
            req: 0,
            ack: 0,
            seq: 0,
            handler: 0,
            args: [0; 4],
            payload: Payload::Synthetic(128),
            mark: Mark::Bulk,
            trace: 0,
        };
        assert!(m.is_bulk());
        let m2 = Msg {
            payload: Payload::None,
            ..m
        };
        assert!(!m2.is_bulk());
    }

    #[test]
    fn reply_data_constructors() {
        assert_eq!(ReplyData::ack().args, [0; 4]);
        assert_eq!(ReplyData::word(7).args[0], 7);
        let r = ReplyData::bulk([1, 2, 3, 4], Payload::Synthetic(10));
        assert_eq!(r.payload.wire_bytes(), 10);
    }
}
