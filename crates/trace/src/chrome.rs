//! Chrome-trace (`about:tracing` / Perfetto "JSON object format") export.
//!
//! Each completed [`MsgRecord`](crate::MsgRecord) becomes a train of complete (`"ph":"X"`)
//! slices laid out on four lanes per processor — `cpu`, `nic-tx`, `wire`,
//! `nic-rx` — plus a flow arrow from the send slice to the receive slice,
//! so a message's whole LogGP decomposition reads left-to-right in the
//! viewer. Timestamps are virtual microseconds (the viewer's native
//! unit); nothing host-side leaks into the file, so two runs of the same
//! (program, seed) export byte-identical traces.
//!
//! The JSON is hand-rolled: every emitted value is a number or a fixed
//! ASCII label, so no escaping is required and no serializer dependency
//! is taken. Every piece that repeats is laid out once, per export or per
//! record (see `write_chrome_trace_highlighted`).

use std::io::{self, Write};

use crate::Records;

/// Thread-id lanes within each processor's track.
const LANE_CPU: usize = 0;
const LANE_NIC_TX: usize = 1;
const LANE_WIRE: usize = 2;
const LANE_NIC_RX: usize = 3;
/// The heads after the four lanes': a flow arrow's start and its finish.
const FLOW_OUT: usize = 4;
const FLOW_IN: usize = 5;
/// Heads laid out per processor.
const HEADS: usize = 6;

/// The emitter hands its buffer to the writer once it holds this much.
const FLUSH_AT: usize = 64 * 1024;
/// More than a record draws: seven slices and two arrows, each under 200 B.
const RECORD_MAX: usize = 2048;

/// `PAIRS[2k..2k + 2]` is `k < 100` in two decimal digits.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Each slice's name, as the piece between its `dur` and its record's tail:
/// the [`crate::MESSAGE`] labels, spelled out so a slice copies them whole.
const NAMES: [&str; 7] = [
    r#","name":"o_send"#,
    r#","name":"tx_wait"#,
    r#","name":"dma"#,
    r#","name":"wire"#,
    r#","name":"rx_hold"#,
    r#","name":"rx_queue"#,
    r#","name":"o_recv"#,
];

/// Appends `v` in decimal, two digits per division.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 100 {
        let k = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[k..k + 2]);
    }
    // One or two digits remain: write a pair, keep its first only if not 0.
    let k = v as usize * 2;
    digits[at - 2..at].copy_from_slice(&PAIRS[k..k + 2]);
    at -= 1 + usize::from(v >= 10);
    buf.extend_from_slice(&digits[at..]);
}

/// Appends `ns` nanoseconds as microseconds with three decimals:
/// `ns / 1000`, a point, `ns % 1000` in three digits. These are the bytes
/// `{:.3}` prints for `ns as f64 / 1000.0` — proven (and tested below) for
/// `ns < 2⁵⁰`, about 13 simulated days, where the quotient's rounding
/// error stays under half a unit of the third decimal. Beyond that range
/// the float form would drift and this integer form is the exact one.
fn push_us(buf: &mut Vec<u8>, ns: u64) {
    push_u64(buf, ns / 1000);
    let frac = (ns % 1000) as usize;
    let k = frac % 100 * 2;
    buf.extend_from_slice(&[b'.', b'0' + (frac / 100) as u8, PAIRS[k], PAIRS[k + 1]]);
}

/// Formats events into one reusable buffer and writes it out in
/// [`FLUSH_AT`]-sized pieces, so the caller's `Write` sees a few large
/// `write_all`s instead of ten fragments per slice.
struct Emitter<'a, W: Write> {
    w: &'a mut W,
    buf: Vec<u8>,
    first: bool,
}

impl<W: Write> Emitter<'_, W> {
    fn text(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Starts the next array element, flushing a full buffer first.
    fn sep(&mut self) -> io::Result<()> {
        if self.buf.len() >= FLUSH_AT {
            self.flush()?;
        }
        if self.first {
            self.first = false;
            self.text("\n  ");
        } else {
            self.text(",\n  ");
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    fn meta(&mut self, pid: usize, tid: Option<usize>, what: &str, name: &str) -> io::Result<()> {
        self.sep()?;
        self.text(r#"{"ph":"M","pid":"#);
        push_u64(&mut self.buf, pid as u64);
        if let Some(tid) = tid {
            self.text(r#","tid":"#);
            push_u64(&mut self.buf, tid as u64);
        }
        self.text(r#","name":""#);
        self.text(what);
        self.text(r#"","args":{"name":""#);
        self.text(name);
        self.text(r#""}}"#);
        Ok(())
    }
}

/// Writes the records as a Chrome-trace JSON object (`{"traceEvents":
/// [...]}`). Only completed records are drawn; returns how many were.
pub fn write_chrome_trace<W: Write>(records: &Records, w: &mut W) -> io::Result<usize> {
    write_chrome_trace_highlighted(records, &[], w)
}

/// Like [`write_chrome_trace`], with the messages whose trace ids appear
/// in `critical` (in any order; ascending costs no copy) tagged with an
/// extra `critical` category on every slice and flow arrow — the viewer's
/// category filter then isolates the predicted critical path.
pub fn write_chrome_trace_highlighted<W: Write>(
    records: &Records,
    critical: &[u64],
    w: &mut W,
) -> io::Result<usize> {
    let mut sorted = Vec::new();
    let critical = if critical.is_sorted() {
        critical
    } else {
        sorted.extend_from_slice(critical);
        sorted.sort_unstable();
        sorted.dedup();
        &sorted
    };
    let mut em = Emitter {
        w,
        buf: Vec::with_capacity(FLUSH_AT + RECORD_MAX),
        first: true,
    };
    em.text(r#"{"displayTimeUnit":"ms","traceEvents":["#);
    let procs = records
        .iter()
        .map(|r| usize::from(r.src.max(r.dst)) + 1)
        .max()
        .unwrap_or(0);
    for pid in 0..procs {
        em.meta(pid, None, "process_name", &format!("proc {pid}"))?;
        em.meta(pid, Some(LANE_CPU), "thread_name", "cpu")?;
        em.meta(pid, Some(LANE_NIC_TX), "thread_name", "nic-tx")?;
        em.meta(pid, Some(LANE_WIRE), "thread_name", "wire")?;
        em.meta(pid, Some(LANE_NIC_RX), "thread_name", "nic-rx")?;
    }
    // A record implies a processor, so every slice and arrow follows the
    // metadata above and its head can open with the separator.
    let heads: Vec<String> = (0..procs)
        .flat_map(|pid| {
            let head = |ph: &str, tid| format!(",\n  {{{ph},\"pid\":{pid},\"tid\":{tid},\"ts\":");
            let x = r#""ph":"X""#;
            [
                head(x, LANE_CPU),
                head(x, LANE_NIC_TX),
                head(x, LANE_WIRE),
                head(x, LANE_NIC_RX),
                head(r#""ph":"s""#, LANE_CPU),
                head(r#""ph":"f","bp":"e""#, LANE_CPU),
            ]
        })
        .collect();
    let mut tail = Vec::new();
    let mut drawn = 0;
    for rec in records.iter().filter(|r| r.completed()) {
        drawn += 1;
        // Categories are comma-separated in the trace format; critical-path
        // messages get an extra `critical` category so the viewer can
        // filter or color them.
        let crit = critical.binary_search(&rec.id).is_ok();
        tail.clear();
        tail.extend_from_slice(br#"","cat":""#);
        tail.extend_from_slice(rec.kind.as_str().as_bytes());
        if crit {
            tail.extend_from_slice(b",critical");
        }
        tail.extend_from_slice(br#"","args":{"id":"#);
        let id_at = tail.len();
        push_u64(&mut tail, rec.id);
        let id = id_at..tail.len();
        tail.extend_from_slice(br#","bytes":"#);
        push_u64(&mut tail, u64::from(rec.bytes));
        tail.extend_from_slice(b"}}");
        if em.buf.len() >= FLUSH_AT {
            em.flush()?;
        }
        let buf = &mut em.buf;
        let (src, dst) = (usize::from(rec.src) * HEADS, usize::from(rec.dst) * HEADS);
        let slices = [
            (src + LANE_CPU, rec.send_begin, rec.o_send()),
            (src + LANE_NIC_TX, rec.inject, rec.tx_wait()),
            (src + LANE_NIC_TX, rec.tx_start, rec.dma()),
            (src + LANE_WIRE, rec.wire_done, rec.wire()),
            (dst + LANE_NIC_RX, rec.arrival, rec.rx_hold()),
            (dst + LANE_NIC_RX, rec.visible, rec.rx_queue()),
            (dst + LANE_CPU, rec.pop, rec.o_recv()),
        ];
        for ((head, start, span), name) in slices.into_iter().zip(NAMES) {
            if span.is_zero() {
                continue; // keep files small: empty spans draw nothing
            }
            buf.extend_from_slice(heads[head].as_bytes());
            push_us(buf, start.as_nanos());
            buf.extend_from_slice(br#","dur":"#);
            push_us(buf, span.as_nanos());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&tail);
        }
        let flow: &[u8] = if crit {
            br#","name":"msg","cat":"flow,critical"}"#
        } else {
            br#","name":"msg","cat":"flow"}"#
        };
        for (head, at) in [(src + FLOW_OUT, rec.send_begin), (dst + FLOW_IN, rec.done)] {
            buf.extend_from_slice(heads[head].as_bytes());
            push_us(buf, at.as_nanos());
            buf.extend_from_slice(br#","id":"#);
            buf.extend_from_slice(&tail[id.clone()]);
            buf.extend_from_slice(flow);
        }
    }
    em.text("\n]}\n");
    em.flush()?;
    Ok(drawn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Mark, MsgRecord, RecvEvent, SendEvent, TraceEvent, TraceRecorder, TraceSink, VisibleEvent,
    };
    use nowlab_sim::{SimDelta, SimTime};

    fn us(x: f64) -> SimTime {
        SimTime::ZERO + SimDelta::from_micros(x)
    }

    fn sample_records() -> Records {
        let rec = TraceRecorder::new(true);
        rec.record(&TraceEvent::Send(SendEvent {
            id: 1,
            src: 0,
            dst: 1,
            reply: false,
            kind: Mark::Read,
            bytes: 0,
            o_send: SimDelta::from_micros(1.8),
            inject: us(1.8),
            tx_start: us(2.0),
            wire_done: us(2.0),
            tx_free: us(2.0),
            arrival: us(7.0),
            in_flight: 1,
            timer_depth: 1,
        }));
        rec.record(&TraceEvent::Visible(VisibleEvent {
            id: 1,
            at: us(7.0),
            rx_depth: 1,
        }));
        rec.record(&TraceEvent::Recv(RecvEvent {
            id: 1,
            proc: 1,
            o_recv: SimDelta::from_micros(4.0),
            done: us(12.0),
        }));
        // An open lifecycle: must not be drawn.
        rec.record(&TraceEvent::Send(SendEvent {
            id: 2,
            src: 1,
            dst: 0,
            reply: false,
            kind: Mark::Write,
            bytes: 0,
            o_send: SimDelta::from_micros(1.8),
            inject: us(20.0),
            tx_start: us(20.0),
            wire_done: us(20.0),
            tx_free: us(20.0),
            arrival: us(25.0),
            in_flight: 1,
            timer_depth: 1,
        }));
        rec.finish().records
    }

    #[test]
    fn push_us_prints_what_the_float_format_printed() {
        use nowlab_rng::{Rng, SeedableRng, SmallRng};

        const PROVEN_BELOW: u64 = 1 << 50;
        let mut cases = vec![0, 1, 999, 1000, 1001, 999_999, 1_000_000_000_000];
        let mut pow = 1u64;
        while pow < PROVEN_BELOW {
            cases.extend([pow - 1, pow, pow + 1]);
            pow *= 10;
        }
        cases.push(PROVEN_BELOW - 1);
        // Uniform draws are nearly all fifteen digits long; the shift
        // spreads them over every magnitude a run reaches.
        let mut rng = SmallRng::seed_from_u64(16);
        cases.extend((0..100_000).map(|i| rng.gen_range(0..PROVEN_BELOW) >> (i % 50)));
        let mut buf = Vec::new();
        for ns in cases {
            buf.clear();
            push_us(&mut buf, ns);
            let float = format!("{:.3}", ns as f64 / 1_000.0);
            assert_eq!(std::str::from_utf8(&buf).unwrap(), float, "{ns} ns");
        }
        // Integers print as `{}` does, to the last digit of the range.
        for v in [0, 9, 10, 12_345, u64::from(u32::MAX), u64::MAX] {
            buf.clear();
            push_u64(&mut buf, v);
            assert_eq!(std::str::from_utf8(&buf).unwrap(), v.to_string());
        }
    }

    #[test]
    fn a_long_export_is_flushed_in_pieces_and_loses_nothing() {
        /// Records the size of each `write` it is handed.
        struct Pieces(Vec<usize>, Vec<u8>);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let one = sample_records().get(0).unwrap();
        let records: Records = (1..=2_000).map(|id| MsgRecord { id, ..one }).collect();
        let mut out = Pieces(Vec::new(), Vec::new());
        assert_eq!(write_chrome_trace(&records, &mut out).unwrap(), 2_000);
        assert!(out.0.len() > 2, "one write per buffer, not per export");
        assert!(
            out.0.iter().all(|&n| n < FLUSH_AT + RECORD_MAX),
            "{:?}",
            out.0
        );
        let text = String::from_utf8(out.1).unwrap();
        assert!(text.ends_with("\n]}\n"));
        assert_eq!(text.matches(r#""name":"o_recv""#).count(), 2_000);
        assert!(text.contains(r#""args":{"id":2000,"bytes":0}}"#));
    }

    #[test]
    fn export_shape_and_content() {
        let mut buf = Vec::new();
        let drawn = write_chrome_trace(&sample_records(), &mut buf).unwrap();
        assert_eq!(drawn, 1);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
        assert!(text.trim_end().ends_with("]}"));
        for name in ["o_send", "tx_wait", "wire", "rx_queue", "o_recv", "proc 1"] {
            assert!(text.contains(name), "missing {name}");
        }
        // Balanced braces — a cheap structural check without a parser.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
        // Slices carry the virtual-microsecond timestamps.
        assert!(text.contains(r#""ts":0.000,"dur":1.800,"name":"o_send""#));
        assert!(text.contains(r#""ts":2.000,"dur":5.000,"name":"wire""#));
    }

    #[test]
    fn critical_ids_gain_the_extra_category() {
        let records = sample_records();
        let mut plain = Vec::new();
        let mut hl = Vec::new();
        write_chrome_trace_highlighted(&records, &[], &mut plain).unwrap();
        write_chrome_trace_highlighted(&records, &[1], &mut hl).unwrap();
        let plain = String::from_utf8(plain).unwrap();
        let hl = String::from_utf8(hl).unwrap();
        assert!(!plain.contains("critical"));
        assert!(hl.contains(r#""cat":"read,critical""#));
        assert!(hl.contains(r#""cat":"flow,critical""#));
        // The no-highlight path is byte-identical to the original export.
        let mut old = Vec::new();
        write_chrome_trace(&records, &mut old).unwrap();
        assert_eq!(plain, String::from_utf8(old).unwrap());
    }

    #[test]
    fn critical_ids_in_any_order_highlight_what_sorted_ids_do() {
        let one = sample_records().get(0).unwrap();
        let records: Records = (1..=40).map(|id| MsgRecord { id, ..one }).collect();
        let export = |critical: &[u64]| {
            let mut out = Vec::new();
            write_chrome_trace_highlighted(&records, critical, &mut out).unwrap();
            out
        };
        let sorted: Vec<u64> = (1..=40).step_by(3).collect();
        let want = export(&sorted);
        let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
        let doubled: Vec<u64> = reversed.iter().flat_map(|&id| [id, id]).collect();
        assert_eq!(export(&reversed), want);
        assert_eq!(export(&doubled), want);
        let hl = String::from_utf8(want).unwrap();
        assert_eq!(hl.matches("flow,critical").count(), 2 * sorted.len());
    }

    #[test]
    fn empty_input_is_valid_and_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(write_chrome_trace(&Records::default(), &mut a).unwrap(), 0);
        assert_eq!(write_chrome_trace(&Records::default(), &mut b).unwrap(), 0);
        assert_eq!(a, b);
        assert!(String::from_utf8(a).unwrap().contains("traceEvents"));
    }

    #[test]
    fn slice_names_are_the_message_view_labels_in_order() {
        let names = NAMES.map(|piece| piece.strip_prefix(r#","name":""#).unwrap());
        assert_eq!(names, crate::MESSAGE.labels());
    }
}
