//! Chrome-trace (`about:tracing` / Perfetto "JSON object format") export.
//!
//! Each completed [`MsgRecord`] becomes a train of complete (`"ph":"X"`)
//! slices laid out on four lanes per processor — `cpu`, `nic-tx`, `wire`,
//! `nic-rx` — plus a flow arrow from the send slice to the receive slice,
//! so a message's whole LogGP decomposition reads left-to-right in the
//! viewer. Timestamps are virtual microseconds (the viewer's native
//! unit); nothing host-side leaks into the file, so two runs of the same
//! (program, seed) export byte-identical traces.
//!
//! The JSON is hand-rolled: every emitted value is a number or a fixed
//! ASCII label, so no escaping is required and no serializer dependency
//! is taken.

use std::io::{self, Write};

use nowlab_sim::{SimDelta, SimTime};

use crate::MsgRecord;

/// Thread-id lanes within each processor's track.
const LANE_CPU: u32 = 0;
const LANE_NIC_TX: u32 = 1;
const LANE_WIRE: u32 = 2;
const LANE_NIC_RX: u32 = 3;

fn ts(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

fn dur(d: SimDelta) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

struct Emitter<'a, W: Write> {
    w: &'a mut W,
    first: bool,
    /// Whether the record currently being drawn is on the critical path.
    crit: bool,
}

impl<W: Write> Emitter<'_, W> {
    fn sep(&mut self) -> io::Result<()> {
        if self.first {
            self.first = false;
            write!(self.w, "\n  ")
        } else {
            write!(self.w, ",\n  ")
        }
    }

    fn meta(&mut self, pid: usize, tid: Option<u32>, what: &str, name: &str) -> io::Result<()> {
        self.sep()?;
        match tid {
            Some(tid) => write!(
                self.w,
                r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"{what}","args":{{"name":"{name}"}}}}"#
            ),
            None => write!(
                self.w,
                r#"{{"ph":"M","pid":{pid},"name":"{what}","args":{{"name":"{name}"}}}}"#
            ),
        }
    }

    fn slice(
        &mut self,
        rec: &MsgRecord,
        pid: usize,
        tid: u32,
        name: &str,
        start: SimTime,
        span: SimDelta,
    ) -> io::Result<()> {
        if span.is_zero() {
            return Ok(()); // keep files small: empty spans draw nothing
        }
        self.sep()?;
        // Categories are comma-separated in the trace format; critical-path
        // messages get an extra `critical` category so the viewer can
        // filter or color them.
        let extra = if self.crit { ",critical" } else { "" };
        write!(
            self.w,
            r#"{{"ph":"X","pid":{pid},"tid":{tid},"ts":{:.3},"dur":{:.3},"name":"{name}","cat":"{}{extra}","args":{{"id":{},"bytes":{}}}}}"#,
            ts(start),
            dur(span),
            rec.kind.as_str(),
            rec.id,
            rec.bytes,
        )
    }

    fn flow(&mut self, rec: &MsgRecord) -> io::Result<()> {
        let cat = if self.crit { "flow,critical" } else { "flow" };
        self.sep()?;
        write!(
            self.w,
            r#"{{"ph":"s","pid":{},"tid":{LANE_CPU},"ts":{:.3},"id":{},"name":"msg","cat":"{cat}"}}"#,
            rec.src,
            ts(rec.send_begin),
            rec.id,
        )?;
        self.sep()?;
        write!(
            self.w,
            r#"{{"ph":"f","bp":"e","pid":{},"tid":{LANE_CPU},"ts":{:.3},"id":{},"name":"msg","cat":"{cat}"}}"#,
            rec.dst,
            ts(rec.done),
            rec.id,
        )
    }
}

/// Writes the records as a Chrome-trace JSON object (`{"traceEvents":
/// [...]}`). Only completed records are drawn; returns how many were.
pub fn write_chrome_trace<W: Write>(records: &[MsgRecord], w: &mut W) -> io::Result<usize> {
    write_chrome_trace_highlighted(records, &[], w)
}

/// Like [`write_chrome_trace`], with the messages whose trace ids appear
/// in `critical` (sorted ascending) tagged with an extra `critical`
/// category on every slice and flow arrow — the viewer's category filter
/// then isolates the predicted critical path.
pub fn write_chrome_trace_highlighted<W: Write>(
    records: &[MsgRecord],
    critical: &[u64],
    w: &mut W,
) -> io::Result<usize> {
    debug_assert!(critical.windows(2).all(|w| w[0] < w[1]), "sorted ids");
    write!(w, r#"{{"displayTimeUnit":"ms","traceEvents":["#)?;
    let mut em = Emitter {
        w,
        first: true,
        crit: false,
    };
    let procs = records
        .iter()
        .map(|r| r.src.max(r.dst) + 1)
        .max()
        .unwrap_or(0);
    for pid in 0..procs {
        em.meta(pid, None, "process_name", &format!("proc {pid}"))?;
        em.meta(pid, Some(LANE_CPU), "thread_name", "cpu")?;
        em.meta(pid, Some(LANE_NIC_TX), "thread_name", "nic-tx")?;
        em.meta(pid, Some(LANE_WIRE), "thread_name", "wire")?;
        em.meta(pid, Some(LANE_NIC_RX), "thread_name", "nic-rx")?;
    }
    let mut drawn = 0;
    for rec in records.iter().filter(|r| r.completed) {
        drawn += 1;
        em.crit = critical.binary_search(&rec.id).is_ok();
        em.slice(rec, rec.src, LANE_CPU, "o_send", rec.send_begin, rec.o_send)?;
        em.slice(
            rec,
            rec.src,
            LANE_NIC_TX,
            "tx_wait",
            rec.inject,
            rec.tx_wait,
        )?;
        em.slice(rec, rec.src, LANE_NIC_TX, "dma", rec.tx_start, rec.dma)?;
        em.slice(rec, rec.src, LANE_WIRE, "wire", rec.wire_done, rec.wire)?;
        em.slice(
            rec,
            rec.dst,
            LANE_NIC_RX,
            "rx_hold",
            rec.arrival,
            rec.rx_hold,
        )?;
        em.slice(
            rec,
            rec.dst,
            LANE_NIC_RX,
            "rx_queue",
            rec.visible,
            rec.rx_queue,
        )?;
        em.slice(rec, rec.dst, LANE_CPU, "o_recv", rec.pop, rec.o_recv)?;
        em.flow(rec)?;
    }
    writeln!(em.w, "\n]}}")?;
    Ok(drawn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        MsgKind, RecvEvent, SendEvent, TraceEvent, TraceRecorder, TraceSink, VisibleEvent,
    };

    fn us(x: f64) -> SimTime {
        SimTime::ZERO + SimDelta::from_micros(x)
    }

    fn sample_records() -> Vec<MsgRecord> {
        let rec = TraceRecorder::new(true);
        rec.record(&TraceEvent::Send(SendEvent {
            id: 1,
            src: 0,
            dst: 1,
            reply: false,
            kind: MsgKind::Read,
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
            kind: MsgKind::Write,
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
    fn empty_input_is_valid_and_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(write_chrome_trace(&[], &mut a).unwrap(), 0);
        assert_eq!(write_chrome_trace(&[], &mut b).unwrap(), 0);
        assert_eq!(a, b);
        assert!(String::from_utf8(a).unwrap().contains("traceEvents"));
    }
}
