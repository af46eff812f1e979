//! The Chrome writer against the per-slice emitter it replaced, byte for
//! byte.
//!
//! `write_chrome_trace_highlighted` lays out once what repeats — a head
//! per (processor, lane), a tail per record — and formats digits in pairs.
//! The oracle below is the writer as it was before that: every slice
//! formatted from scratch, every number through `std::fmt`. Both are
//! handed the records of three real runs (healthy, lossy, crashed) and
//! seeded synthetic records that reach the corners the runs do not.

use std::fmt::Write as _;

use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::{FaultPlan, NetConfig, NodeFault, NodeFaultPlan, RunSpec, TraceMode};
use nowlab_rng::{Rng, SeedableRng, SmallRng};
use nowlab_sim::{SimDelta, SimTime};
use nowlab_trace::chrome::write_chrome_trace_highlighted;
use nowlab_trace::{Mark, MsgRecord, Records};

/// The export as the per-slice emitter wrote it; `critical` sorted.
fn oracle(records: &[MsgRecord], critical: &[u64]) -> String {
    let mut out = String::from(r#"{"displayTimeUnit":"ms","traceEvents":["#);
    let mut first = true;
    let mut sep = |out: &mut String| {
        out.push_str(if first { "\n  " } else { ",\n  " });
        first = false;
    };
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let procs = records
        .iter()
        .map(|r| usize::from(r.src.max(r.dst)) + 1)
        .max()
        .unwrap_or(0);
    for pid in 0..procs {
        sep(&mut out);
        write!(
            out,
            r#"{{"ph":"M","pid":{pid},"name":"process_name","args":{{"name":"proc {pid}"}}}}"#
        )
        .unwrap();
        for (tid, lane) in ["cpu", "nic-tx", "wire", "nic-rx"].iter().enumerate() {
            sep(&mut out);
            write!(
                out,
                r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"{lane}"}}}}"#
            )
            .unwrap();
        }
    }
    for rec in records.iter().filter(|r| r.completed()) {
        let crit = if critical.binary_search(&rec.id).is_ok() {
            ",critical"
        } else {
            ""
        };
        let (src, dst) = (rec.src, rec.dst);
        for (pid, tid, name, start, span) in [
            (src, 0, "o_send", rec.send_begin, rec.o_send()),
            (src, 1, "tx_wait", rec.inject, rec.tx_wait()),
            (src, 1, "dma", rec.tx_start, rec.dma()),
            (src, 2, "wire", rec.wire_done, rec.wire()),
            (dst, 3, "rx_hold", rec.arrival, rec.rx_hold()),
            (dst, 3, "rx_queue", rec.visible, rec.rx_queue()),
            (dst, 0, "o_recv", rec.pop, rec.o_recv()),
        ] {
            if span.is_zero() {
                continue;
            }
            sep(&mut out);
            write!(
                out,
                r#"{{"ph":"X","pid":{pid},"tid":{tid},"ts":{},"dur":{},"name":"{name}","cat":"{}{crit}","args":{{"id":{},"bytes":{}}}}}"#,
                us(start.as_nanos()),
                us(span.as_nanos()),
                rec.kind.as_str(),
                rec.id,
                rec.bytes,
            )
            .unwrap();
        }
        for (head, pid, at) in [
            (r#"{"ph":"s","pid":"#, src, rec.send_begin),
            (r#"{"ph":"f","bp":"e","pid":"#, dst, rec.done),
        ] {
            sep(&mut out);
            write!(
                out,
                r#"{head}{pid},"tid":0,"ts":{},"id":{},"name":"msg","cat":"flow{crit}"}}"#,
                us(at.as_nanos()),
                rec.id,
            )
            .unwrap();
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Asserts the writer and the oracle agree on `records` for no highlight,
/// every id highlighted, and every other id highlighted.
fn agree(what: &str, records: &Records) {
    let list: Vec<MsgRecord> = records.iter().collect();
    let mut ids: Vec<u64> = list.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    let every_other: Vec<u64> = ids.iter().copied().step_by(2).collect();
    for (set, critical) in [
        ("none", &[][..]),
        ("all", &ids),
        ("every other", &every_other),
    ] {
        let mut got = Vec::new();
        let drawn = write_chrome_trace_highlighted(records, critical, &mut got).unwrap();
        assert_eq!(drawn, records.iter().filter(|r| r.completed()).count());
        let want = oracle(&list, critical);
        if got != want.as_bytes() {
            let at = got
                .iter()
                .zip(want.as_bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            let from = at.saturating_sub(120);
            panic!(
                "{what}, highlight {set}: first difference at byte {at}\n writer: {}\n oracle: {}",
                String::from_utf8_lossy(&got[from..(at + 120).min(got.len())]),
                &want[from..(at + 120).min(want.len())],
            );
        }
    }
}

#[test]
fn real_runs_export_what_the_per_slice_emitter_exported() {
    let now = NetConfig::berkeley_now();
    let crash = NodeFault::crash(3, SimTime::ZERO + SimDelta::from_micros_int(1_000));
    let cases = [
        ("Radix", now),
        (
            "EM3D(read)",
            now.with_faults(FaultPlan::with_drop_rate(0.02, 7)),
        ),
        (
            "Sample",
            now.with_node_faults(NodeFaultPlan::none().with_seed(1).with_fault(crash)),
        ),
    ];
    let suite = suite_scaled(SuiteScale::Test);
    for (name, net) in cases {
        let app = suite.iter().find(|a| a.name() == name).unwrap();
        let spec = RunSpec::new(8)
            .with_net(net)
            .with_event_limit(300_000_000)
            .with_time_limit(SimDelta::from_micros_int(120_000_000))
            .with_trace(TraceMode::Full);
        let records = app.run(&spec).trace.expect("trace requested").records;
        assert!(records.iter().any(|r| r.completed()), "{name}");
        agree(name, &records);
    }
}

/// Seeded records over every kind, a zero span in each of the seven
/// positions (and none), ids to 2⁵³, `bytes` of 0 and `u32::MAX`,
/// instants to 2⁵⁰ − 1 and open records, on `procs` processors.
fn synthetic(procs: u16, seed: u64) -> Records {
    const KINDS: [Mark; 6] = [
        Mark::Read,
        Mark::Write,
        Mark::Rmw,
        Mark::Bulk,
        Mark::Barrier,
        Mark::User,
    ];
    const LAST: u64 = (1 << 50) - 1;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..2_000u64)
        .map(|i| {
            let id = match i {
                0 => 1 << 53,
                1 => 1,
                _ => rng.gen_range(1..(1 << 53)) >> rng.gen_range(0..53u32),
            };
            let bytes = match i % 3 {
                0 => 0,
                1 => u32::MAX,
                _ => rng.gen_range(0..u32::MAX) >> rng.gen_range(0..32u32),
            };
            // Gaps of every magnitude; gap `i % 8` is zero (7 = none).
            let mut at = [SimTime::ZERO; 8];
            let mut t = if i == 2 {
                LAST
            } else {
                rng.gen_range(0..LAST) >> rng.gen_range(0..50u32)
            };
            for (k, slot) in at.iter_mut().enumerate() {
                if k > 0 && k - 1 != (i % 8) as usize {
                    t = (t + (rng.gen_range(0..1 << 40) >> rng.gen_range(0..41u32))).min(LAST);
                }
                *slot = SimTime::ZERO + SimDelta::from_nanos(t);
            }
            let (src, dst) = (rng.gen_range(0..procs), rng.gen_range(0..procs));
            let kind = KINDS[i as usize % KINDS.len()];
            MsgRecord::from_instants(id, src, dst, kind, bytes, at, i % 9 != 4)
        })
        .collect()
}

#[test]
fn synthetic_corners_export_what_the_per_slice_emitter_exported() {
    for procs in [1, 17] {
        for seed in 0..4 {
            agree(
                &format!("{procs} procs, seed {seed}"),
                &synthetic(procs, seed),
            );
        }
    }
    agree("no records", &Records::default());
}
