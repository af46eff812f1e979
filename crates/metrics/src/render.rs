//! ASCII rendering of saved report files (the `nowlab report`
//! subcommand and `--metrics-summary`). Works from the parsed JSON so a
//! report renders without re-running the simulation, and so the render
//! path exercises the exact bytes a consumer would read.

use std::fmt::Write as _;

use nowlab_trace::{CostClass, PROCESSOR};

use crate::json::{parse, Value};
use crate::StateNs;

const MAX_COLS: usize = 64;

/// The column of compute time in a row of states.
const COMPUTE: usize = PROCESSOR.column(CostClass::Compute);

/// The error of a report no run can produce: states conserve to
/// `end_ns × procs`, so every sum of a real report fits in a `u64`.
fn overflow() -> String {
    "totals overflow 64 bits: not a report a run can produce".to_string()
}

/// `a + b`, checked.
fn add(a: u64, b: u64) -> Result<u64, String> {
    a.checked_add(b).ok_or_else(overflow)
}

/// The sum of `vals`, checked.
fn sum(vals: &[u64]) -> Result<u64, String> {
    vals.iter().try_fold(0, |acc, &v| add(acc, v))
}

/// Sums `vals` into at most [`MAX_COLS`] columns for terminal display.
fn downsample(vals: &[u64]) -> Result<Vec<u64>, String> {
    if vals.len() <= MAX_COLS {
        return Ok(vals.to_vec());
    }
    let group = vals.len().div_ceil(MAX_COLS);
    vals.chunks(group).map(sum).collect()
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn state_totals(v: &Value) -> Result<StateNs, String> {
    let vals = v.as_u64s().ok_or("totals: expected an integer array")?;
    vals.try_into()
        .map_err(|_| format!("totals: expected {} states", PROCESSOR.classes().len()))
}

fn shares_line(totals: &StateNs) -> Result<String, String> {
    let whole = sum(totals)?;
    let mut line = String::new();
    for (label, &ns) in PROCESSOR.labels().iter().zip(totals) {
        let _ = write!(
            line,
            "{}{label} {:.1}%",
            if line.is_empty() { "" } else { "  " },
            pct(ns, whole)
        );
    }
    Ok(line)
}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn phase_table(out: &mut String, phases: &[Value]) -> Result<(), String> {
    // Each class's column is as wide as its header, `label%`.
    let headers = PROCESSOR.labels().map(|label| format!("{label}%"));
    let _ = write!(out, "{:<14} {:>9}", "phase", "proc-ms");
    for h in &headers {
        let _ = write!(out, " {h}");
    }
    out.push('\n');
    for ph in phases {
        let name = req(ph, "name")?.as_str().ok_or("phase name")?;
        let totals = state_totals(req(ph, "totals")?)?;
        let whole = sum(&totals)?;
        let _ = write!(out, "{:<14} {:>9.3}", name, ms(whole));
        for (h, &ns) in headers.iter().zip(&totals) {
            let _ = write!(out, " {:>w$.1}", pct(ns, whole), w = h.len());
        }
        out.push('\n');
    }
    Ok(())
}

fn am_line(summary: &Value) -> Result<String, String> {
    let am = req(summary, "am")?;
    Ok(format!(
        "am protocol: retransmits {}, send window depth mean {:.2} / max {}",
        req(am, "retransmits")?.as_u64().ok_or("retransmits")?,
        req(am, "win_depth_mean")?
            .as_f64()
            .ok_or("win_depth_mean")?,
        req(am, "win_depth_max")?.as_u64().ok_or("win_depth_max")?,
    ))
}

/// The failure-detector line (schema v2). Absent in v1 files, which
/// predate the node-failure model — render nothing rather than erroring.
fn detector_line(summary: &Value) -> Result<Option<String>, String> {
    let Some(d) = summary.get("detector") else {
        return Ok(None);
    };
    Ok(Some(format!(
        "failure detector: {} heartbeats, {} suspicions ({} false), {} deaths, max detect latency {:.1} µs",
        req(d, "heartbeats")?.as_u64().ok_or("heartbeats")?,
        req(d, "suspicions")?.as_u64().ok_or("suspicions")?,
        req(d, "false_suspicions")?
            .as_u64()
            .ok_or("false_suspicions")?,
        req(d, "peer_deaths")?.as_u64().ok_or("peer_deaths")?,
        req(d, "max_detect_latency_ns")?
            .as_u64()
            .ok_or("max_detect_latency_ns")? as f64
            / 1e3,
    )))
}

/// The collective-counters line (schema v3). Absent in v1/v2 files,
/// which predate the collectives layer — render nothing rather than
/// erroring.
fn coll_line(summary: &Value) -> Result<Option<String>, String> {
    let Some(c) = summary.get("coll") else {
        return Ok(None);
    };
    Ok(Some(format!(
        "collectives: {} broadcasts, {} reductions, {} all-gathers, {} all-to-alls",
        req(c, "bcasts")?.as_u64().ok_or("bcasts")?,
        req(c, "reduces")?.as_u64().ok_or("reduces")?,
        req(c, "allgathers")?.as_u64().ok_or("allgathers")?,
        req(c, "alltoalls")?.as_u64().ok_or("alltoalls")?,
    )))
}

fn render_run(v: &Value) -> Result<String, String> {
    let mut out = String::new();
    let app = req(v, "app")?.as_str().ok_or("app")?;
    let procs = req(v, "procs")?.as_u64().ok_or("procs")? as usize;
    let seed = req(v, "seed")?.as_u64().ok_or("seed")?;
    let window_ns = req(v, "window_ns")?.as_u64().ok_or("window_ns")?;
    let end_ns = req(v, "end_ns")?.as_u64().ok_or("end_ns")?;
    let summary = req(v, "summary")?;
    let _ = writeln!(
        out,
        "metrics: {app} on {procs} processors (seed {seed}, window {:.1} µs, {:.3} ms simulated)",
        window_ns as f64 / 1e3,
        ms(end_ns),
    );
    let totals = state_totals(req(summary, "totals")?)?;
    let _ = writeln!(
        out,
        "\nstate shares (all processors):\n  {}",
        shares_line(&totals)?
    );

    // Per-processor compute-utilization shade timeline.
    let proc_rows = req(v, "proc")?.as_arr().ok_or("proc: expected array")?;
    let mut rows: Vec<Vec<u64>> = Vec::new();
    let mut nic_tx_total = 0u64;
    let mut nic_rx_total = 0u64;
    for p in proc_rows {
        let timeline = req(p, "timeline")?.as_arr().ok_or("timeline")?;
        let compute: Vec<u64> = timeline
            .iter()
            .map(|row| Ok::<u64, String>(state_totals(row)?[COMPUTE]))
            .collect::<Result<_, _>>()?;
        rows.push(downsample(&compute)?);
        let tx = req(p, "nic_tx_total")?.as_u64().ok_or("nic_tx_total")?;
        let rx = req(p, "nic_rx_total")?.as_u64().ok_or("nic_rx_total")?;
        nic_tx_total = add(nic_tx_total, tx)?;
        nic_rx_total = add(nic_rx_total, rx)?;
    }
    if !rows.is_empty() {
        let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
        let group_us = window_ns as f64 / 1e3
            * (req(v, "proc")?.as_arr().unwrap()[0]
                .get("timeline")
                .and_then(Value::as_arr)
                .map(|t| t.len().div_ceil(cols.max(1)))
                .unwrap_or(1)) as f64;
        let _ = writeln!(
            out,
            "\ncompute utilization, one cell per {group_us:.1} µs (shade ' '..'@' = none..max):"
        );
        for (i, line) in nowlab_trace::render_shade_matrix(&rows).lines().enumerate() {
            let _ = writeln!(out, "  p{i:<3}|{line}|");
        }
    }

    let _ = writeln!(out, "\nphase table:");
    phase_table(&mut out, req(summary, "phases")?.as_arr().ok_or("phases")?)?;

    let wires = req(v, "wire")?.as_arr().ok_or("wire")?;
    let busiest = wires
        .iter()
        .map(|l| {
            Ok::<_, String>((
                req(l, "busy_ns")?.as_u64().ok_or("busy_ns")?,
                req(l, "src")?.as_u64().ok_or("src")?,
                req(l, "dst")?.as_u64().ok_or("dst")?,
            ))
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .max();
    let per_proc_end = end_ns
        .checked_mul(procs.max(1) as u64)
        .ok_or_else(overflow)?;
    let _ = write!(
        out,
        "\nnic occupancy: tx {:.1}%  rx {:.1}%    links: {}",
        pct(nic_tx_total, per_proc_end),
        pct(nic_rx_total, per_proc_end),
        wires.len()
    );
    if let Some((busy, src, dst)) = busiest {
        let _ = write!(
            out,
            ", busiest {src}->{dst} ({:.1}% of elapsed)",
            pct(busy, end_ns)
        );
    }
    out.push('\n');
    let _ = writeln!(out, "{}", am_line(summary)?);
    if let Some(line) = detector_line(summary)? {
        let _ = writeln!(out, "{line}");
    }
    if let Some(line) = coll_line(summary)? {
        let _ = writeln!(out, "{line}");
    }
    let events = req(v, "events_per_window")?
        .as_u64s()
        .ok_or("events_per_window")?;
    if !events.is_empty() {
        let _ = writeln!(
            out,
            "events per window: min {} / max {} over {} windows",
            events.iter().min().unwrap(),
            events.iter().max().unwrap(),
            events.len()
        );
    }
    Ok(out)
}

fn render_sweep(v: &Value) -> Result<String, String> {
    let mut out = String::new();
    let app = req(v, "app")?.as_str().ok_or("app")?;
    let axis = req(v, "axis")?.as_str().ok_or("axis")?;
    let procs = req(v, "procs")?.as_u64().ok_or("procs")?;
    let _ = writeln!(
        out,
        "metrics sweep: {app} on {procs} processors, axis {axis}"
    );
    let points = req(v, "points")?.as_arr().ok_or("points")?;
    // Columns: per phase (taken from the first point), compute share.
    let mut phase_names: Vec<String> = Vec::new();
    if let Some(p0) = points.first() {
        for ph in req(req(p0, "summary")?, "phases")?
            .as_arr()
            .ok_or("phases")?
        {
            phase_names.push(req(ph, "name")?.as_str().ok_or("name")?.to_string());
        }
    }
    let _ = write!(out, "{:>9} {:>9}  {:>6}", axis, "slowdown", "cmp%");
    for n in &phase_names {
        let _ = write!(out, " {:>10}", format!("cmp%:{n}"));
    }
    out.push('\n');
    for p in points {
        let summary = req(p, "summary")?;
        let totals = state_totals(req(summary, "totals")?)?;
        let _ = write!(
            out,
            "{:>9.2} {:>9.3}  {:>6.1}",
            req(p, "x")?.as_f64().ok_or("x")?,
            req(p, "slowdown")?.as_f64().ok_or("slowdown")?,
            pct(totals[COMPUTE], sum(&totals)?),
        );
        for name in &phase_names {
            let share = req(summary, "phases")?
                .as_arr()
                .ok_or("phases")?
                .iter()
                .find(|ph| ph.get("name").and_then(Value::as_str) == Some(name))
                .map(|ph| {
                    let t = state_totals(req(ph, "totals")?)?;
                    Ok::<f64, String>(pct(t[COMPUTE], sum(&t)?))
                })
                .transpose()?
                .unwrap_or(0.0);
            let _ = write!(out, " {share:>10.1}");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "(cmp% = compute share of all processor time; per-phase columns show the\n compute-bound -> overhead-bound crossover as the knob grows)"
    );
    Ok(out)
}

/// Renders a saved `nowlab-metrics-report` JSON document (either kind)
/// as ASCII. Returns a message describing the first malformation found.
pub fn render_report(text: &str) -> Result<String, String> {
    render_parsed(&parse(text)?)
}

/// [`render_report`] of a document already parsed, for a caller that
/// read it to learn its schema.
pub fn render_parsed(v: &Value) -> Result<String, String> {
    let schema = req(v, "schema")?.as_str().ok_or("schema")?;
    if schema != crate::report::SCHEMA_NAME {
        return Err(format!("not a metrics report (schema '{schema}')"));
    }
    let version = req(v, "version")?.as_u64().ok_or("version")?;
    if version > crate::report::SCHEMA_VERSION {
        return Err(format!(
            "report version {version} is newer than this binary understands ({})",
            crate::report::SCHEMA_VERSION
        ));
    }
    match req(v, "kind")?.as_str() {
        Some("run") => render_run(v),
        Some("sweep") => render_sweep(v),
        k => Err(format!("unknown report kind {k:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{compute, enter, exit, phase, recorder, send, t};
    use crate::RunMeta;
    use nowlab_trace::{TraceSink, WaitKind};

    #[test]
    fn run_report_round_trips_through_json_and_renders() {
        let rec = recorder(2, 1_000);
        rec.record(&compute(0, 0, 700));
        rec.record(&phase(0, r#"wo"rk"#, 700)); // the writer escapes, the parser reads it back
        rec.record(&enter(0, WaitKind::Rx, 700));
        rec.record(&exit(0, 1_500));
        rec.record(&send(0, 0, 1_500, (1_510, 1_540), (1_540, 1_590), 2));
        let mut report = rec.finish(t(2_000));
        report.events_per_window = vec![3, 9];
        let mut buf = Vec::new();
        report
            .write_json(
                &RunMeta {
                    app: "TestApp",
                    procs: 2,
                    seed: 7,
                },
                &mut buf,
            )
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rendered = render_report(&text).expect("render");
        assert!(rendered.contains("TestApp on 2 processors"), "{rendered}");
        assert!(rendered.contains("phase table"), "{rendered}");
        assert!(rendered.contains(r#"wo"rk"#), "{rendered}");
        assert!(rendered.contains("retransmits 0"), "{rendered}");
        assert!(
            rendered.contains("failure detector: 0 heartbeats"),
            "{rendered}"
        );
        assert!(rendered.contains("collectives: 0 broadcasts"), "{rendered}");
        assert!(rendered.contains("events per window"), "{rendered}");
    }

    #[test]
    fn sweep_report_renders_per_phase_columns() {
        let rec = recorder(1, 1_000);
        rec.record(&compute(0, 0, 500));
        rec.record(&phase(0, "permute", 500));
        rec.record(&send(0, 400, 900, (900, 900), (900, 900), 1));
        let report = rec.finish(t(1_000));
        let mut buf = Vec::new();
        crate::write_sweep_json(
            "TestApp",
            "overhead",
            1,
            &[
                crate::SweepPointMeta {
                    x: 2.9,
                    runtime_ns: 1_000,
                    slowdown: 1.0,
                    summary: &report.summary,
                },
                crate::SweepPointMeta {
                    x: 10.0,
                    runtime_ns: 2_000,
                    slowdown: 2.0,
                    summary: &report.summary,
                },
            ],
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rendered = render_report(&text).expect("render");
        assert!(rendered.contains("axis overhead"), "{rendered}");
        assert!(rendered.contains("cmp%:permute"), "{rendered}");
        assert!(rendered.contains("cmp%:init"), "{rendered}");
    }

    const M: u64 = i64::MAX as u64;

    /// A minimal v3 run report: one proc row per `nic_tx` entry, each with
    /// the `compute` timeline.
    fn run_doc(
        end_ns: u64,
        procs: u64,
        nic_tx: &[u64],
        compute: &[u64],
        totals: [u64; 7],
    ) -> String {
        let row = |c: &u64| format!("[{c},0,0,0,0,0,0]");
        let timeline: Vec<String> = compute.iter().map(row).collect();
        let proc_rows: Vec<String> = nic_tx
            .iter()
            .map(|tx| {
                format!(
                    r#"{{"timeline":[{}],"nic_tx_total":{tx},"nic_rx_total":0}}"#,
                    timeline.join(",")
                )
            })
            .collect();
        format!(
            r#"{{"schema":"{}","version":3,"kind":"run","app":"A","procs":{procs},"seed":1,"window_ns":1,"end_ns":{end_ns},"proc":[{}],"wire":[],"events_per_window":[],"summary":{{"totals":{totals:?},"phases":[{{"name":"p","totals":{totals:?}}}],"am":{{"retransmits":0,"win_depth_max":0,"win_depth_mean":0.0}}}}}}"#,
            crate::report::SCHEMA_NAME,
            proc_rows.join(",")
        )
    }

    /// A minimal v3 sweep report with one point.
    fn sweep_doc(totals: [u64; 7], phase: [u64; 7]) -> String {
        format!(
            r#"{{"schema":"{}","version":3,"kind":"sweep","app":"A","axis":"o","procs":1,"points":[{{"x":1.0,"slowdown":1.0,"summary":{{"totals":{totals:?},"phases":[{{"name":"p","totals":{phase:?}}}]}}}}]}}"#,
            crate::report::SCHEMA_NAME
        )
    }

    #[test]
    fn totals_that_overflow_are_refused_not_wrapped_or_a_panic() {
        let ok = [1, 2, 3, 0, 0, 0, 0];
        let huge = [M, M, M, 0, 0, 0, 0];
        assert!(render_report(&run_doc(10, 1, &[5], &[1; 129], ok)).is_ok());
        assert!(render_report(&sweep_doc(ok, ok)).is_ok());
        for (site, doc) in [
            ("state shares", run_doc(10, 1, &[5], &[1], huge)),
            ("downsampled timeline", run_doc(10, 1, &[5], &[M; 129], ok)),
            ("nic totals", run_doc(10, 3, &[M, M, M], &[1], ok)),
            ("end_ns x procs", run_doc(M, 3, &[5], &[1], ok)),
            ("sweep point", sweep_doc(huge, ok)),
            ("sweep phase", sweep_doc(ok, huge)),
        ] {
            let err = render_report(&doc).expect_err(site);
            assert!(err.contains("overflow"), "{site}: {err}");
        }
        // The phase table sums its own rows.
        let mut out = String::new();
        let phases = parse(&format!(r#"[{{"name":"p","totals":{huge:?}}}]"#)).unwrap();
        assert!(phase_table(&mut out, phases.as_arr().unwrap())
            .unwrap_err()
            .contains("overflow"));
    }

    #[test]
    fn version_and_schema_are_checked() {
        assert!(render_report("{\"schema\":\"other\",\"version\":1}").is_err());
        let newer = format!(
            "{{\"schema\":\"{}\",\"version\":{},\"kind\":\"run\"}}",
            crate::report::SCHEMA_NAME,
            crate::report::SCHEMA_VERSION + 1
        );
        assert!(render_report(&newer).unwrap_err().contains("newer"));
    }
}
