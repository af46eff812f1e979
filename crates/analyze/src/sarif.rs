//! SARIF 2.1.0 exporter.
//!
//! `--format sarif` renders the diagnostics as a minimal-but-conformant
//! SARIF log: one run, the driver's rule table generated from the
//! [`explain`](crate::explain) registry (stable `ruleIndex` = catalogue
//! position), and one result per diagnostic with a physical location.
//! Like the metrics reports, the output is held to a checked-in schema in
//! CI (`schemas/sarif-subset.schema.json`, validated by
//! `scripts/check_schema.py`) so downstream tooling can trust the shape.
//!
//! Written through [`nowlab_metrics::json::Writer`], the writer every
//! report of the workspace shares: it decides every comma and escape.

use std::io;

use nowlab_metrics::json::Writer;

use crate::explain::LINTS;
use crate::{Diagnostic, Severity};

const SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";
const INFORMATION_URI: &str = "https://example.invalid/nowlab";

/// Renders a complete SARIF 2.1.0 log for `diags`. Diagnostics should
/// already be sorted (the scan returns them sorted by path/line/code);
/// the output is deterministic for a given input.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = Vec::with_capacity(4096 + diags.len() * 256);
    write(diags, &mut out).expect("in-memory write cannot fail");
    String::from_utf8(out).expect("the writer copies UTF-8 through")
}

/// Writes `{"text": s}`.
fn text<W: io::Write>(w: &mut Writer<W>, s: &str) -> io::Result<()> {
    w.obj()?.key("text")?.str(s)?.end_obj()?;
    Ok(())
}

fn write<W: io::Write>(diags: &[Diagnostic], out: W) -> io::Result<()> {
    let mut w = Writer::new(out);
    w.obj()?.key("$schema")?.str(SCHEMA)?;
    w.key("version")?.str("2.1.0")?;
    w.key("runs")?.arr()?.obj()?;
    w.key("tool")?.obj()?.key("driver")?.obj()?;
    w.key("name")?.str("nowlab-analyze")?;
    w.key("version")?.str(env!("CARGO_PKG_VERSION"))?;
    w.key("informationUri")?.str(INFORMATION_URI)?;
    w.key("rules")?.arr()?;
    for l in LINTS {
        w.newline(2)?.obj()?.key("id")?.str(l.code)?;
        w.key("shortDescription")?;
        text(&mut w, l.summary)?;
        w.key("fullDescription")?;
        text(&mut w, l.rationale)?;
        w.key("defaultConfiguration")?.obj()?;
        w.key("level")?.str(level(l.severity))?;
        w.end_obj()?.end_obj()?;
    }
    w.end_arr()?.end_obj()?.end_obj()?;
    w.key("results")?.arr()?;
    for d in diags {
        let rule_index = LINTS
            .iter()
            .position(|l| l.code == d.code)
            .map_or(-1, |p| p as i64);
        w.newline(2)?.obj()?.key("ruleId")?.str(d.code)?;
        w.key("ruleIndex")?.display(rule_index)?;
        w.key("level")?.str(level(d.severity()))?;
        w.key("message")?;
        text(&mut w, &d.message)?;
        w.key("locations")?.arr()?.obj()?;
        w.key("physicalLocation")?.obj()?;
        w.key("artifactLocation")?.obj()?;
        w.key("uri")?.str(&d.path)?.end_obj()?;
        w.key("region")?.obj()?;
        w.key("startLine")?.u64(u64::from(d.line.max(1)))?;
        w.end_obj()?.end_obj()?.end_obj()?.end_arr()?.end_obj()?;
    }
    w.end_arr()?.end_obj()?.end_arr()?.end_obj()?;
    w.finish()
}

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_metrics::json::{parse, Value};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                path: "crates/am/src/stats.rs".into(),
                line: 222,
                code: "FLT001",
                message: "float `.sum()` with \"quotes\" and\nnewline".into(),
            },
            Diagnostic {
                path: "crates/core/src/models.rs".into(),
                line: 169,
                code: "TIM002",
                message: "mixed units".into(),
            },
        ]
    }

    /// The rendered log, parsed back.
    fn parsed(diags: &[Diagnostic]) -> Value {
        parse(&render(diags)).expect("the log parses as JSON")
    }

    fn path<'v>(v: &'v Value, keys: &[&str]) -> &'v Value {
        keys.iter()
            .fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("{k}")))
    }

    fn run(log: &Value) -> &Value {
        &log.get("runs").and_then(Value::as_arr).expect("runs")[0]
    }

    #[test]
    fn renders_rules_results_and_escapes() {
        let log = parsed(&sample());
        assert_eq!(log.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = run(&log);
        // Every registry rule is present, in catalogue order.
        let rules = path(run, &["tool", "driver", "rules"]).as_arr().unwrap();
        let ids: Vec<&str> = rules
            .iter()
            .map(|r| r.get("id").and_then(Value::as_str).unwrap())
            .collect();
        let codes: Vec<&str> = LINTS.iter().map(|l| l.code).collect();
        assert_eq!(ids, codes);
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        let (flt, tim) = (&results[0], &results[1]);
        assert_eq!(flt.get("ruleId").and_then(Value::as_str), Some("FLT001"));
        assert_eq!(flt.get("level").and_then(Value::as_str), Some("error"));
        assert_eq!(tim.get("level").and_then(Value::as_str), Some("warning"));
        // ruleIndex matches the catalogue position of the code.
        let idx = LINTS.iter().position(|l| l.code == "FLT001").unwrap();
        assert_eq!(
            flt.get("ruleIndex").and_then(Value::as_u64),
            Some(idx as u64)
        );
        let loc = &flt.get("locations").and_then(Value::as_arr).unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(path(phys, &["region", "startLine"]).as_u64(), Some(222));
        assert_eq!(
            path(phys, &["artifactLocation", "uri"]).as_str(),
            Some("crates/am/src/stats.rs")
        );
        // The quotes and the newline survive the round trip.
        assert_eq!(
            path(flt, &["message", "text"]).as_str(),
            Some("float `.sum()` with \"quotes\" and\nnewline")
        );
        let s = render(&sample());
        assert!(s.contains("and\\nnewline"));
        assert!(s.contains("\\\"quotes\\\""));
    }

    #[test]
    fn empty_scan_still_renders_a_valid_run() {
        let log = parsed(&[]);
        let run = run(&log);
        assert_eq!(run.get("results"), Some(&Value::Arr(Box::default())));
        let rules = path(run, &["tool", "driver", "rules"]).as_arr().unwrap();
        assert_eq!(rules.len(), LINTS.len());
    }

    #[test]
    fn output_parses_as_json() {
        let s = render(&sample());
        assert!(s.ends_with("}\n"));
        let log = parse(&s).expect("the log parses as JSON");
        assert!(log.get("$schema").and_then(Value::as_str).is_some());
    }
}
