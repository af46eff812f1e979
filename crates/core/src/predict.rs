//! The `nowlab predict` engine: latency-tolerance analytics from **one**
//! traced run.
//!
//! [`predict_app`] runs the application once with full tracing, builds the
//! happens-before message DAG ([`nowlab_predict::analyze`]), then re-prices
//! the DAG symbolically at every grid point of the requested axes — no
//! re-simulation. The result carries predicted slowdown curves, a
//! λ-style tolerance threshold per axis (the parameter value where
//! slowdown first exceeds [`TOLERANCE`]), and the baseline critical-path
//! breakdown by LogGP cost bucket and application phase.
//!
//! The JSON schema follows the metrics-report conventions (the one
//! [`json::Writer`], `schema`/`version` preamble, byte-identical across runs and
//! `--jobs` settings); [`render_report_auto`] sniffs the `schema` field so
//! `nowlab report` renders either kind of file.

use std::io::{self, Write};

use nowlab_metrics::json::{self, Value};
use nowlab_predict::{analyze, tolerance_threshold, PathBreakdown};
use nowlab_sim::SimDelta;
use nowlab_trace::{TraceMode, TraceReport, CRITICAL_PATH};

use crate::report::{fmt_f, fmt_time, sparkline, Table};
use crate::sweep::par::parallel_map;
use crate::sweep::{Axis, RunSpec, SweepableApp};

/// Name of the schema emitted in every predict-report file.
pub const SCHEMA_NAME: &str = "nowlab-predict-report";
/// Version of the schema. Bump on any field removal or meaning change;
/// additions are backward compatible (see DESIGN.md §10).
pub const SCHEMA_VERSION: u64 = 2;

/// Slowdown budget defining the tolerance threshold: the reported
/// threshold is the axis value where predicted slowdown first crosses
/// `1 + TOLERANCE`.
pub const TOLERANCE: f64 = 0.05;

/// One predicted sweep point.
#[derive(Clone, Copy, Debug)]
pub struct PredictPoint {
    /// Desired absolute parameter value (µs, or MB/s for bulk bandwidth).
    pub desired: f64,
    /// Predicted runtime at this point.
    pub runtime: SimDelta,
    /// Predicted runtime ÷ measured baseline runtime.
    pub slowdown: f64,
}

/// A predicted sensitivity curve along one axis.
#[derive(Clone, Debug)]
pub struct AxisPrediction {
    /// The swept axis.
    pub axis: Axis,
    /// Predicted points at the axis's paper grid values.
    pub points: Vec<PredictPoint>,
    /// First axis value whose predicted slowdown exceeds
    /// `1 +`[`TOLERANCE`] (linear interpolation between grid points);
    /// `None` when the whole sweep stays within budget.
    pub threshold: Option<f64>,
}

/// Everything `nowlab predict` learned from one traced run.
pub struct Prediction {
    /// Application name.
    pub app: String,
    /// Processor count of the analyzed run.
    pub procs: usize,
    /// RNG seed of the analyzed run.
    pub seed: u64,
    /// Measured baseline runtime (equals the DAG's baseline critical
    /// path exactly — `analyze` verifies this).
    pub baseline: SimDelta,
    /// Happens-before DAG size: instants.
    pub nodes: usize,
    /// Happens-before DAG size: precedence edges.
    pub edges: usize,
    /// Non-fatal analysis notes (missing pairings, fallbacks).
    pub warnings: Vec<String>,
    /// One predicted curve per requested axis.
    pub axes: Vec<AxisPrediction>,
    /// Baseline critical-path attribution (buckets, phases, messages).
    pub breakdown: PathBreakdown,
    /// The baseline run's full trace — kept so callers can export a
    /// Chrome trace with [`Prediction::breakdown`]'s critical messages
    /// highlighted without re-running.
    pub trace: TraceReport,
}

/// Runs `app` once under `spec` with full tracing and predicts its
/// sensitivity curves along `axes` by symbolic re-pricing.
///
/// `jobs` parallelizes the per-grid-point evaluations; results are
/// collected by index, so output is byte-identical across job counts.
///
/// # Errors
///
/// Propagates [`nowlab_predict::PredictError`] (summary-only trace,
/// faulty run, cyclic graph, baseline mismatch) as a rendered string,
/// and refuses baselines that hit their event/time limit.
pub fn predict_app(
    app: &dyn SweepableApp,
    spec: &RunSpec,
    axes: &[Axis],
    jobs: usize,
) -> Result<Prediction, String> {
    let traced = app.run(&(*spec).with_trace(TraceMode::Full));
    if !traced.completed {
        return Err(format!(
            "{}: baseline run hit its limit; prediction needs a completed baseline",
            app.name()
        ));
    }
    let baseline = traced.runtime;
    let report = traced.trace.ok_or("trace requested but not produced")?;
    let analysis = analyze(&report, &spec.net, spec.procs, baseline)
        .map_err(|e| format!("{}: {e}", app.name()))?;
    let mut warnings: Vec<String> = analysis.warnings().to_vec();

    // Flatten every axis's grid into one work list so the points divide
    // evenly over the workers regardless of how the axes divide.
    let mut grid: Vec<(usize, f64)> = Vec::new();
    let mut cfgs: Vec<nowlab_am::NetConfig> = Vec::new();
    for (i, &axis) in axes.iter().enumerate() {
        for desired in axis.paper_values() {
            match axis.knobs_for(&spec.net.machine, desired) {
                Some(knobs) => {
                    grid.push((i, desired));
                    cfgs.push(spec.net.with_knobs(knobs));
                }
                None => warnings.push(format!(
                    "{}: {desired} is faster than the baseline; skipped",
                    axis.label()
                )),
            }
        }
    }
    // One contiguous chunk per worker: a chunk's points are re-priced
    // together, up to sixteen per sweep of the DAG over its register file,
    // so every point costs about the same share of a sweep.
    let chunks: Vec<&[nowlab_am::NetConfig]> = cfgs
        .chunks(cfgs.len().div_ceil(jobs.max(1)).max(1))
        .collect();
    let runtimes =
        parallel_map(jobs, &chunks, |_, chunk| analysis.predict_runtimes(chunk)).concat();

    let base_ns = baseline.as_nanos() as f64;
    let mut curves: Vec<AxisPrediction> = axes
        .iter()
        .map(|&axis| AxisPrediction {
            axis,
            points: Vec::new(),
            threshold: None,
        })
        .collect();
    for (&(i, desired), &runtime) in grid.iter().zip(&runtimes) {
        curves[i].points.push(PredictPoint {
            desired,
            runtime,
            slowdown: runtime.as_nanos() as f64 / base_ns,
        });
    }
    for curve in &mut curves {
        let pts: Vec<(f64, f64)> = curve
            .points
            .iter()
            .map(|p| (p.desired, p.slowdown))
            .collect();
        curve.threshold = tolerance_threshold(&pts, TOLERANCE);
    }

    let breakdown = analysis.breakdown(&spec.net);
    Ok(Prediction {
        app: app.name().to_string(),
        procs: spec.procs,
        seed: spec.seed,
        baseline,
        nodes: analysis.node_count(),
        edges: analysis.edge_count(),
        warnings,
        axes: curves,
        breakdown,
        trace: report,
    })
}

impl Prediction {
    /// Writes the versioned `"kind":"predict"` report.
    ///
    /// Same conventions as the metrics schema: one [`json::Writer`],
    /// every value an integer, fixed-precision float, or escaped label; a
    /// given run writes byte-identical files at any `--jobs` setting.
    pub fn write_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut w = json::Writer::new(w);
        w.obj()?.key("schema")?.str(SCHEMA_NAME)?;
        w.key("version")?.u64(SCHEMA_VERSION)?;
        w.key("kind")?.str("predict")?.key("app")?.str(&self.app)?;
        w.key("procs")?.u64(self.procs as u64)?;
        w.key("seed")?.u64(self.seed)?;
        w.key("baseline_ns")?.u64(self.baseline.as_nanos())?;
        w.key("tolerance")?.display(TOLERANCE)?.key("dag")?.obj()?;
        w.key("nodes")?.u64(self.nodes as u64)?;
        w.key("edges")?.u64(self.edges as u64)?.end_obj()?;
        w.key("warnings")?.arr()?;
        for warn in &self.warnings {
            w.str(warn)?;
        }
        w.end_arr()?.key("axes")?.arr()?;
        for curve in &self.axes {
            w.newline(2)?.obj()?.key("axis")?;
            w.str(curve.axis.slug())?;
            w.key("label")?.str(curve.axis.label())?.key("threshold")?;
            match curve.threshold {
                Some(t) => w.fixed(t, 3)?,
                None => w.null()?,
            };
            w.key("points")?.arr()?;
            for p in &curve.points {
                w.obj()?.key("x")?.fixed(p.desired, 3)?;
                w.key("runtime_ns")?.u64(p.runtime.as_nanos())?;
                w.key("slowdown")?.fixed(p.slowdown, 4)?.end_obj()?;
            }
            w.end_arr()?.end_obj()?;
        }
        let b = &self.breakdown;
        w.end_arr()?.newline(0)?.key("critical_path")?.obj()?;
        w.key("total_ns")?.u64(b.total.as_nanos())?;
        w.key("edges")?.u64(b.edges_on_path as u64)?;
        w.key("buckets")?.arr()?;
        for (label, d) in CRITICAL_PATH.labels().iter().zip(&b.buckets) {
            w.obj()?.key("name")?.str(label)?;
            w.key("ns")?.u64(d.as_nanos())?.end_obj()?;
        }
        w.end_arr()?.key("phases")?.arr()?;
        for row in &b.phases {
            w.newline(2)?.obj()?.key("phase")?.str(&row.label)?;
            w.key("total_ns")?.u64(row.total.as_nanos())?;
            w.key("buckets")?.arr()?;
            for d in &row.buckets {
                w.u64(d.as_nanos())?;
            }
            w.end_arr()?.end_obj()?;
        }
        w.end_arr()?.key("critical_msgs")?.arr()?;
        for &id in &b.critical_msgs {
            w.u64(id)?;
        }
        w.end_arr()?.end_obj()?.end_obj()?;
        w.finish()
    }

    /// Renders the prediction for the terminal — by round-tripping
    /// through the JSON writer and [`render_predict_report`], so the live
    /// `nowlab predict` output and a later `nowlab report FILE.json` are
    /// character-identical.
    pub fn render(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf)
            .expect("in-memory write cannot fail");
        let text = String::from_utf8(buf).expect("writer emits ASCII");
        render_predict_report(&text).expect("writer and renderer share a schema")
    }
}

/// `key` of `v`, read by `get`: missing, or of a type `get` does not
/// read, is an error.
fn field<'v, T>(v: &'v Value, key: &str, get: fn(&'v Value) -> Option<T>) -> Result<T, String> {
    let value = v.get(key).ok_or_else(|| format!("missing `{key}`"))?;
    get(value).ok_or_else(|| format!("`{key}` has the wrong type"))
}

/// Renders a saved predict-report JSON file as the `nowlab predict`
/// terminal output (sweep tables, tolerance-threshold lines, and the
/// critical-path breakdown). Every field the schema requires must be
/// there with its type; anything else is an error, never a default.
pub fn render_predict_report(text: &str) -> Result<String, String> {
    render_predict(&json::parse(text)?)
}

/// [`render_predict_report`] of a document already parsed.
fn render_predict(v: &Value) -> Result<String, String> {
    use std::fmt::Write as _;
    let schema = field(v, "schema", Value::as_str)?;
    if schema != SCHEMA_NAME {
        return Err(format!("not a predict report (schema `{schema}`)"));
    }
    let version = field(v, "version", Value::as_u64)?;
    if version > SCHEMA_VERSION {
        return Err(format!(
            "predict report version {version} is newer than this binary ({SCHEMA_VERSION})"
        ));
    }
    let app = field(v, "app", Value::as_str)?;
    let procs = field(v, "procs", Value::as_u64)?;
    let seed = field(v, "seed", Value::as_u64)?;
    let baseline_ns = field(v, "baseline_ns", Value::as_u64)?;
    let tolerance = field(v, "tolerance", Value::as_f64)?;
    let dag = field(v, "dag", Some)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "predicted from one traced run: {app} on {procs} processors (seed {seed})"
    );
    let _ = writeln!(
        out,
        "baseline runtime {} == DAG critical path ({} nodes, {} edges); no re-simulation",
        fmt_time(SimDelta::from_nanos(baseline_ns)),
        field(dag, "nodes", Value::as_u64)?,
        field(dag, "edges", Value::as_u64)?,
    );
    for warn in field(v, "warnings", Value::as_arr)? {
        let warn = warn.as_str().ok_or("`warnings`: expected strings")?;
        let _ = writeln!(out, "warning: {warn}");
    }
    let _ = writeln!(out);

    for curve in field(v, "axes", Value::as_arr)? {
        let label = field(curve, "label", Value::as_str)?;
        let mut t = Table::new(
            format!("{app}: predicted slowdown vs {label}"),
            &[label, "runtime", "slowdown", ""],
        );
        let mut rows = Vec::new();
        for p in field(curve, "points", Value::as_arr)? {
            let x = field(p, "x", Value::as_f64)?;
            let ns = field(p, "runtime_ns", Value::as_u64)?;
            rows.push((x, ns, field(p, "slowdown", Value::as_f64)?));
        }
        let slowdowns: Vec<f64> = rows.iter().map(|&(_, _, slow)| slow).collect();
        for ((x, ns, slow), glyph) in rows.into_iter().zip(sparkline(&slowdowns).chars()) {
            t.push_row([
                fmt_f(x, 1),
                fmt_time(SimDelta::from_nanos(ns)),
                fmt_f(slow, 2),
                glyph.to_string(),
            ]);
        }
        let _ = write!(out, "{t}");
        let axis = field(curve, "axis", Value::as_str)?;
        let pct = tolerance * 100.0;
        let _ = match field(curve, "threshold", Some)? {
            Value::Null => writeln!(
                out,
                "tolerance threshold [{axis}]: beyond the sweep — \
                 predicted slowdown stays within {pct:.0}%"
            ),
            thr => {
                let thr = thr.as_f64().ok_or("`threshold` has the wrong type")?;
                let thr = fmt_f(thr, 1);
                writeln!(
                    out,
                    "tolerance threshold [{axis}]: {thr} — first {pct:.0}% predicted slowdown"
                )
            }
        };
        let _ = writeln!(out);
    }

    let cp = field(v, "critical_path", Some)?;
    let total_ns = field(cp, "total_ns", Value::as_u64)?;
    let mut t = Table::new(
        format!(
            "baseline critical path: {} over {} edges",
            fmt_time(SimDelta::from_nanos(total_ns)),
            field(cp, "edges", Value::as_u64)?
        ),
        &["bucket", "time", "share"],
    );
    for bucket in field(cp, "buckets", Value::as_arr)? {
        let name = field(bucket, "name", Value::as_str)?;
        let ns = field(bucket, "ns", Value::as_u64)?;
        if ns == 0 {
            continue; // unused buckets add noise, not information
        }
        let share = if total_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / total_ns as f64
        };
        t.push_row([
            name.to_string(),
            fmt_time(SimDelta::from_nanos(ns)),
            format!("{}%", fmt_f(share, 1)),
        ]);
    }
    let _ = write!(out, "{t}");

    let phases = field(cp, "phases", Value::as_arr)?;
    if !phases.is_empty() {
        let mut headers: Vec<&str> = vec!["phase", "total"];
        headers.extend(CRITICAL_PATH.labels());
        let _ = writeln!(out);
        let mut t = Table::new("critical path by phase", &headers);
        for row in phases {
            let label = field(row, "phase", Value::as_str)?;
            let ns = field(row, "total_ns", Value::as_u64)?;
            let buckets = field(row, "buckets", Value::as_u64s)?;
            if buckets.len() != CRITICAL_PATH.classes().len() {
                return Err(format!("phase row has {} buckets", buckets.len()));
            }
            let mut cells = vec![label.to_string(), fmt_time(SimDelta::from_nanos(ns))];
            cells.extend(buckets.iter().map(|&b| {
                if b == 0 {
                    "-".to_string()
                } else {
                    fmt_time(SimDelta::from_nanos(b))
                }
            }));
            t.push_row(cells);
        }
        let _ = write!(out, "{t}");
    }
    let critical = field(cp, "critical_msgs", Value::as_u64s)?;
    let _ = writeln!(out, "\nmessages on the critical path: {}", critical.len());
    Ok(out.trim_end().to_string())
}

/// Renders a saved report of either schema: predict reports go through
/// [`render_predict_report`], everything else through the metrics
/// renderer, from one parse of `text`. This is what `nowlab report
/// FILE.json` calls.
pub fn render_report_auto(text: &str) -> Result<String, String> {
    let v = json::parse(text)?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA_NAME) => render_predict(&v),
        _ => nowlab_metrics::render_parsed(&v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_predict::PhaseRow;
    use nowlab_trace::CostClass;

    fn sample() -> Prediction {
        let d = SimDelta::from_nanos;
        let mut buckets = [SimDelta::ZERO; 8];
        buckets[CRITICAL_PATH.column(CostClass::Compute)] = d(700);
        buckets[CRITICAL_PATH.column(CostClass::Wire)] = d(300);
        Prediction {
            app: "Toy".into(),
            procs: 4,
            seed: 1,
            baseline: d(1_000),
            nodes: 12,
            edges: 20,
            warnings: vec!["no request/reply pairs".into()],
            axes: vec![AxisPrediction {
                axis: Axis::Latency,
                points: vec![
                    PredictPoint {
                        desired: 5.0,
                        runtime: d(1_000),
                        slowdown: 1.0,
                    },
                    PredictPoint {
                        desired: 15.0,
                        runtime: d(1_200),
                        slowdown: 1.2,
                    },
                ],
                threshold: Some(7.5),
            }],
            breakdown: PathBreakdown {
                total: d(1_000),
                buckets,
                phases: vec![PhaseRow {
                    label: "(startup)".into(),
                    buckets,
                    total: d(1_000),
                }],
                critical_msgs: vec![3, 9],
                edges_on_path: 7,
            },
            trace: TraceReport::default(),
        }
    }

    #[test]
    fn json_round_trips_through_the_renderer() {
        let p = sample();
        let text = p.render();
        assert!(text.contains("predicted from one traced run: Toy"));
        assert!(text.contains("tolerance threshold [latency]: 7.5"));
        assert!(text.contains("warning: no request/reply pairs"));
        assert!(text.contains("messages on the critical path: 2"));
        assert!(text.contains("compute"));
        // Unused buckets are suppressed in the share table (only the
        // 70% compute / 30% wire rows survive).
        assert!(text.contains("70.0%"));
        assert!(text.contains("30.0%"));
        assert!(!text.contains("0.0us"));

        // Names that carry the JSON-special characters come back from
        // the file as they went in.
        let mut p = sample();
        p.app = r#"To"y"#.into();
        p.breakdown.phases[0].label = r#"sort "keys"\"#.into();
        let text = p.render();
        assert!(text.contains(r#"predicted from one traced run: To"y"#));
        assert!(text.contains(r#"sort "keys"\"#));
    }

    #[test]
    fn a_wrongly_typed_field_is_an_error_not_a_default() {
        let mut buf = Vec::new();
        sample().write_json(&mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();
        assert!(render_predict_report(&good).is_ok());
        for (from, to, named) in [
            ("\"version\":2", "\"version\":\"2\"", "version"),
            ("\"version\":2", "\"version\":-2", "version"),
            ("\"app\":\"Toy\"", "\"app\":null", "app"),
            ("\"procs\":4", "\"procs\":4.5", "procs"),
            ("\"tolerance\":0.05", "\"tolerance\":\"5%\"", "tolerance"),
            ("\"nodes\":12", "\"nodes\":\"12\"", "nodes"),
            ("[\"no request/reply pairs\"]", "[1]", "warnings"),
            ("\"label\":\"latency (us)\"", "\"label\":[]", "label"),
            ("\"slowdown\":1.2000", "\"slowdown\":\"1.2\"", "slowdown"),
            ("\"threshold\":7.500", "\"threshold\":\"7.5\"", "threshold"),
            (
                "\"total_ns\":1000,\"edges\"",
                "\"total_ns\":\"1000\",\"edges\"",
                "total_ns",
            ),
            ("\"name\":\"compute\"", "\"name\":2", "name"),
            (
                "{\"name\":\"o_send\",\"ns\":0}",
                "{\"name\":\"o_send\"}",
                "ns",
            ),
            (
                "\"buckets\":[0,0,700",
                "\"buckets\":[0,0,\"700\"",
                "buckets",
            ),
            (",\"critical_msgs\":[3,9]", "", "critical_msgs"),
        ] {
            assert!(good.contains(from), "the sample writes {from}");
            let err = render_predict_report(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(&format!("`{named}`")), "{to}: {err}");
        }
    }

    #[test]
    fn report_dispatch_sniffs_the_schema() {
        let p = sample();
        let mut buf = Vec::new();
        p.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(render_report_auto(&text).unwrap(), p.render());
        assert!(render_report_auto("{\"schema\":\"bogus\"}").is_err());
        assert!(render_report_auto("not json").is_err());
    }

    #[test]
    fn writer_is_deterministic_and_versioned() {
        let p = sample();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.write_json(&mut a).unwrap();
        p.write_json(&mut b).unwrap();
        assert_eq!(a, b);
        let v = json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("predict"));
        let axes = v.get("axes").unwrap().as_arr().unwrap();
        assert_eq!(axes[0].get("axis").unwrap().as_str(), Some("latency"));
        let cp = v.get("critical_path").unwrap();
        assert_eq!(cp.get("total_ns").unwrap().as_u64(), Some(1_000));
        assert_eq!(cp.get("critical_msgs").unwrap().as_u64s(), Some(vec![3, 9]));
    }
}
