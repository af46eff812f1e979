//! The six end-to-end workloads and their output checks.
//!
//! Every workload drives the simulator through the same public entry
//! points the `nowlab` CLI uses (`sweep_many`, `SweepableApp::run`,
//! `predict_app`, the trace and metrics exporters). Apps are wrapped in
//! [`Recorded`], which logs each run's fingerprint so outputs can be
//! checked on every pass — and, in the traced run, times the call as a
//! span. No simulated number is hard-coded: checks compare runs with each
//! other, so a model change shows up as a count, not a benchmark failure.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::{
    json, predict_app, render_report, sweep_many, Axis, MetricsMode, RunMeta, RunOutcome, RunSpec,
    SweepableApp, TraceMode,
};
use nowlab_trace::chrome::write_chrome_trace;

use crate::spans::{spanned, Scope, SpanId, Tracer};
use crate::yardstick::Gauge;

/// Simulated processors in every workload.
pub const PROCS: usize = 16;
/// Livelock guard, far above any completing run at benchmark scale.
pub const EVENT_LIMIT: u64 = 150_000_000;

/// Per-process settings shared by set-up and every pass.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub scale: SuiteScale,
    pub seed: u64,
}

impl Settings {
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(PROCS)
            .with_event_limit(EVENT_LIMIT)
            .with_seed(self.seed)
    }
}

/// What must repeat exactly from pass to pass. For an app run these are
/// the simulated runtime, events fired, messages sent and the app's
/// checksum; for a prediction they are the baseline runtime, DAG nodes,
/// DAG edges and a fold of the predicted runtimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub runtime_ns: u64,
    pub events: u64,
    pub sends: u64,
    pub check: u64,
}

impl Fingerprint {
    fn of_run(out: &RunOutcome) -> Self {
        Fingerprint {
            runtime_ns: out.runtime.as_nanos(),
            events: out.events,
            sends: out.stats.total_sends(),
            check: out.check,
        }
    }
}

/// One app run or one prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub app: String,
    /// The LogGP point (empty for a prediction); `app` + `point` identify
    /// an op within a pass.
    pub point: String,
    /// The run completed and passed its workload-specific checks.
    pub ok: bool,
    pub fp: Fingerprint,
}

impl Op {
    fn of_run(app: &str, spec: &RunSpec, out: &RunOutcome) -> Self {
        let k = spec.net.knobs;
        Op {
            app: app.to_string(),
            point: format!(
                "o+{} g+{} L+{} G+{}",
                k.d_o.as_nanos(),
                k.d_g.as_nanos(),
                k.d_lat.as_nanos(),
                k.d_gap_per_byte.as_nanos()
            ),
            ok: out.completed,
            fp: Fingerprint::of_run(out),
        }
    }
}

/// State the [`Recorded`] wrappers share with the pass that drives them.
pub struct Shared {
    log: Mutex<Vec<Op>>,
    tracer: Option<Arc<Tracer>>,
    /// Span the next app runs are children of (`usize::MAX`: none).
    parent: AtomicUsize,
}

impl Shared {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(Shared {
            log: Mutex::new(Vec::new()),
            tracer,
            parent: AtomicUsize::new(usize::MAX),
        })
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    fn set_parent(&self, parent: Option<SpanId>) {
        // Relaxed: the id is published to workers by the thread spawn
        // inside `parallel_map`, which happens after this store.
        self.parent
            .store(parent.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    fn take_log(&self) -> Vec<Op> {
        std::mem::take(&mut *self.log.lock().expect("no app run panics mid-push"))
    }
}

/// A suite app seen from outside: forwards `run`, logs the outcome's
/// fingerprint, and (traced run only) times the call as an `apps` span.
pub struct Recorded {
    inner: Box<dyn SweepableApp>,
    shared: Arc<Shared>,
}

impl SweepableApp for Recorded {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let parent = self.shared.parent.load(Ordering::Relaxed);
        let out = match self.shared.tracer() {
            Some(t) if parent != usize::MAX => {
                let out = t.child(parent, "apps", self.name(), |_| self.inner.run(spec));
                t.count("apps.runs", 1);
                t.count("sim.events", out.events);
                t.count("am.sends", out.stats.total_sends());
                out
            }
            _ => self.inner.run(spec),
        };
        self.shared
            .log
            .lock()
            .expect("no app run panics mid-push")
            .push(Op::of_run(self.name(), spec, &out));
        out
    }
}

/// `"EM3D(write)"` and `"em3dwrite"` name the same app.
fn norm(s: &str) -> String {
    s.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// The named suite apps, wrapped, in the order asked for.
fn pick(scale: SuiteScale, shared: &Arc<Shared>, names: &[&str]) -> Vec<Box<dyn SweepableApp>> {
    let mut suite: Vec<Option<Box<dyn SweepableApp>>> =
        suite_scaled(scale).into_iter().map(Some).collect();
    names
        .iter()
        .map(|want| {
            let inner = suite
                .iter_mut()
                .find(|a| a.as_ref().is_some_and(|a| norm(a.name()) == norm(want)))
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("suite has no app `{want}`"));
            Box::new(Recorded {
                inner,
                shared: Arc::clone(shared),
            }) as Box<dyn SweepableApp>
        })
        .collect()
}

/// One `sweep_many` call of a sweep workload.
struct SweepCall {
    apps: Vec<Box<dyn SweepableApp>>,
    axis: Axis,
    values: Vec<f64>,
}

/// What a workload executes on each pass.
enum Plan {
    /// `sweep_many` calls, each on `jobs` workers.
    Sweep { calls: Vec<SweepCall>, jobs: usize },
    /// Full trace + metrics on each app, then every exporter.
    Observed { apps: Vec<Box<dyn SweepableApp>> },
    /// `predict_app` on each app along overhead + latency.
    Predict { apps: Vec<Box<dyn SweepableApp>> },
}

/// A workload ready to run passes.
pub struct Prepared {
    name: String,
    settings: Settings,
    shared: Arc<Shared>,
    plan: Plan,
    /// `observed`, `predict`: the untraced baseline run of each app, taken
    /// in set-up.
    reference: Vec<Op>,
}

/// What one pass did.
pub struct PassOutcome {
    /// Ops in a pass-independent order (sorted by app and point).
    pub ops: Vec<Op>,
    /// Simulated events fired in the pass.
    pub events: u64,
}

const PREDICT_AXES: [Axis; 2] = [Axis::Overhead, Axis::Latency];

/// Builds workload `name` at `settings.scale`. The grids are ISSUE 11's;
/// every axis list starts at the Berkeley NOW's own value, which
/// `sweep_many` takes as the baseline.
///
/// # Errors
///
/// A name with no plan here, or `suite_par` on a host with fewer cores
/// than its two workers.
pub fn prepare(
    name: &str,
    settings: Settings,
    tracer: Option<Arc<Tracer>>,
) -> Result<Prepared, String> {
    let shared = Shared::new(tracer);
    let apps = |names: &[&str]| pick(settings.scale, &shared, names);
    let call = |names: &[&str], axis, values: &[f64]| SweepCall {
        apps: apps(names),
        axis,
        values: values.to_vec(),
    };
    let plan = match name {
        "sweep_write" => {
            let writers = ["radix", "em3dwrite"];
            Plan::Sweep {
                calls: vec![
                    call(&writers, Axis::Overhead, &[2.9, 6.9, 13.0, 53.0, 103.0]),
                    call(&writers, Axis::Latency, &[5.0, 10.0, 30.0, 55.0, 105.0]),
                ],
                jobs: 1,
            }
        }
        "sweep_read" => {
            let readers = ["em3dread", "murphi"];
            Plan::Sweep {
                calls: vec![
                    call(&readers, Axis::Latency, &[5.0, 30.0, 105.0]),
                    call(&readers, Axis::Overhead, &[2.9, 13.0]),
                    call(&["barnes"], Axis::Latency, &[5.0, 105.0]),
                ],
                jobs: 1,
            }
        }
        "bulk_compute" => {
            let bulk = ["radb", "nowsort", "pray", "connect"];
            let full = |axis: Axis| call(&bulk, axis, &axis.paper_values());
            Plan::Sweep {
                calls: vec![
                    full(Axis::BulkBandwidth),
                    full(Axis::Gap),
                    full(Axis::Overhead),
                ],
                jobs: 1,
            }
        }
        "suite_par" => {
            let jobs = 2;
            let nproc = nowlab_core::default_jobs();
            if jobs > nproc {
                return Err(format!(
                    "suite_par needs {jobs} workers but this host has {nproc} core(s)"
                ));
            }
            let all: Vec<String> = suite_scaled(settings.scale)
                .iter()
                .map(|a| a.name().to_string())
                .collect();
            let all: Vec<&str> = all.iter().map(String::as_str).collect();
            Plan::Sweep {
                calls: vec![call(&all, Axis::Overhead, &[2.9, 13.0, 53.0])],
                jobs,
            }
        }
        "observed" => Plan::Observed {
            apps: apps(&["radix", "em3dread"]),
        },
        "predict" => Plan::Predict {
            apps: apps(&["radix", "em3dwrite"]),
        },
        other => return Err(format!("workload `{other}` has no plan in workloads.rs")),
    };
    let mut prepared = Prepared {
        name: name.to_string(),
        settings,
        shared,
        plan,
        reference: Vec::new(),
    };
    prepared.take_reference();
    Ok(prepared)
}

/// Counts bytes and discards them, so exporter output (hundreds of MB for
/// a Chrome trace) never sits in this process's RSS.
#[derive(Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Prepared {
    /// Runs each `observed`/`predict` app once, untraced, at baseline.
    fn take_reference(&mut self) {
        let (Plan::Observed { apps } | Plan::Predict { apps }) = &self.plan else {
            return;
        };
        self.shared.set_parent(None);
        for app in apps {
            app.run(&self.settings.spec());
        }
        self.reference = self.shared.take_log();
    }

    /// Executes the workload once, timing each `sweep_many` call,
    /// observed run or prediction as one segment of `gauge`. `tracing`
    /// selects whether this pass records spans (the traced run also makes
    /// an untraced pass, to price the tracing itself).
    pub fn pass(&self, tracing: bool, gauge: &mut Gauge) -> PassOutcome {
        let mut ops = match self.shared.tracer().filter(|_| tracing) {
            Some(t) => t.root(&self.name, "harness", "pass", |id| {
                self.run_plan(Some((t, id)), gauge)
            }),
            None => self.run_plan(None, gauge),
        };
        self.shared.set_parent(None);
        ops.sort_by(|a, b| (&a.app, &a.point).cmp(&(&b.app, &b.point)));
        let events = match &self.plan {
            // The traced baseline is the only simulation a prediction
            // does; tracing never changes a run's event count.
            Plan::Predict { .. } => self.reference.iter().map(|r| r.fp.events).sum(),
            _ => ops.iter().map(|o| o.fp.events).sum(),
        };
        PassOutcome { ops, events }
    }

    fn run_plan(&self, scope: Scope<'_>, gauge: &mut Gauge) -> Vec<Op> {
        let spec = self.settings.spec();
        let ops = match &self.plan {
            Plan::Sweep { calls, jobs } => {
                for c in calls {
                    let label = format!("sweep_many {}", c.axis.label());
                    // An incomplete baseline leaves its runs in the log
                    // with `ok == false`; the `Err` adds nothing.
                    let _ = gauge.time(|| {
                        spanned(scope, "core", &label, |inner| {
                            self.shared.set_parent(inner.map(|(_, id)| id));
                            sweep_many(&c.apps, &spec, c.axis, &c.values, *jobs)
                        })
                    });
                }
                return self.shared.take_log();
            }
            Plan::Observed { apps } => {
                self.shared.set_parent(scope.map(|(_, id)| id));
                apps.iter()
                    .zip(&self.reference)
                    .map(|(app, reference)| {
                        gauge.time(|| observe(app.as_ref(), &spec, reference, scope))
                    })
                    .collect()
            }
            Plan::Predict { apps } => apps
                .iter()
                .map(|app| gauge.time(|| predict(app.as_ref(), &spec, &self.shared, scope)))
                .collect(),
        };
        // These two plans report the checked ops built above, not the raw
        // runs `Recorded` logged along the way.
        self.shared.take_log();
        ops
    }
}

/// What exporting one run's observations cost and produced. A run made
/// without a trace or without metrics leaves that half zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exports {
    /// Every export of what the run carried succeeded, and the metrics
    /// JSON parsed back to the run's own `procs` and `seed`.
    pub ok: bool,
    /// Messages drawn into the Chrome trace.
    pub drawn: u64,
    pub chrome_bytes: u64,
    pub chrome_ns: f64,
    pub json_bytes: u64,
    pub write_ns: f64,
    pub parse_ns: f64,
    pub render_ns: f64,
}

/// Times `f` as a child span of `scope`; returns its host nanoseconds too.
fn stage<R>(scope: Scope<'_>, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = spanned(scope, layer, name, |_| f());
    (out, t0.elapsed().as_nanos() as f64)
}

/// The "explain this run" path after the run itself: `write_chrome_trace`
/// into a counting sink, then `MetricsReport::write_json`, `json::parse`
/// and `render_report`. The `observed` workload and the `trace`/`metrics`
/// probes both go through here.
pub fn export_all(out: &RunOutcome, meta: &RunMeta<'_>, scope: Scope<'_>) -> Exports {
    let mut e = Exports {
        ok: true,
        ..Exports::default()
    };
    // A summary-mode trace keeps counters only: nothing to draw.
    if let Some(trace) = out.trace.as_ref().filter(|t| !t.records.is_empty()) {
        let mut sink = CountingSink::default();
        let (drawn, ns) = stage(scope, "trace", "write_chrome_trace", || {
            write_chrome_trace(&trace.records, &mut sink)
        });
        e.ok &= drawn.is_ok() && sink.bytes > 0;
        e.drawn = drawn.unwrap_or(0) as u64;
        e.chrome_bytes = sink.bytes;
        e.chrome_ns = ns;
    }
    if let Some(metrics) = &out.metrics {
        // The parser takes a `&str`, so this one export is materialized.
        let mut buf = Vec::new();
        let (wrote, ns) = stage(scope, "metrics", "write_json", || {
            metrics.write_json(meta, &mut buf)
        });
        e.write_ns = ns;
        let text = String::from_utf8(buf).unwrap_or_default();
        e.json_bytes = text.len() as u64;
        let (parsed, ns) = stage(scope, "metrics", "json::parse", || json::parse(&text));
        e.parse_ns = ns;
        let (rendered, ns) = stage(scope, "metrics", "render_report", || render_report(&text));
        e.render_ns = ns;
        let round_trips = parsed.is_ok_and(|v| {
            v.get("procs").and_then(json::Value::as_u64) == Some(meta.procs as u64)
                && v.get("seed").and_then(json::Value::as_u64) == Some(meta.seed)
        });
        e.ok &= wrote.is_ok() && round_trips && rendered.is_ok_and(|s| !s.is_empty());
    }
    e
}

/// One `observed` op: a fully traced and metered run, then every exporter.
fn observe(app: &dyn SweepableApp, spec: &RunSpec, reference: &Op, scope: Scope<'_>) -> Op {
    let spec = spec
        .with_trace(TraceMode::Full)
        .with_metrics(MetricsMode::On);
    // `Recorded::run` adds the `apps` span itself.
    let out = app.run(&spec);
    let mut op = Op::of_run(app.name(), &spec, &out);
    let meta = RunMeta {
        app: app.name(),
        procs: spec.procs,
        seed: spec.seed,
    };
    let exports = export_all(&out, &meta, scope);
    // Observers must not perturb the run they observe, and both must
    // have been there to export.
    op.ok &= op.fp == reference.fp && exports.ok && exports.drawn > 0 && exports.json_bytes > 0;
    if let (Some((t, _)), Some(trace)) = (scope, &out.trace) {
        t.count("trace.records", trace.records.len() as u64);
        t.count("trace.chrome_bytes", exports.chrome_bytes);
        t.count("metrics.json_bytes", exports.json_bytes);
    }
    op
}

/// One `predict` op: a prediction along overhead + latency, serialized.
fn predict(app: &dyn SweepableApp, spec: &RunSpec, shared: &Shared, scope: Scope<'_>) -> Op {
    let result = spanned(scope, "predict", "predict_app", |inner| {
        shared.set_parent(inner.map(|(_, id)| id));
        predict_app(app, spec, &PREDICT_AXES, 1)
    });
    let mut op = Op {
        app: app.name().to_string(),
        point: String::new(),
        ok: false,
        fp: Fingerprint {
            runtime_ns: 0,
            events: 0,
            sends: 0,
            check: 0,
        },
    };
    let Ok(p) = result else { return op };
    let mut sink = CountingSink::default();
    let wrote = spanned(scope, "predict", "write_json", |_| p.write_json(&mut sink));
    // Each axis's grid runs from the baseline to the slowest machine, so
    // a sound prediction never dips below 1 and never falls along it.
    let sound = p.axes.iter().all(|curve| {
        !curve.points.is_empty()
            && curve.points.iter().all(|pt| pt.slowdown >= 1.0)
            && curve
                .points
                .windows(2)
                .all(|w| w[1].slowdown >= w[0].slowdown)
    });
    op.ok = wrote.is_ok() && sink.bytes > 0 && sound;
    op.fp = Fingerprint {
        runtime_ns: p.baseline.as_nanos(),
        events: p.nodes as u64,
        sends: p.edges as u64,
        check: p
            .axes
            .iter()
            .flat_map(|c| &c.points)
            .fold(0u64, |acc, pt| acc.rotate_left(7) ^ pt.runtime.as_nanos()),
    };
    if let Some((t, _)) = scope {
        t.count("predict.nodes", p.nodes as u64);
        t.count("predict.edges", p.edges as u64);
        t.count("predict.json_bytes", sink.bytes);
    }
    op
}

/// Counts the ops of `pass` that fail an output check: the op's own
/// checks, its app's checksum staying the same at every LogGP point, and
/// its fingerprint matching the same op of the first pass.
pub fn count_failed(pass: &[Op], first: &[Op]) -> u64 {
    let mut app_check: BTreeMap<&str, u64> = BTreeMap::new();
    for op in pass {
        app_check.entry(&op.app).or_insert(op.fp.check);
    }
    let same_shape = pass.len() == first.len();
    let failed = pass
        .iter()
        .enumerate()
        .filter(|(i, op)| {
            let repeats = same_shape
                && first[*i].app == op.app
                && first[*i].point == op.point
                && first[*i].fp == op.fp;
            !(op.ok && app_check[op.app.as_str()] == op.fp.check && repeats)
        })
        .count() as u64;
    // A pass that lost ops altogether fails at least the missing ones.
    failed.max(first.len().saturating_sub(pass.len()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(app: &str, point: &str, check: u64) -> Op {
        Op {
            app: app.into(),
            point: point.into(),
            ok: true,
            fp: Fingerprint {
                runtime_ns: 10,
                events: 20,
                sends: 30,
                check,
            },
        }
    }

    #[test]
    fn identical_passes_have_no_failures() {
        let first = vec![op("a", "p0", 1), op("a", "p1", 1), op("b", "p0", 2)];
        assert_eq!(count_failed(&first, &first), 0);
    }

    #[test]
    fn a_check_that_moves_with_the_loggp_point_fails_that_op() {
        let pass = vec![op("a", "p0", 1), op("a", "p1", 9)];
        assert_eq!(count_failed(&pass, &pass), 1);
    }

    #[test]
    fn a_fingerprint_that_differs_from_the_first_pass_fails() {
        let first = vec![op("a", "p0", 1), op("a", "p1", 1)];
        let mut pass = first.clone();
        pass[1].fp.events += 1;
        assert_eq!(count_failed(&pass, &first), 1);
    }

    #[test]
    fn incomplete_and_missing_ops_fail() {
        let first = vec![op("a", "p0", 1), op("a", "p1", 1)];
        let mut pass = first.clone();
        pass[0].ok = false;
        assert_eq!(count_failed(&pass, &first), 1);
        assert_eq!(count_failed(&first[..1], &first), 1);
    }

    #[test]
    fn every_workload_of_the_contract_prepares_at_test_scale() {
        let settings = Settings {
            scale: SuiteScale::Test,
            seed: 1,
        };
        let contract = crate::contract::Contract::load().expect("BENCHMARK.json loads");
        for w in &contract.workloads {
            if w.name == "suite_par" && nowlab_core::default_jobs() < 2 {
                assert!(prepare(&w.name, settings, None).is_err());
                continue;
            }
            prepare(&w.name, settings, None).expect("a workload of BENCHMARK.json has a plan");
        }
        assert!(prepare("nope", settings, None).is_err());
    }
}
