//! The exhibit registry: every table and figure of the paper's evaluation
//! (plus the ablations and extensions), rendered by `nowlab exhibit`.
//!
//! [`EXHIBITS`] is the index — *name → what it shows → renderer* — in
//! DESIGN.md §5 order. Renderers do not own their simulations: they ask a
//! [`Lab`] for a suite-wide grid `(procs, axis)`, the lab computes each
//! grid at most once per process through the [`sweep_many`] pool, and
//! eleven of the twenty exhibits are pure functions of five grids. A
//! renderer returns its output as data ([`Block`]s); [`run`] prints it and
//! saves the tables as CSV on request.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;

use nowlab_am::{render_balance_matrix, LatencyMode};
use nowlab_apps::em3d::{Em3dParams, Em3dWrite};
use nowlab_apps::pray::{Pray, PrayParams};
use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::calib::{calibrate, calibrate_bulk, round_trip_us, signature};
use nowlab_core::models::{
    predict_gap_burst, predict_gap_uniform, predict_overhead, rel_error, SensitivityModel,
};
use nowlab_core::report::{fmt_f, fmt_or_na, fmt_time, sparkline, Table};
use nowlab_core::{
    run_grid, sweep_many, Axis, AxisSweep, FaultPlan, Knobs, LoggpParams, MetricsMode, NetConfig,
    RunOutcome, RunSpec, SimDelta, SweepableApp,
};
use nowlab_trace::COARSE;

/// Event budget per run: generously above any completing run at benchmark
/// scale, so only genuine livelock (Barnes at high overhead) trips it.
const EVENT_LIMIT: u64 = 150_000_000;

/// The standard run spec of the suite-wide exhibits.
fn spec(procs: usize) -> RunSpec {
    RunSpec::new(procs).with_event_limit(EVENT_LIMIT)
}

/// One piece of an exhibit's output, in print order. `Display` is exactly
/// what [`run`] prints for it.
#[derive(Clone, Debug)]
pub enum Block {
    /// A paper-style table (also what `--csv` saves).
    Table(Table),
    /// A heading, an ASCII figure, or the closing note.
    Text(String),
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Block::Table(t) => writeln!(f, "{t}"),
            Block::Text(s) => writeln!(f, "{s}"),
        }
    }
}

/// What a renderer hands back: its blocks, or why it could not run.
pub type Rendered = Result<Vec<Block>, String>;

/// One row of the registry.
#[derive(Clone, Copy, Debug)]
pub struct Exhibit {
    /// Name on the command line (`nowlab exhibit <name>`).
    pub name: &'static str,
    /// One line on what it shows (printed by `nowlab list`).
    pub shows: &'static str,
    render: fn(&mut Lab) -> Rendered,
}

impl Exhibit {
    /// Renders the exhibit, drawing its runs from `lab`.
    pub fn render(&self, lab: &mut Lab) -> Rendered {
        (self.render)(lab)
    }
}

/// Every exhibit, in DESIGN.md §5 order.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "table1_baseline",
        shows: "Table 1: calibrated LogGP of NOW / Paragon / Meiko",
        render: table1_baseline,
    },
    Exhibit {
        name: "fig3_signature",
        shows: "Figure 3: LogP signature (us/msg vs burst size, one row per delta)",
        render: fig3_signature,
    },
    Exhibit {
        name: "table2_calibration",
        shows: "Table 2: desired vs observed o/g/L, knob independence",
        render: table2_calibration,
    },
    Exhibit {
        name: "table3_runtimes",
        shows: "Table 3: 16- and 32-node baseline runtimes",
        render: table3_runtimes,
    },
    Exhibit {
        name: "fig4_balance",
        shows: "Figure 4: 32x32 sender->receiver traffic matrices",
        render: fig4_balance,
    },
    Exhibit {
        name: "table4_comm_summary",
        shows: "Table 4: message frequency, % bulk, % reads, KB/s",
        render: table4_comm_summary,
    },
    Exhibit {
        name: "fig5_overhead",
        shows: "Figure 5a/5b: slowdown vs overhead, 16 and 32 nodes",
        render: fig5_overhead,
    },
    Exhibit {
        name: "table5_overhead_model",
        shows: "Table 5: measured vs r + 2m*do (measured = Figure 5b's runs)",
        render: table5_overhead_model,
    },
    Exhibit {
        name: "fig6_gap",
        shows: "Figure 6: slowdown vs gap",
        render: fig6_gap,
    },
    Exhibit {
        name: "table6_gap_model",
        shows: "Table 6: measured vs burst model r + m*dg (measured = Figure 6's runs)",
        render: table6_gap_model,
    },
    Exhibit {
        name: "fig7_latency",
        shows: "Figure 7: slowdown vs latency",
        render: fig7_latency,
    },
    Exhibit {
        name: "fig8_bulk_gap",
        shows: "Figure 8: slowdown vs bulk bandwidth (38 -> 1 MB/s)",
        render: fig8_bulk_gap,
    },
    Exhibit {
        name: "summary_linearity",
        shows: "Section 5.5: R^2 of the linear o and g responses, sensitivity ranking",
        render: summary_linearity,
    },
    Exhibit {
        name: "ablation_window",
        shows: "ablation: flow-control window depth vs effective gap at L = 105us \
                (EM3D at benchmark inputs whatever --scale)",
        render: ablation_window,
    },
    Exhibit {
        name: "ablation_gap_models",
        shows: "ablation: burst vs uniform gap model error per app",
        render: ablation_gap_models,
    },
    Exhibit {
        name: "ablation_latency_mechanism",
        shows: "ablation: delay-queue vs slow-receive-path latency knob \
                (EM3D at benchmark inputs whatever --scale)",
        render: ablation_latency_mechanism,
    },
    Exhibit {
        name: "ablation_workload_knobs",
        shows: "ablation: EM3D remote fraction and P-Ray cache size vs overhead sensitivity \
                (benchmark inputs whatever --scale)",
        render: ablation_workload_knobs,
    },
    Exhibit {
        name: "model_crossval",
        shows: "extension: compound sensitivity model on mixed knob vectors",
        render: model_crossval,
    },
    Exhibit {
        name: "time_breakdown",
        shows: "extension: compute / overhead / net wait / other per app, baseline and o=53us",
        render: time_breakdown,
    },
    Exhibit {
        name: "ext_fault_sweep",
        shows: "extension: slowdown and effective LogGP under message loss \
                (--scale test: 8 procs, three rates)",
        render: ext_fault_sweep,
    },
];

/// The exhibits `name` selects: one, or every one for `all`.
fn select(name: &str) -> Result<&'static [Exhibit], String> {
    if name == "all" {
        return Ok(EXHIBITS);
    }
    EXHIBITS
        .iter()
        .position(|e| e.name == name)
        .map(|i| &EXHIBITS[i..=i])
        .ok_or_else(|| format!("unknown exhibit `{name}` (try `nowlab list`, or `all`)"))
}

/// Renders the exhibits `name` selects and writes them to `out` in
/// registry order; with `csv`, also saves every table under that directory
/// as `<exhibit>.csv` (`<exhibit>_<k>.csv` when the exhibit has several).
pub fn run(
    name: &str,
    lab: &mut Lab,
    csv: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let stdout_err = |e: std::io::Error| format!("stdout: {e}");
    let selected = select(name)?;
    if let Some(dir) = csv {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--csv {}: cannot create: {e}", dir.display()))?;
    }
    for ex in selected {
        let blocks = ex.render(lab)?;
        let tables = blocks
            .iter()
            .filter(|b| matches!(b, Block::Table(_)))
            .count();
        let mut k = 0;
        for block in &blocks {
            write!(out, "{block}").map_err(stdout_err)?;
            if let (Some(dir), Block::Table(t)) = (csv, block) {
                k += 1;
                let file = if tables == 1 {
                    format!("{}.csv", ex.name)
                } else {
                    format!("{}_{k}.csv", ex.name)
                };
                let path = dir.join(file);
                std::fs::write(&path, t.to_csv())
                    .map_err(|e| format!("--csv {}: cannot write: {e}", path.display()))?;
                writeln!(out, "(csv saved to {})", path.display()).map_err(stdout_err)?;
            }
        }
    }
    Ok(())
}

/// Where the exhibits' simulations come from: the suite at one scale, a
/// worker pool, and the grids computed so far.
pub struct Lab {
    scale: SuiteScale,
    jobs: usize,
    grids: Vec<(usize, Axis, Rc<[AxisSweep]>)>,
}

impl Lab {
    /// A lab over the suite at `scale`, fanning runs across `jobs` workers
    /// (output is byte-identical for every `jobs`).
    pub fn new(scale: SuiteScale, jobs: usize) -> Self {
        Lab {
            scale,
            jobs,
            grids: Vec::new(),
        }
    }

    /// The whole suite swept along `axis` through the paper's values on
    /// `procs` processors, one [`AxisSweep`] per app in suite order.
    /// Simulated on first request; afterwards the same allocation is
    /// handed back. A baseline that does not complete is an `Err`.
    fn grid(&mut self, procs: usize, axis: Axis) -> Result<Rc<[AxisSweep]>, String> {
        if let Some((_, _, grid)) = self
            .grids
            .iter()
            .find(|(p, a, _)| (*p, *a) == (procs, axis))
        {
            return Ok(Rc::clone(grid));
        }
        let grid: Rc<[AxisSweep]> = sweep_many(
            &self.suite(),
            &spec(procs),
            axis,
            &axis.paper_values(),
            self.jobs,
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?
        .into();
        self.grids.push((procs, axis, Rc::clone(&grid)));
        Ok(grid)
    }

    /// The suite's baseline runs on `procs` processors: the `baseline` of
    /// each sweep of the overhead grid (every axis starts at the same
    /// machine, so any grid's would do).
    fn baselines(&mut self, procs: usize) -> Result<Rc<[AxisSweep]>, String> {
        self.grid(procs, Axis::Overhead)
    }

    /// The suite at the lab's scale.
    fn suite(&self) -> Vec<Box<dyn SweepableApp>> {
        suite_scaled(self.scale)
    }
}

/// `Err` unless every run of `app` completed (for exhibits whose every
/// cell is a ratio of two runtimes).
fn require_complete(app: &dyn SweepableApp, outs: &[RunOutcome]) -> Result<(), String> {
    match outs.iter().position(|o| !o.completed) {
        Some(i) => Err(format!("{}: run {i} did not complete", app.name())),
        None => Ok(()),
    }
}

/// `run`'s runtime as a multiple of `base`'s.
fn slowdown(run: &RunOutcome, base: &RunOutcome) -> f64 {
    run.runtime.as_secs_f64() / base.runtime.as_secs_f64()
}

/// A heading, an ASCII figure, or a closing note.
fn text(s: impl Into<String>) -> Block {
    Block::Text(s.into())
}

/// An empty table whose header row is `first`, then the computed `columns`.
fn keyed_table(
    title: impl Into<String>,
    first: &str,
    columns: impl IntoIterator<Item = String>,
) -> Table {
    let headers: Vec<String> = std::iter::once(first.to_string()).chain(columns).collect();
    Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    )
}

/// A row of a figure-style table: the app, one slowdown per swept value
/// (`None`, printed N/A, where the run did not complete), and the curve's
/// sparkline.
fn curve_row(app: &str, slowdowns: &[Option<f64>]) -> Vec<String> {
    let series: Vec<f64> = slowdowns.iter().map(|s| s.unwrap_or(f64::NAN)).collect();
    std::iter::once(app.to_string())
        .chain(slowdowns.iter().map(|&s| fmt_or_na(s, 2)))
        .chain([sparkline(&series)])
        .collect()
}

fn table1_baseline(_: &mut Lab) -> Rendered {
    let machines = [
        ("Berkeley NOW", LoggpParams::berkeley_now()),
        ("Intel Paragon", LoggpParams::intel_paragon()),
        ("Meiko CS-2", LoggpParams::meiko_cs2()),
    ];
    let paper: [(f64, f64, f64, f64); 3] = [
        (2.9, 5.8, 5.0, 38.0),
        (1.8, 7.6, 6.5, 141.0),
        (1.7, 13.6, 7.5, 47.0),
    ];
    let mut t = Table::new(
        "Table 1: Baseline LogGP parameters (measured / paper)",
        &["platform", "o (us)", "g (us)", "L (us)", "MB/s (1/G)"],
    );
    for ((name, m), (po, pg, pl, pb)) in machines.iter().zip(paper) {
        let cfg = NetConfig::berkeley_now().with_machine(*m);
        let c = calibrate(cfg);
        let bw = calibrate_bulk(cfg);
        t.push_row([
            name.to_string(),
            format!("{:.1} / {po:.1}", c.o_mean_us()),
            format!("{:.1} / {pg:.1}", c.gap_us),
            format!("{:.1} / {pl:.1}", c.latency_us),
            format!("{bw:.0} / {pb:.0}"),
        ]);
    }
    Ok(vec![Block::Table(t)])
}

/// The LogP signature of `cfg`: average initiation interval (µs/message)
/// per burst size, one row per fixed computational delay Δ.
fn signature_table(title: &str, cfg: NetConfig) -> Result<Block, String> {
    let bursts = [1usize, 2, 4, 8, 16, 32, 64];
    let deltas = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0];
    let sig = signature(cfg, &bursts, &deltas);
    let mut t = keyed_table(title, "delta\\burst", bursts.iter().map(|b| b.to_string()));
    for &d in &deltas {
        let mut row = vec![format!("{d:.0}us")];
        for &m in &bursts {
            let point = sig
                .points
                .iter()
                .find(|p| p.burst == m && (p.delta_us - d).abs() < 1e-9)
                .ok_or_else(|| format!("signature has no point at burst {m}, delta {d}us"))?;
            row.push(fmt_f(point.interval_us, 2));
        }
        t.push_row(row);
    }
    Ok(Block::Table(t))
}

fn fig3_signature(_: &mut Lab) -> Rendered {
    // The paper's plotted calibration: desired g = 14 us (Δg = 8.2).
    let g14 = NetConfig::berkeley_now().with_knobs(Knobs::with_gap(SimDelta::from_micros(8.2)));
    Ok(vec![
        signature_table(
            "Figure 3: LogP signature, baseline NOW (us/message)",
            NetConfig::berkeley_now(),
        )?,
        signature_table(
            "Figure 3: LogP signature, desired g = 14us (us/message)",
            g14,
        )?,
        text(
            "read-off: o_send = burst-1 interval; g = bottom-right plateau;\n\
             o_recv = (large-delta plateau) - delta - o_send.\n\
             Paper's g=14 signature showed o_send=1.8, o_recv=4, g=12.8.",
        ),
    ])
}

fn table2_calibration(_: &mut Lab) -> Rendered {
    let base = NetConfig::berkeley_now();
    let panels = [
        (Axis::Overhead, "desired o"),
        (Axis::Gap, "desired g"),
        (Axis::Latency, "desired L"),
    ];
    let mut blocks = Vec::new();
    for (axis, label) in panels {
        let mut t = Table::new(
            format!("Table 2 panel: varying {axis}"),
            &[label, "o", "g", "L"],
        );
        for desired in axis.paper_values() {
            let knobs = axis
                .knobs_for(&base.machine, desired)
                .ok_or_else(|| format!("{axis} {desired} is below the baseline"))?;
            let c = calibrate(base.with_knobs(knobs));
            t.push_row([
                fmt_f(desired, 1),
                fmt_f(c.o_mean_us(), 1),
                fmt_f(c.gap_us, 1),
                fmt_f(c.latency_us, 1),
            ]);
        }
        blocks.push(Block::Table(t));
    }
    blocks.push(text(
        "paper reference: o=103 desired -> observed o=103.0 g=205.9 L=6.0;\n\
         g=105 desired -> observed g=99, o=3.0, L=5.5;\n\
         L=105 desired -> observed L=105.5, o=3.0, g=27.7.",
    ));
    Ok(blocks)
}

fn table3_runtimes(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Table 3: Applications and baseline run times (scaled inputs)",
        &[
            "program",
            "16-node time",
            "32-node time",
            "speedup 16->32",
            "check",
        ],
    );
    let (b16, b32) = (lab.baselines(16)?, lab.baselines(32)?);
    for (s16, s32) in b16.iter().zip(b32.iter()) {
        let (o16, o32) = (&s16.baseline, &s32.baseline);
        t.push_row([
            s32.app.clone(),
            fmt_time(o16.runtime),
            fmt_time(o32.runtime),
            format!("{:.2}x", slowdown(o16, o32)),
            format!("{:016x}", o32.check),
        ]);
    }
    Ok(vec![
        Block::Table(t),
        text("paper: most applications are well parallelized from 16 to 32 nodes."),
    ])
}

fn fig4_balance(lab: &mut Lab) -> Rendered {
    let mut blocks = Vec::new();
    for s in lab.baselines(32)?.iter() {
        let stats = &s.baseline.stats;
        blocks.push(text(format!(
            "--- Figure 4: {} (max cell {} msgs, balance {:.2}) ---",
            s.app,
            stats.matrix_max(),
            stats.balance()
        )));
        blocks.push(text(render_balance_matrix(stats)));
    }
    blocks.push(text(
        "reproduction targets: Radix's uniform all-to-all (it gathers its\n\
         counts with an allgather, not the paper's histogram chain, so the\n\
         paper's off-diagonal line is absent: DESIGN.md section 6); EM3D's\n\
         near-diagonal locality swath; Sample's vertical receiver bars;\n\
         NOW-sort's solid square; P-Ray hot spots.",
    ));
    Ok(blocks)
}

/// Paper Table 4, "Msg. Interval (µs)" column, in suite order.
const PAPER_MSG_INTERVAL_US: [(&str, f64); 10] = [
    ("Radix", 6.1),
    ("EM3D(write)", 8.0),
    ("EM3D(read)", 13.8),
    ("Sample", 13.0),
    ("Barnes", 52.8),
    ("P-Ray", 156.2),
    ("Murphi", 212.6),
    ("Connect", 183.5),
    ("NOW-sort", 817.4),
    ("Radb", 852.7),
];

fn table4_comm_summary(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Table 4: Communication summary, 32 processors (scaled inputs)",
        &[
            "program",
            "avg msg/proc",
            "max msg/proc",
            "msg/proc/ms",
            "interval us",
            "paper interval",
            "barrier ms",
            "% bulk",
            "% reads",
            "bulk KB/s",
            "small KB/s",
        ],
    );
    for sweep in lab.baselines(32)?.iter() {
        let s = &sweep.baseline.stats;
        let paper_interval = PAPER_MSG_INTERVAL_US
            .iter()
            .find(|(n, _)| *n == sweep.app)
            .map(|&(_, v)| v);
        let barrier = s.barrier_interval_ms();
        t.push_row([
            sweep.app.clone(),
            fmt_f(s.avg_msgs_per_proc(), 0),
            format!("{}", s.max_msgs_per_proc()),
            fmt_f(s.msgs_per_proc_per_ms(), 2),
            fmt_f(s.msg_interval_us(), 1),
            fmt_or_na(paper_interval, 1),
            if barrier.is_finite() {
                fmt_f(barrier, 1)
            } else {
                "-".into()
            },
            fmt_f(s.pct_bulk(), 2),
            fmt_f(s.pct_reads(), 2),
            fmt_f(s.bulk_kb_per_s(), 1),
            fmt_f(s.small_kb_per_s(), 1),
        ]);
    }
    Ok(vec![
        Block::Table(t),
        text(
            "reproduction targets: two-orders-of-magnitude frequency spread;\n\
             Radix/EM3D(w)/EM3D(r)/Sample the frequent four; EM3D(read), P-Ray,\n\
             Connect read-dominated; Barnes/P-Ray/Murphi/NOW-sort/Radb bulk users.",
        ),
    ])
}

/// A figure-style slowdown table of one grid: one row per app, one column
/// per swept value; incomplete points (livelock) print as N/A.
fn slowdown_table(lab: &mut Lab, procs: usize, axis: Axis, title: &str) -> Result<Block, String> {
    let columns = axis.paper_values().into_iter().map(|v| format!("{v}"));
    let mut t = keyed_table(title, "app", columns.chain(["shape".to_string()]));
    for s in lab.grid(procs, axis)?.iter() {
        let slowdowns: Vec<_> = (s.points.iter())
            .map(|p| p.completed.then_some(p.slowdown))
            .collect();
        t.push_row(curve_row(&s.app, &slowdowns));
    }
    Ok(Block::Table(t))
}

/// Figures 5a/5b/6/7/8: one slowdown table per `(procs, axis, title)`
/// panel, then the paper's reading.
fn slowdown_figure(lab: &mut Lab, panels: &[(usize, Axis, &str)], note: &str) -> Rendered {
    let mut blocks = Vec::new();
    for &(procs, axis, title) in panels {
        blocks.push(slowdown_table(lab, procs, axis, title)?);
    }
    blocks.push(text(note));
    Ok(blocks)
}

fn fig5_overhead(lab: &mut Lab) -> Rendered {
    slowdown_figure(
        lab,
        &[
            (
                16,
                Axis::Overhead,
                "Figure 5a: slowdown vs overhead (us), 16 nodes",
            ),
            (
                32,
                Axis::Overhead,
                "Figure 5b: slowdown vs overhead (us), 32 nodes",
            ),
        ],
        "paper: at o=103us the 32-node suite slows 2x-57x; Barnes does not\n\
         complete beyond o=7us on 32 nodes (livelock).",
    )
}

fn fig6_gap(lab: &mut Lab) -> Rendered {
    slowdown_figure(
        lab,
        &[(32, Axis::Gap, "Figure 6: slowdown vs gap (us), 32 nodes")],
        "paper: Radix/EM3D/Sample slow up to ~16x at g=105us; the rest stay\n\
         under ~4x.",
    )
}

fn fig7_latency(lab: &mut Lab) -> Rendered {
    slowdown_figure(
        lab,
        &[(
            32,
            Axis::Latency,
            "Figure 7: slowdown vs latency (us), 32 nodes",
        )],
        "paper: applications are surprisingly tolerant of latency; only the\n\
         blocking-read apps pay, and EM3D(read) is the worst case.",
    )
}

fn fig8_bulk_gap(lab: &mut Lab) -> Rendered {
    slowdown_figure(
        lab,
        &[(
            32,
            Axis::BulkBandwidth,
            "Figure 8: slowdown vs bulk bandwidth (MB/s), 32 nodes",
        )],
        "paper: bulk users (Radb, NOW-sort, Murphi, P-Ray, Barnes) react\n\
         below ~15 MB/s; short-message apps are flat; NOW-sort's knee is at\n\
         the 5.5 MB/s disk rate.",
    )
}

/// A §5 one-knob predictor: `(baseline runtime, m, Δ) → predicted runtime`
/// with `m` the most messages any processor sent in the baseline run.
type Predictor = fn(SimDelta, u64, SimDelta) -> SimDelta;

/// Tables 5 and 6: per app, the measured runtimes of the 32-node `axis`
/// grid beside `predict`'s. `label` is the first column's heading and
/// `tag` closes the title's parenthesis.
fn model_table(
    lab: &mut Lab,
    axis: Axis,
    number: u32,
    label: &str,
    tag: &str,
    predict: Predictor,
    note: &str,
) -> Rendered {
    let mut blocks = Vec::new();
    for s in lab.grid(32, axis)?.iter() {
        let m = s.baseline.stats.max_msgs_per_proc();
        let mut t = Table::new(
            format!(
                "Table {number}: {} (m = {m} msgs, baseline {:.3}s{tag})",
                s.app,
                s.baseline.runtime.as_secs_f64()
            ),
            &[label, "measured s", "predicted s", "pred/meas"],
        );
        let base = s.points.first().map_or(0.0, |p| p.desired);
        for p in &s.points {
            let d = SimDelta::from_micros(p.desired - base);
            let pred = predict(s.baseline.runtime, m, d).as_secs_f64();
            let measured = p.completed.then(|| p.runtime.as_secs_f64());
            t.push_row([
                fmt_f(p.desired, 1),
                fmt_or_na(measured, 4),
                fmt_f(pred, 4),
                measured.map_or("-".into(), |secs| fmt_f(pred / secs, 2)),
            ]);
        }
        blocks.push(Block::Table(t));
    }
    blocks.push(text(note));
    Ok(blocks)
}

fn table5_overhead_model(lab: &mut Lab) -> Rendered {
    model_table(
        lab,
        Axis::Overhead,
        5,
        "o (us)",
        "",
        predict_overhead,
        "paper: model within a few percent for Sample and EM3D(write);\n\
         underpredicts Radix/P-Ray/Murphi (serial phases are not 2mo).",
    )
}

fn table6_gap_model(lab: &mut Lab) -> Rendered {
    model_table(
        lab,
        Axis::Gap,
        6,
        "g (us)",
        ", burst model",
        predict_gap_burst,
        "paper: the burst model over-predicts slightly (not every message is\n\
         sent in a burst) and fits the heavy communicators best.",
    )
}

fn summary_linearity(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Linearity of slowdown responses (32 nodes)",
        &[
            "app",
            "o slope (1/us)",
            "o R^2",
            "g slope (1/us)",
            "g R^2",
            "max slowdown @o",
            "max slowdown @g",
        ],
    );
    let o_sweeps = lab.grid(32, Axis::Overhead)?;
    let g_sweeps = lab.grid(32, Axis::Gap)?;
    for (o, g) in o_sweeps.iter().zip(g_sweeps.iter()) {
        let of = o.linearity();
        let gf = g.linearity();
        t.push_row([
            o.app.clone(),
            fmt_or_na(of.map(|f| f.slope), 4),
            fmt_or_na(of.map(|f| f.r2), 4),
            fmt_or_na(gf.map(|f| f.slope), 4),
            fmt_or_na(gf.map(|f| f.r2), 4),
            fmt_f(o.max_slowdown(), 2),
            fmt_f(g.max_slowdown(), 2),
        ]);
    }
    let mut blocks = vec![Block::Table(t)];
    // Sensitivity ranking per axis (by max slowdown).
    for (axis, sweeps) in [(Axis::Overhead, &o_sweeps), (Axis::Gap, &g_sweeps)] {
        let mut ranked: Vec<(&str, f64)> = sweeps
            .iter()
            .map(|s| (s.app.as_str(), s.max_slowdown()))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let list: Vec<String> = ranked
            .iter()
            .map(|(n, s)| format!("{n}({s:.1}x)"))
            .collect();
        blocks.push(text(format!(
            "{axis} sensitivity ranking: {}",
            list.join(" > ")
        )));
    }
    blocks.push(text(
        "\npaper: overhead and gap responses are linear; the frequent four\n\
         (Radix, EM3D both, Sample) lead both rankings.",
    ));
    Ok(blocks)
}

/// Added latency of the window ablation (L = 105 µs).
const WINDOW_ABLATION_D_LAT: SimDelta = SimDelta::from_micros_int(100);

/// EM3D(write) at benchmark inputs whatever the lab's scale: the subject
/// of the single-application ablations.
fn em3d_write() -> [Box<dyn SweepableApp>; 1] {
    [Box::new(Em3dWrite::new(Em3dParams::benchmark()))]
}

fn ablation_window(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Ablation: flow-control window depth at L = 105us",
        &["window", "effective g (us)", "EM3D(write) slowdown"],
    );
    let windows = [2u32, 4, 8, 16, 32];
    // Per window: the baseline, then L = 105 µs.
    let nets: Vec<NetConfig> = windows
        .iter()
        .flat_map(|&w| {
            let base = NetConfig::berkeley_now().with_window(w);
            [
                base,
                base.with_knobs(Knobs::with_latency(WINDOW_ABLATION_D_LAT)),
            ]
        })
        .collect();
    let specs: Vec<RunSpec> = nets.iter().map(|&n| RunSpec::new(32).with_net(n)).collect();
    let app = em3d_write();
    let outs = &run_grid(&app, &specs, lab.jobs)[0];
    require_complete(app[0].as_ref(), outs)?;
    for ((window, nets), outs) in windows.iter().zip(nets.chunks(2)).zip(outs.chunks(2)) {
        t.push_row([
            window.to_string(),
            fmt_f(calibrate(nets[1]).gap_us, 1),
            fmt_f(slowdown(&outs[1], &outs[0]), 2),
        ]);
    }
    Ok(vec![
        Block::Table(t),
        text(
            "expected: effective g ~ 2L/window (the paper's W=8 gives 27.7us at\n\
             L=105); deep windows make even pipelined-write apps latency-proof.",
        ),
    ])
}

/// Gap values (µs) the gap-model ablation scores: the upper half of the
/// gap grid, where the two models differ.
const GAP_MODELS_FROM_US: f64 = 30.0;

fn ablation_gap_models(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Ablation: burst vs uniform gap model, mean |relative error| over g in {30,55,80,105}us",
        &["app", "burst model err", "uniform model err", "better"],
    );
    for s in lab.grid(32, Axis::Gap)?.iter() {
        let baseline = &s.baseline;
        let m = baseline.stats.max_msgs_per_proc();
        let interval = SimDelta::from_micros(baseline.stats.msg_interval_us());
        let base_g = s.points.first().map_or(0.0, |p| p.desired);
        let scored: Vec<_> = s
            .points
            .iter()
            .filter(|p| p.desired >= GAP_MODELS_FROM_US && p.completed)
            .collect();
        if scored.is_empty() {
            continue;
        }
        let n = scored.len() as f64;
        let b = scored
            .iter()
            .map(|p| {
                let d_g = SimDelta::from_micros(p.desired - base_g);
                rel_error(predict_gap_burst(baseline.runtime, m, d_g), p.runtime)
            })
            .sum::<f64>()
            / n;
        let u = scored
            .iter()
            .map(|p| {
                let total_g = SimDelta::from_micros(p.desired);
                rel_error(
                    predict_gap_uniform(baseline.runtime, m, total_g, interval),
                    p.runtime,
                )
            })
            .sum::<f64>()
            / n;
        t.push_row([
            s.app.clone(),
            fmt_f(b, 3),
            fmt_f(u, 3),
            if b <= u { "burst" } else { "uniform" }.to_string(),
        ]);
    }
    Ok(vec![
        Block::Table(t),
        text("paper: the burst model tracks the applications; communication is bursty."),
    ])
}

fn ablation_latency_mechanism(lab: &mut Lab) -> Rendered {
    let mut t = Table::new(
        "Ablation: latency mechanism — delay queue (paper) vs slow rx path (naive)",
        &[
            "desired L",
            "g (delay queue)",
            "g (slow rx)",
            "EM3D(w) slowdown (dq)",
            "EM3D(w) slowdown (srx)",
        ],
    );
    let latencies = [5.0, 15.0, 30.0, 55.0, 105.0];
    // The baseline, then per latency: delay queue, slow receive path.
    let nets: Vec<NetConfig> = std::iter::once(NetConfig::berkeley_now())
        .chain(latencies.iter().flat_map(|l| {
            let net = NetConfig::berkeley_now()
                .with_knobs(Knobs::with_latency(SimDelta::from_micros(l - 5.0)));
            [LatencyMode::DelayQueue, LatencyMode::SlowRxPath].map(|m| net.with_latency_mode(m))
        }))
        .collect();
    let specs: Vec<RunSpec> = nets.iter().map(|&n| RunSpec::new(32).with_net(n)).collect();
    let app = em3d_write();
    let outs = &run_grid(&app, &specs, lab.jobs)[0];
    require_complete(app[0].as_ref(), outs)?;
    let base = &outs[0];
    for ((l, nets), outs) in latencies
        .iter()
        .zip(nets[1..].chunks(2))
        .zip(outs[1..].chunks(2))
    {
        t.push_row([
            fmt_f(*l, 1),
            fmt_f(calibrate(nets[0]).gap_us, 1),
            fmt_f(calibrate(nets[1]).gap_us, 1),
            fmt_f(slowdown(&outs[0], base), 2),
            fmt_f(slowdown(&outs[1], base), 2),
        ]);
    }
    Ok(vec![
        Block::Table(t),
        text(
            "expected: under the delay queue, g stays near 5.8us until the\n\
             constant-window effect kicks in (~2L/8); under the slow receive\n\
             path, g ≈ 5.8 + ΔL immediately — and the write-based application\n\
             pays for it, which would have corrupted Figure 7.",
        ),
    ])
}

/// Overhead (µs) at which the workload-knob ablation and the time
/// breakdown compare against the baseline: LAN-class.
const LAN_OVERHEAD_US: f64 = 53.0;

/// The Berkeley NOW with overhead raised to [`LAN_OVERHEAD_US`].
fn lan_overhead_net() -> Result<NetConfig, String> {
    let base = NetConfig::berkeley_now();
    Axis::Overhead
        .knobs_for(&base.machine, LAN_OVERHEAD_US)
        .map(|knobs| base.with_knobs(knobs))
        .ok_or_else(|| format!("o = {LAN_OVERHEAD_US}us is below the baseline"))
}

/// One table of the workload-knob ablation: each variant of an app, one
/// per `labels` entry, at the baseline and at o = 53 µs on 32 processors.
fn knob_table(
    lab: &Lab,
    title: &str,
    knob: &str,
    labels: &[String],
    variants: &[Box<dyn SweepableApp>],
) -> Result<Block, String> {
    let mut t = Table::new(title, &[knob, "interval us", "msg/proc", "slowdown @o=53"]);
    let specs =
        [NetConfig::berkeley_now(), lan_overhead_net()?].map(|n| RunSpec::new(32).with_net(n));
    for ((label, app), outs) in labels
        .iter()
        .zip(variants)
        .zip(run_grid(variants, &specs, lab.jobs))
    {
        require_complete(app.as_ref(), &outs)?;
        let (base, slow) = (&outs[0], &outs[1]);
        t.push_row([
            label.clone(),
            fmt_f(base.stats.msg_interval_us(), 1),
            fmt_f(base.stats.avg_msgs_per_proc(), 0),
            fmt_f(slowdown(slow, base), 2),
        ]);
    }
    Ok(Block::Table(t))
}

fn ablation_workload_knobs(lab: &mut Lab) -> Rendered {
    let remote_pcts = [0u32, 10, 20, 40, 60, 80];
    let em3d: Vec<Box<dyn SweepableApp>> = remote_pcts
        .iter()
        .map(|&pct_remote| {
            let p = Em3dParams {
                pct_remote,
                ..Em3dParams::benchmark()
            };
            Box::new(Em3dWrite::new(p)) as Box<dyn SweepableApp>
        })
        .collect();
    let cache_caps = [8usize, 24, 48, 96, 192, 512];
    let pray: Vec<Box<dyn SweepableApp>> = cache_caps
        .iter()
        .map(|&cache_capacity| {
            let p = PrayParams {
                cache_capacity,
                ..PrayParams::benchmark()
            };
            Box::new(Pray::new(p)) as Box<dyn SweepableApp>
        })
        .collect();
    Ok(vec![
        knob_table(
            lab,
            "Ablation: EM3D(write) remote-edge fraction vs overhead sensitivity (o=53us)",
            "% remote",
            &remote_pcts.map(|v| v.to_string()),
            &em3d,
        )?,
        knob_table(
            lab,
            "Ablation: P-Ray cache capacity vs read traffic and overhead sensitivity (o=53us)",
            "cache",
            &cache_caps.map(|v| v.to_string()),
            &pray,
        )?,
        text(
            "expected: P-Ray's sensitivity tracks its miss traffic\n\
             monotonically (~9x at an 8-entry cache down to ~1.5x once the\n\
             scene fits). EM3D jumps from its barrier-only floor at 0% remote\n\
             to the message-bound plateau by 10% — the paper's\n\
             frequency-predicts-sensitivity law inside single applications.",
        ),
    ])
}

/// The mixed knob vectors the compound model is scored on.
fn mixed_vectors() -> [(&'static str, Knobs); 3] {
    let us = SimDelta::from_micros;
    [
        (
            "mild (o+5, g+10, L+20)",
            Knobs {
                d_o: us(5.0),
                d_g: us(10.0),
                d_lat: us(20.0),
                d_gap_per_byte: SimDelta::ZERO,
            },
        ),
        (
            "LAN-ish (o+50, g+20, L+50)",
            Knobs {
                d_o: us(50.0),
                d_g: us(20.0),
                d_lat: us(50.0),
                d_gap_per_byte: SimDelta::ZERO,
            },
        ),
        (
            "slow wire (L+80, G->5MB/s)",
            Knobs {
                d_o: SimDelta::ZERO,
                d_g: SimDelta::ZERO,
                d_lat: us(80.0),
                d_gap_per_byte: SimDelta::from_nanos(200 - 26),
            },
        ),
    ]
}

fn model_crossval(lab: &mut Lab) -> Rendered {
    let vectors = mixed_vectors();
    let mut t = keyed_table(
        "Extension: compound-model cross-validation (32 nodes)",
        "app",
        vectors.iter().map(|(name, _)| format!("{name} pred/meas")),
    );
    let baselines = lab.baselines(32)?;
    let template = spec(32);
    let specs = vectors.map(|(_, knobs)| template.with_net(template.net.with_knobs(knobs)));
    for (s, outs) in baselines
        .iter()
        .zip(run_grid(&lab.suite(), &specs, lab.jobs))
    {
        let model = SensitivityModel::from_baseline(&s.baseline);
        let mut row = vec![s.app.clone()];
        for ((_, knobs), out) in vectors.iter().zip(&outs) {
            if !out.completed {
                row.push("N/A".into());
                continue;
            }
            let pred = model.predict(knobs);
            let err = rel_error(pred, out.runtime);
            row.push(format!(
                "{} ({}%)",
                fmt_f(pred.as_secs_f64() / out.runtime.as_secs_f64(), 2),
                fmt_f(err * 100.0, 0)
            ));
        }
        t.push_row(row);
    }
    Ok(vec![
        Block::Table(t),
        text(
            "expectation: composition holds about as well as the per-axis models\n\
             — accurate for the balanced frequent communicators, under-predicting\n\
             the serial-phase and contention apps (Radix, Barnes).",
        ),
    ])
}

fn time_breakdown(lab: &mut Lab) -> Rendered {
    let coarse = COARSE.names;
    let mut t = keyed_table(
        "Time breakdown (% of processor time over the whole run, 32 processors): \
         baseline | o=53us",
        "app",
        (coarse.iter().map(|c| c.to_string())).chain(coarse.iter().map(|c| format!("{c}'"))),
    );
    let apps = lab.suite();
    let specs = [NetConfig::berkeley_now(), lan_overhead_net()?]
        .map(|net| spec(32).with_net(net).with_metrics(MetricsMode::On));
    for (app, outs) in apps.iter().zip(run_grid(&apps, &specs, lab.jobs)) {
        let mut row = vec![app.name().to_string()];
        for out in &outs {
            match out.metrics.as_ref().filter(|_| out.completed) {
                Some(report) => row.extend(
                    report
                        .summary
                        .coarse_shares()
                        .map(|share| fmt_f(share * 100.0, 1)),
                ),
                None => row.extend(coarse.map(|_| "N/A".to_string())),
            }
        }
        t.push_row(row);
    }
    Ok(vec![
        Block::Table(t),
        text(
            "reading: under added overhead the o-column should swallow the\n\
             frequent communicators' runtime; NOW-sort's disk wait dominates\n\
             both columns (why it tolerates overhead); read-based apps carry\n\
             visible net-wait even at baseline.",
        ),
    ])
}

/// The deterministic fault stream of the loss extension (arbitrary, fixed).
const FAULT_SEED: u64 = 0x10_55;

/// Virtual-time deadline of a lossy run, so heavy loss degrades to N/A
/// instead of retrying forever.
const LOSSY_RUN_DEADLINE: SimDelta = SimDelta::from_micros_int(120_000_000);

/// A guarded run spec for drop rate `rate`: rate 0 is the pristine
/// baseline (no protocol engaged), anything else gets the fault plan plus
/// the deadline.
fn lossy_spec(procs: usize, rate: f64) -> RunSpec {
    let s = spec(procs);
    if rate > 0.0 {
        s.with_net(
            NetConfig::berkeley_now().with_faults(FaultPlan::with_drop_rate(rate, FAULT_SEED)),
        )
        .with_time_limit(LOSSY_RUN_DEADLINE)
    } else {
        s
    }
}

fn ext_fault_sweep(lab: &mut Lab) -> Rendered {
    let (procs, rates): (usize, &[f64]) = match lab.scale {
        SuiteScale::Test => (8, &[0.0, 0.01, 0.05]),
        SuiteScale::Benchmark => (32, &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10]),
    };
    let pct = |rate: f64| format!("{:.1}%", rate * 100.0);

    // Suite slowdown vs drop rate.
    let mut slow = keyed_table(
        format!("ext: slowdown vs drop rate ({procs} procs, seed {FAULT_SEED:#x})"),
        "app",
        (rates.iter().map(|&r| pct(r))).chain(["shape".to_string()]),
    );
    let apps = lab.suite();
    let specs: Vec<RunSpec> = rates.iter().map(|&r| lossy_spec(procs, r)).collect();
    // Per-rate protocol totals, accumulated across the suite.
    let mut totals = vec![[0u64; 4]; rates.len()]; // drops, retx, timeouts, n/a
    for (app, outs) in apps.iter().zip(run_grid(&apps, &specs, lab.jobs)) {
        // The rate grid starts at 0: the lossless baseline.
        let base = &outs[0];
        if !base.completed {
            return Err(format!(
                "{}: lossless baseline did not complete",
                app.name()
            ));
        }
        let mut slowdowns = Vec::with_capacity(rates.len());
        for ((out, &rate), total) in outs.iter().zip(rates).zip(&mut totals) {
            total[0] += out.stats.total_drops();
            total[1] += out.stats.total_retransmits();
            total[2] += out.stats.total_timeouts();
            total[3] += u64::from(!out.completed);
            // Loss must never corrupt results: retransmission keeps the
            // application's answer bit-identical.
            if out.completed && out.check != base.check {
                return Err(format!(
                    "{}: checksum changed at drop rate {rate}",
                    app.name()
                ));
            }
            slowdowns.push(out.completed.then(|| slowdown(out, base)));
        }
        slow.push_row(curve_row(app.name(), &slowdowns));
    }

    let mut proto = Table::new(
        "ext: protocol work per drop rate (suite totals)",
        &["drop rate", "drops", "retransmits", "timeouts", "N/A runs"],
    );
    for (&rate, total) in rates.iter().zip(&totals) {
        proto.push_row(std::iter::once(pct(rate)).chain(total.iter().map(u64::to_string)));
    }

    // The §3.3 microbenchmarks under loss. The knobs are all at the
    // baseline — every shift below is protocol-induced.
    let mut cal = Table::new(
        "ext: effective LogGP parameters under loss (calibration microbenchmarks)",
        &[
            "drop rate",
            "o_send",
            "o_recv",
            "g (us)",
            "L (us)",
            "RTT (us)",
        ],
    );
    for &rate in rates {
        let net = lossy_spec(2, rate).net;
        let c = calibrate(net);
        cal.push_row([
            pct(rate),
            fmt_f(c.o_send_us, 2),
            fmt_f(c.o_recv_us, 2),
            fmt_f(c.gap_us, 2),
            fmt_f(c.latency_us, 2),
            fmt_f(round_trip_us(net), 1),
        ]);
    }
    Ok(vec![
        Block::Table(slow),
        Block::Table(proto),
        Block::Table(cal),
        text(format!(
            "drops are rerolled per retransmission, so every run above either \
             completes with the lossless checksum or reports N/A at the \
             {EVENT_LIMIT}-event / 120 s budget."
        )),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grid_is_simulated_once_and_shared() {
        let mut lab = Lab::new(SuiteScale::Test, 2);
        let first = lab.grid(32, Axis::Overhead).unwrap();
        let again = lab.grid(32, Axis::Overhead).unwrap();
        assert!(
            std::ptr::eq(first.as_ptr(), again.as_ptr()),
            "the second request must hand back the same allocation"
        );
        assert!(Rc::ptr_eq(&first, &lab.baselines(32).unwrap()));
        assert_eq!(lab.grids.len(), 1);
        assert_eq!(first.len(), 10, "one sweep per suite app");
        assert_eq!(first[0].points.len(), Axis::Overhead.paper_values().len());
    }

    #[test]
    fn names_are_unique_and_select_finds_each() {
        for ex in EXHIBITS {
            let named: Vec<_> = EXHIBITS.iter().filter(|e| e.name == ex.name).collect();
            assert_eq!(named.len(), 1, "{} twice", ex.name);
            let one = select(ex.name).unwrap();
            assert_eq!((one.len(), one[0].name), (1, ex.name));
            assert!(!ex.shows.is_empty());
        }
        assert_eq!(select("all").unwrap().len(), EXHIBITS.len());
        let err = select("nope").unwrap_err();
        assert!(err.contains("unknown exhibit `nope`"), "{err}");
    }
}
