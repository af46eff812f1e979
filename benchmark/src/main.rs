//! The nowlab benchmark harness. One process runs one workload:
//!
//! ```text
//! harness --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! harness --list
//! harness --compare DIR_A DIR_B
//! ```
//!
//! With `--trace 0` (the default) it sets the workload up, runs timed
//! passes for about `--seconds` seconds (never fewer than three) and
//! reports the four end-to-end metrics, times scaled to yardstick speed
//! (see [`yardstick`]). With `--trace 1` it runs the layer probes, then one
//! untraced and one traced pass of each workload named (`--workload` then
//! also takes a comma-separated list or `all`), reports every per-layer
//! metric and writes `trace.json`. The traced run does a fixed amount of
//! work, so that its counts repeat exactly; `--seconds` does not size it.
//!
//! The last line of standard output is always one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `run.sh` is the
//! front door; it builds this binary and passes the host's `rustc` and
//! commit in the environment.

mod contract;
mod host;
mod probes;
mod spans;
mod stats;
mod workloads;
mod yardstick;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use nowlab_apps::SuiteScale;
use nowlab_metrics::json::{self, Value};

use contract::{Better, Contract, MetricDef};
use host::Host;
use spans::Tracer;
use stats::{rel_diff, summarize, Summary};
use workloads::{count_failed, prepare, Prepared, Settings};
use yardstick::Gauge;

/// Set-ups per untraced run; `setup_s` is their median. ISSUE 11 defines
/// `setup_s` as one set-up; the driver's contract asks for the median of
/// several, so that a single slow one cannot fail a later PR.
const SETUP_REPS: usize = 3;
/// Fewest timed passes per untraced run, however long one takes.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        list: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` (want 0 or 1)")),
                };
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let contract = Contract::load()?;
        if args.list {
            for w in &contract.workloads {
                println!("{}", w.name);
            }
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            compare(&contract, a, b)
        } else if args.trace {
            run_traced(&contract, &args)
        } else {
            run_untraced(&contract, &args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(2)
        }
    }
}

/// Set-up as `setup_s` defines it, timed as segments of `gauge`: one
/// untimed-for-`wall_s` warm-up pass at test scale, then the workload at
/// the run's scale with its reference fingerprints.
fn set_up(
    name: &str,
    settings: Settings,
    tracer: Option<Arc<Tracer>>,
    gauge: &mut Gauge,
) -> Result<Prepared, String> {
    let warm = Settings {
        scale: SuiteScale::Test,
        ..settings
    };
    let warmed = gauge.time(|| prepare(name, warm, None))?.pass(false, gauge);
    if count_failed(&warmed.ops, &warmed.ops) > 0 {
        return Err(format!(
            "{name}: the test-scale warm-up pass fails its checks"
        ));
    }
    gauge.time(|| prepare(name, settings, tracer))
}

fn settings_of(args: &Args) -> Settings {
    Settings {
        scale: if args.smoke {
            SuiteScale::Test
        } else {
            SuiteScale::Benchmark
        },
        seed: args.seed,
    }
}

/// One reported metric: its definition, value and (when it is a median of
/// several samples) the samples' extremes.
struct Reading<'a> {
    def: &'a MetricDef,
    value: f64,
    spread: Option<(Summary, usize)>,
}

/// The contract's result line.
fn result_line(correct: bool, attempted: u64, failed: u64, readings: &[Reading<'_>]) -> String {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, r) in readings.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        // `{:?}` prints an f64 with every digit it has.
        let _ = write!(
            line,
            "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            r.def.name, r.value, r.def.unit
        );
    }
    line.push_str("}}");
    line
}

/// Writes `<out>/<file>`: the result line's content plus the host
/// fingerprint, for `--compare` and for the record.
fn save(out: &Path, file: &str, host: &Host, seed: u64, result: &str) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(file);
    let doc = format!(
        "{{\"host\":{},\"seed\":{seed},\"result\":{result}}}\n",
        host.json()
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_readings(readings: &[Reading<'_>]) {
    for r in readings {
        print!("  {:<34} {:>16.6} {:<6}", r.def.name, r.value, r.def.unit);
        if let Some((s, n)) = r.spread {
            print!("  (median of {n}: min {:.6}, max {:.6})", s.min, s.max);
        }
        println!();
    }
}

fn run_untraced(contract: &Contract, args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let why = &contract.workload(name)?.why;
    let host = Host::detect();
    let settings = settings_of(args);

    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPS } {
        let mut gauge = Gauge::new();
        prepared = Some(set_up(name, settings, None, &mut gauge)?);
        setup_s.push(gauge.scaled_s);
        setup_raw_s.push(gauge.raw_s);
    }
    let prepared = prepared.expect("at least one set-up ran");

    let min_passes = if args.smoke { 1 } else { MIN_PASSES };
    let measuring = Instant::now();
    let (mut wall_s, mut raw_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let (mut attempted, mut failed, mut events) = (0u64, 0u64, 0u64);
    // Past the minimum, another pass runs only while it would end nearer
    // to `--seconds` than stopping now does.
    while wall_s.len() < min_passes
        || (!args.smoke
            && measuring.elapsed().as_secs_f64() + summarize(&raw_s).median / 2.0 < args.seconds)
    {
        let mut gauge = Gauge::new();
        let pass = prepared.pass(false, &mut gauge);
        wall_s.push(gauge.scaled_s);
        raw_s.push(gauge.raw_s);
        let first = first.get_or_insert_with(|| pass.ops.clone());
        attempted += pass.ops.len() as u64;
        failed += count_failed(&pass.ops, first);
        // Every pass repeats the first one's events, or is counted failed.
        events = pass.events;
    }

    let setup = summarize(&setup_s);
    let wall = summarize(&wall_s);
    let peak_rss_mb = host::peak_rss_mb()?;
    let readings: Vec<Reading<'_>> = contract
        .end_to_end
        .iter()
        .map(|def| {
            let (value, spread) = match def.name.as_str() {
                "setup_s" => (setup.median, Some((setup, setup_s.len()))),
                "wall_s" => (wall.median, Some((wall, wall_s.len()))),
                "events_per_s" => (events as f64 / wall.median, None),
                "peak_rss_mb" => (peak_rss_mb, None),
                other => return Err(format!("end-to-end metric {other} has no measurement")),
            };
            Ok(Reading { def, value, spread })
        })
        .collect::<Result<_, String>>()?;

    println!("workload {name}: {why}");
    println!(
        "  seed {}  passes {}  ops {attempted}  failed {failed}  events/pass {events}",
        args.seed,
        wall_s.len()
    );
    print_readings(&readings);
    let fmt = |v: &[f64]| -> String { v.iter().map(|s| format!(" {s:.3}")).collect() };
    println!(
        "  times above are at yardstick speed; as measured, set-up took a median {:.6} s and a pass {:.6} s",
        summarize(&setup_raw_s).median,
        summarize(&raw_s).median
    );
    println!("  pass seconds, scaled:     {}", fmt(&wall_s));
    println!("  pass seconds, as measured:{}", fmt(&raw_s));
    println!("host: {host}");
    let line = result_line(failed == 0, attempted.max(1), failed, &readings);
    save(&args.out, &format!("{name}.json"), &host, args.seed, &line)?;
    println!("{line}");
    Ok(failed == 0)
}

fn run_traced(contract: &Contract, args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match args.workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => contract.workloads.iter().map(|w| w.name.as_str()).collect(),
        Some(list) => list.split(',').collect(),
    };
    for name in &names {
        contract.workload(name)?;
    }
    let host = Host::detect();
    let settings = settings_of(args);
    let tracer = Arc::new(Tracer::new());

    let mut ledger = probes::Ledger::new(&tracer, args.smoke);
    probes::run_all(&mut ledger, settings)?;
    let mut values = ledger.into_values();

    // Per workload: one pass with spans off and one with spans on, both at
    // yardstick speed; their difference is what the tracing itself costs.
    // A process's first benchmark-scale pass runs 5-8 % slower than its
    // later ones, so an unmeasured pass goes first; which measured pass
    // follows it alternates with the seed, so that whatever else favours
    // one position cancels over a set of runs.
    let traced_first = args.seed.is_multiple_of(2);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut overheads = Vec::new();
    for name in &names {
        let prepared = set_up(name, settings, Some(Arc::clone(&tracer)), &mut Gauge::new())?;
        let timed_pass = |tracing: bool| {
            let mut gauge = Gauge::new();
            (prepared.pass(tracing, &mut gauge), gauge.scaled_s)
        };
        if !args.smoke {
            timed_pass(false);
        }
        let (a, b) = (timed_pass(traced_first), timed_pass(!traced_first));
        let ((plain, plain_s), (traced, traced_s)) = if traced_first { (b, a) } else { (a, b) };
        attempted += (plain.ops.len() + traced.ops.len()) as u64;
        failed += count_failed(&plain.ops, &plain.ops) + count_failed(&traced.ops, &plain.ops);
        let overhead = rel_diff(plain_s, traced_s);
        println!(
            "workload {name}: untraced pass {plain_s:.3} s, traced pass {traced_s:.3} s \
             (yardstick speed, {} first), tracing overhead {:+.2}%",
            if traced_first { "traced" } else { "untraced" },
            overhead * 100.0
        );
        overheads.push(overhead);
    }
    // One workload named: its own figure. Several: their mean.
    values.insert(
        "harness.trace_overhead_frac".to_string(),
        overheads.iter().sum::<f64>() / overheads.len() as f64,
    );

    let tracer = Arc::into_inner(tracer).ok_or("a workload still holds the tracer")?;
    let (spans, counts) = tracer.finish();
    values.insert("harness.spans".to_string(), spans.len() as f64);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("trace.json");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    spans::write_json(&mut w, &host.json(), &spans, &counts)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "\nhost self time by layer (spans written to {}):",
        path.display()
    );
    println!("  {:<10} {:>8} {:>14}", "layer", "calls", "self ms");
    // Probe spans are measurements of their own; the table attributes the
    // traced workload passes.
    for (layer, (calls, self_ns)) in spans::layer_table(&spans, |s| s.workload != "probe") {
        println!("  {layer:<10} {calls:>8} {:>14.3}", self_ns as f64 / 1e6);
    }
    println!("counts:");
    for (name, n) in &counts {
        println!("  {name:<34} {n:>16}");
    }

    let readings: Vec<Reading<'_>> = contract
        .per_layer
        .iter()
        .map(|def| {
            let value = values
                .remove(&def.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("no probe reported a finite {}", def.name))?;
            Ok(Reading {
                def,
                value,
                spread: None,
            })
        })
        .collect::<Result<_, String>>()?;
    if let Some(stray) = values.keys().next() {
        return Err(format!(
            "{stray} is measured but BENCHMARK.json does not list it"
        ));
    }
    println!("per-layer metrics:");
    print_readings(&readings);
    println!("host: {host}");
    let line = result_line(failed == 0, attempted.max(1), failed, &readings);
    save(&args.out, "layers.json", &host, args.seed, &line)?;
    println!("{line}");
    Ok(failed == 0)
}

/// `name → (value, unit)` of a saved result file.
type Saved = BTreeMap<String, (f64, String)>;

fn load(path: &Path) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: not a harness result file", path.display());
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
        return Err(bad());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).ok_or_else(bad)?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or_else(bad)?;
            Ok((name.clone(), (value, unit.to_string())))
        })
        .collect()
}

/// Compares two sets of result files: every end-to-end metric's relative
/// difference beside its bound, and every exact count for identity.
fn compare(contract: &Contract, a: &Path, b: &Path) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in &contract.workloads {
        let file = format!("{}.json", w.name);
        let (first, second) = (load(&a.join(&file))?, load(&b.join(&file))?);
        for def in &contract.end_to_end {
            let value = |set: &Saved| {
                set.get(&def.name)
                    .map(|v| v.0)
                    .ok_or_else(|| format!("{file} lacks {}", def.name))
            };
            let (x, y) = (value(&first)?, value(&second)?);
            // How much worse the second set reads, as a share of the first.
            let worse = match def.better {
                Better::Lower => rel_diff(x, y),
                Better::Higher => -rel_diff(x, y),
            };
            let bound = def
                .bound
                .ok_or_else(|| format!("BENCHMARK.json gives {} no bound", def.name))?;
            let outside = worse.abs() > bound;
            ok &= !outside;
            println!(
                "{:<14} {:<14} {x:>14.4} {y:>14.4} {:>+8.2}% {:>6.0}%{}",
                w.name,
                def.name,
                worse * 100.0,
                bound * 100.0,
                if outside { "  OUTSIDE" } else { "" }
            );
        }
    }
    let layers = (a.join("layers.json"), b.join("layers.json"));
    if layers.0.exists() && layers.1.exists() {
        let (first, second) = (load(&layers.0)?, load(&layers.1)?);
        let counts: Vec<_> = first.iter().filter(|(_, v)| v.1 == "count").collect();
        for (name, v) in &counts {
            if second.get(*name) != Some(v) {
                ok = false;
                println!("count {name} differs: {} vs {:?}", v.0, second.get(*name));
            }
        }
        println!(
            "{} exact counts compared across the two traced runs",
            counts.len()
        );
    }
    println!(
        "{}",
        if ok {
            "within bounds"
        } else {
            "OUTSIDE bounds"
        }
    );
    Ok(ok)
}
