//! `nowlab` — command-line front end to the LogGP laboratory.
//!
//! ```text
//! nowlab list
//! nowlab calibrate [--o US] [--g US] [--l US] [--mbps MB] [--window N]
//! nowlab run   --app NAME [--procs N] [--seed S] [--scale test|benchmark]
//!              [--o US] [--g US] [--l US] [--mbps MB] [--verify-determinism]
//! nowlab sweep --app NAME --axis overhead|gap|latency|bulk [--procs N]
//! nowlab suite [--procs N] [--scale test|benchmark]
//! nowlab exhibit NAME|all [--scale test|benchmark] [--jobs N] [--csv DIR]
//! ```
//!
//! Knob flags give *desired absolute* parameter values (like the paper's
//! tables); omitted knobs stay at the Berkeley NOW baseline.
//!
//! Every network-taking command also accepts `--drop-rate R` (fraction of
//! messages the wire swallows, engaging the reliable-delivery protocol)
//! and `--fault-seed S` (the deterministic fault stream). Faulty runs get
//! a virtual-time deadline so total loss reports N/A instead of spinning.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "CLI flag map: host-side argument parsing, consumed by value lookups only (never iterated into simulation state)"
)]

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::calib::{calibrate, calibrate_bulk};
use nowlab::core::report::{fmt_f, fmt_time, Table};
use nowlab::core::{
    allgather_us, alltoall_us, bcast_us, default_jobs, parallel_map, predict_app, reduce_us,
    render_report, render_report_auto, sweep_jobs, write_sweep_json, Axis, CollAlgo, CollConfig,
    FaultPlan, Knobs, MetricsMode, NetConfig, NodeFault, NodeFaultPlan, RunMeta, RunOutcome,
    RunSpec, Selector, SimDelta, SimTime, SweepPointMeta, SweepableApp, TraceMode,
};
use nowlab::exhibits::{self, Lab, EXHIBITS};
use nowlab::trace::chrome::{write_chrome_trace, write_chrome_trace_highlighted};
use nowlab::trace::{CostClass, SHARES};

const USAGE: &str = "usage:
  nowlab list
  nowlab calibrate [--o US] [--g US] [--l US] [--mbps MB] [--window N]
  nowlab run   --app NAME [--procs N] [--seed S] [--scale test|benchmark]
               [--o US] [--g US] [--l US] [--mbps MB] [--verify-determinism]
               [--coll-algo NAME] [--trace FILE.json] [--trace-summary]
               [--metrics FILE.json] [--metrics-summary]
  nowlab sweep --app NAME --axis overhead|gap|latency|bulk|coll|chaos
               [--procs N] [--scale test|benchmark] [--coll-algo NAME]
               [--trace-summary] [--metrics FILE.json] [--metrics-summary]
  nowlab suite [--procs N] [--scale test|benchmark] [--coll-algo NAME]
  nowlab predict --app NAME [--procs N] [--seed S] [--scale test|benchmark]
               [--axis overhead|gap|latency|bulk] [--jobs N]
               [--out FILE.json] [--trace FILE.json]
  nowlab exhibit NAME|all [--scale test|benchmark] [--jobs N] [--csv DIR]
  nowlab report FILE.json
parallelism (run/sweep/suite/predict/exhibit):
  [--jobs N]   worker threads for independent runs (default: all cores;
               results are byte-identical to --jobs 1)
fault injection (calibrate/run/sweep/suite):
  [--drop-rate R] [--fault-seed S]   deterministic wire loss, R in [0,1]
node faults (run/sweep/suite):
  [--crash p3@2.5ms]        freeze processor 3 at t=2.5ms forever
                            (crash-stop); `p3@2.5ms+800us` resumes it
                            after 800us of downtime (crash-recovery)
  [--straggler p1x2.0]      scale processor 1's host charges by 2.0
  both take comma-separated lists; a run that confirms a peer dead under
  an aborting app exits nonzero with a structured abort note
chaos sweep:
  --axis chaos  crash one processor at increasing fractions of the
                healthy runtime and report detection/abort behavior
collectives (run/sweep/suite):
  [--coll-algo NAME]  force a collective-algorithm variant everywhere it
                      applies instead of LogGP model-driven selection
                      (auto, binomial, chain, scatter-allgather, flat,
                      tree, ring, direct, pairwise)
  --axis coll   sweep overhead while printing the selector's predicted
                per-variant decisions at each point (crossover table)
tracing (run/sweep):
  [--trace FILE.json]  per-message LogGP cost trace (Chrome trace format,
                       open in chrome://tracing or ui.perfetto.dev)
  [--trace-summary]    per-component cost attribution table
metrics (run/sweep):
  [--metrics FILE.json]  simulated-time utilization report (versioned
                         schema; render later with `nowlab report`)
  [--metrics-summary]    per-phase utilization table on stdout
prediction (predict):
  one fully traced baseline run builds the happens-before message DAG;
  slowdown curves and 5% tolerance thresholds are then re-priced
  symbolically at the paper's grid values without re-simulating
  [--out FILE.json]    versioned predict report (`nowlab report` renders
                       either schema)
  [--trace FILE.json]  Chrome trace of the baseline with critical-path
                       messages tagged with a `critical` category
exhibits (exhibit):
  regenerates a table or figure of the paper (names: `nowlab list`), or
  every one in order with `all`; exhibits that share a suite-wide sweep
  simulate it once
  [--csv DIR]          also save every printed table as DIR/<exhibit>.csv
                       (<exhibit>_<k>.csv when the exhibit has several)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `report` and `exhibit` start with a positional argument, not a --flag.
    if cmd == "report" || cmd == "exhibit" {
        let result = if cmd == "report" {
            cmd_report(rest)
        } else {
            cmd_exhibit(rest)
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "list" => cmd_list().map(|()| ExitCode::SUCCESS),
        "calibrate" => cmd_calibrate(&flags).map(|()| ExitCode::SUCCESS),
        // run/sweep pick their own exit code: a run that aborts on a
        // confirmed node death is a *result* (reported structurally),
        // not a CLI misuse, but it must still exit nonzero for CI.
        "run" => cmd_run(&flags),
        "sweep" => cmd_sweep(&flags),
        "suite" => cmd_suite(&flags).map(|()| ExitCode::SUCCESS),
        "predict" => cmd_predict(&flags).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Flags that take no value; their presence maps to `"true"`.
const BOOL_FLAGS: &[&str] = &["verify-determinism", "trace-summary", "metrics-summary"];

fn parse_flags(rest: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// Worker-thread count from `--jobs` (default: the host's parallelism).
/// Zero is rejected; 1 selects the exact sequential code path.
fn jobs_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    let jobs: usize = parse_or(flags, "jobs", default_jobs())?;
    if jobs == 0 {
        return Err("--jobs: want at least 1".to_string());
    }
    Ok(jobs)
}

/// Processor count from `--procs` (default 32). The AM cluster needs at
/// least one, and the trace and prediction layers address at most 65 534.
fn procs_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    let procs: usize = parse_or(flags, "procs", 32usize)?;
    if !(1..usize::from(u16::MAX)).contains(&procs) {
        return Err("--procs: want 1..=65534".to_string());
    }
    Ok(procs)
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn scale_of(flags: &HashMap<String, String>) -> Result<SuiteScale, String> {
    match flags.get("scale").map(String::as_str) {
        None | Some("benchmark") => Ok(SuiteScale::Benchmark),
        Some("test") => Ok(SuiteScale::Test),
        Some(other) => Err(format!("--scale: `{other}` (want test|benchmark)")),
    }
}

/// Parses a duration like `2.5ms`, `800us`, or `0.01s` into a
/// [`SimDelta`].
fn parse_delta(s: &str) -> Result<SimDelta, String> {
    let (num, scale_us) = if let Some(n) = s.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e6)
    } else {
        return Err(format!("`{s}`: want a duration like 2.5ms, 800us, 1s"));
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("`{s}`: cannot parse `{num}` as a number"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("`{s}`: duration must be finite and nonnegative"));
    }
    Ok(SimDelta::from_micros(v * scale_us))
}

/// Parses one `--crash` spec: `p<N>@<TIME>` (crash-stop) or
/// `p<N>@<TIME>+<DOWNTIME>` (crash-recovery).
fn parse_crash(spec: &str) -> Result<NodeFault, String> {
    let rest = spec
        .strip_prefix('p')
        .ok_or_else(|| format!("--crash `{spec}`: want p<N>@<TIME>[+<DOWNTIME>]"))?;
    let (node, when) = rest
        .split_once('@')
        .ok_or_else(|| format!("--crash `{spec}`: missing `@<TIME>`"))?;
    let node: usize = node
        .parse()
        .map_err(|_| format!("--crash `{spec}`: bad processor id `{node}`"))?;
    match when.split_once('+') {
        None => Ok(NodeFault::crash(node, SimTime::ZERO + parse_delta(when)?)),
        Some((at, down)) => {
            let downtime = parse_delta(down)?;
            if downtime.is_zero() {
                return Err(format!("--crash `{spec}`: downtime must be positive"));
            }
            Ok(NodeFault::crash_recovery(
                node,
                SimTime::ZERO + parse_delta(at)?,
                downtime,
            ))
        }
    }
}

/// Parses one `--straggler` spec: `p<N>x<FACTOR>` with `FACTOR >= 1`.
fn parse_straggler(spec: &str) -> Result<NodeFault, String> {
    let rest = spec
        .strip_prefix('p')
        .ok_or_else(|| format!("--straggler `{spec}`: want p<N>x<FACTOR>"))?;
    let (node, factor) = rest
        .split_once('x')
        .ok_or_else(|| format!("--straggler `{spec}`: missing `x<FACTOR>`"))?;
    let node: usize = node
        .parse()
        .map_err(|_| format!("--straggler `{spec}`: bad processor id `{node}`"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|_| format!("--straggler `{spec}`: bad factor `{factor}`"))?;
    if !(factor.is_finite() && factor >= 1.0) {
        return Err(format!(
            "--straggler `{spec}`: factor must be >= 1 (a node cannot be faster than healthy)"
        ));
    }
    Ok(NodeFault::straggler(node, factor))
}

/// Builds the node-fault plan from `--crash` / `--straggler`
/// (comma-separated specs) and the shared `--fault-seed`.
fn node_faults_of(flags: &HashMap<String, String>) -> Result<NodeFaultPlan, String> {
    let mut faults = Vec::new();
    if let Some(specs) = flags.get("crash") {
        for spec in specs.split(',') {
            faults.push(parse_crash(spec.trim())?);
        }
    }
    if let Some(specs) = flags.get("straggler") {
        for spec in specs.split(',') {
            faults.push(parse_straggler(spec.trim())?);
        }
    }
    if faults.len() > nowlab::am::MAX_NODE_FAULTS {
        return Err(format!(
            "at most {} node faults per run (got {})",
            nowlab::am::MAX_NODE_FAULTS,
            faults.len()
        ));
    }
    let mut plan = NodeFaultPlan::none().with_seed(parse_or(flags, "fault-seed", 1u64)?);
    for f in faults {
        if plan.fault_of(f.node).is_some() {
            return Err(format!("node p{} afflicted twice", f.node));
        }
        plan = plan.with_fault(f);
    }
    Ok(plan)
}

/// Builds a network config from desired absolute knob values.
fn net_of(flags: &HashMap<String, String>) -> Result<NetConfig, String> {
    let mut cfg = NetConfig::berkeley_now();
    if let Some(w) = flags.get("window") {
        let w: u32 = w
            .parse()
            .map_err(|_| "--window: not a number".to_string())?;
        if w == 0 {
            return Err("--window: want at least 1".to_string());
        }
        cfg = cfg.with_window(w);
    }
    let mut knobs = Knobs::baseline();
    let apply = |axis: Axis, flag: &str, knobs: &mut Knobs| -> Result<(), String> {
        if let Some(v) = flags.get(flag) {
            let v: f64 = v
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse `{v}`"))?;
            let k = axis
                .knobs_for(&NetConfig::berkeley_now().machine, v)
                .ok_or(format!(
                    "--{flag} {v}: below the Berkeley NOW baseline (the apparatus only slows down)"
                ))?;
            match axis {
                Axis::Overhead | Axis::Coll => knobs.d_o = k.d_o,
                Axis::Gap => knobs.d_g = k.d_g,
                Axis::Latency => knobs.d_lat = k.d_lat,
                Axis::BulkBandwidth => knobs.d_gap_per_byte = k.d_gap_per_byte,
            }
        }
        Ok(())
    };
    apply(Axis::Overhead, "o", &mut knobs)?;
    apply(Axis::Gap, "g", &mut knobs)?;
    apply(Axis::Latency, "l", &mut knobs)?;
    apply(Axis::BulkBandwidth, "mbps", &mut knobs)?;
    let rate: f64 = parse_or(flags, "drop-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--drop-rate {rate}: want a fraction in [0, 1]"));
    }
    let node_plan = node_faults_of(flags)?;
    if node_plan.is_active() {
        cfg = cfg.with_node_faults(node_plan);
    }
    if rate > 0.0 {
        let seed: u64 = parse_or(flags, "fault-seed", 1)?;
        cfg = cfg.with_faults(FaultPlan::with_drop_rate(rate, seed));
    } else if flags.contains_key("fault-seed") && !node_plan.is_active() {
        return Err(
            "--fault-seed without --drop-rate/--crash/--straggler has no effect".to_string(),
        );
    }
    Ok(cfg.with_knobs(knobs))
}

/// Collective-algorithm policy from `--coll-algo` (absent means
/// model-driven selection).
fn coll_of(flags: &HashMap<String, String>) -> Result<CollConfig, String> {
    match flags.get("coll-algo") {
        None => Ok(CollConfig::default()),
        Some(name) => {
            let algo: CollAlgo = name.parse().map_err(|e| format!("--coll-algo: {e}"))?;
            Ok(CollConfig::forced(algo))
        }
    }
}

/// Virtual-time deadline for runs on a faulty wire: 120 simulated seconds,
/// far beyond any healthy run in the suite.
const FAULTY_RUN_DEADLINE: SimDelta = SimDelta::from_micros_int(120_000_000);

/// Attaches livelock guards to `spec`: always an event budget, plus a
/// virtual-time deadline when the wire is faulty (retransmission backoff
/// never gives up on its own, so only a limit turns total loss into N/A).
fn guard(spec: RunSpec) -> RunSpec {
    let spec = spec.with_event_limit(300_000_000);
    if spec.net.faults.is_active() || spec.net.node_faults.is_active() {
        spec.with_time_limit(FAULTY_RUN_DEADLINE)
    } else {
        spec
    }
}

fn find_app(scale: SuiteScale, name: &str) -> Result<Box<dyn SweepableApp>, String> {
    // Normalize to lowercase alphanumerics: "NOW-sort" == "nowsort",
    // "EM3D(write)" == "em3dwrite".
    let norm = |s: &str| -> String {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let wanted = norm(name);
    for app in suite_scaled(scale) {
        if norm(app.name()) == wanted {
            return Ok(app);
        }
    }
    Err(format!(
        "unknown app `{name}` (try `nowlab list`; names like radix, em3dwrite, nowsort)"
    ))
}

fn cmd_list() -> Result<(), String> {
    println!("applications (paper Table 3):");
    for app in suite_scaled(SuiteScale::Benchmark) {
        println!("  {}", app.name());
    }
    println!("\naxes: overhead, gap, latency, bulk, coll, chaos");
    println!("\nexhibits (`nowlab exhibit NAME|all`):");
    for ex in EXHIBITS {
        println!("  {:<27} {}", ex.name, ex.shows);
    }
    Ok(())
}

/// The `exhibit` driver: one table or figure of the paper (or `all`),
/// rendered from the lab's shared grids.
fn cmd_exhibit(rest: &[String]) -> Result<(), String> {
    let (name, flags) = rest
        .split_first()
        .ok_or("exhibit needs a name (see `nowlab list`) or `all`")?;
    let flags = parse_flags(flags)?;
    let mut lab = Lab::new(scale_of(&flags)?, jobs_of(&flags)?);
    exhibits::run(name, &mut lab, flags.get("csv").map(Path::new))
}

fn cmd_calibrate(flags: &HashMap<String, String>) -> Result<(), String> {
    let cfg = net_of(flags)?;
    println!("configuration: {cfg}");
    let c = calibrate(cfg);
    let bw = calibrate_bulk(cfg);
    let mut t = Table::new(
        "calibration (LogP signature microbenchmarks)",
        &[
            "o (us)",
            "o_send",
            "o_recv",
            "g (us)",
            "L (us)",
            "bulk MB/s",
        ],
    );
    t.push_row([
        fmt_f(c.o_mean_us(), 2),
        fmt_f(c.o_send_us, 2),
        fmt_f(c.o_recv_us, 2),
        fmt_f(c.gap_us, 2),
        fmt_f(c.latency_us, 2),
        fmt_f(bw, 1),
    ]);
    println!("{t}");
    Ok(())
}

/// Tracing mode from `--trace` / `--trace-summary`: a Chrome-trace export
/// needs full per-message records; a summary alone gets the bounded-memory
/// aggregation mode.
fn trace_mode_of(flags: &HashMap<String, String>) -> TraceMode {
    if flags.contains_key("trace") {
        TraceMode::Full
    } else if flags.contains_key("trace-summary") {
        TraceMode::Summary
    } else {
        TraceMode::Off
    }
}

/// Metrics mode from `--metrics` / `--metrics-summary`: either form of
/// output needs the recorder attached.
fn metrics_mode_of(flags: &HashMap<String, String>) -> MetricsMode {
    if flags.contains_key("metrics") || flags.contains_key("metrics-summary") {
        MetricsMode::On
    } else {
        MetricsMode::Off
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let name = flags.get("app").ok_or("run needs --app")?;
    let app = find_app(scale_of(flags)?, name)?;
    let spec = guard(
        RunSpec::new(procs_of(flags)?)
            .with_net(net_of(flags)?)
            .with_seed(parse_or(flags, "seed", 1u64)?)
            .with_coll(coll_of(flags)?)
            .with_trace(trace_mode_of(flags))
            .with_metrics(metrics_mode_of(flags)),
    );
    let jobs = jobs_of(flags)?;
    let verify = flags.contains_key("verify-determinism");
    // With --jobs > 1 the determinism double-run executes both replicas
    // concurrently — a sharper test than back-to-back runs, since the
    // replicas race each other in wall time yet must agree in virtual time.
    let mut replica = if verify && jobs > 1 {
        let mut runs = parallel_map(2, &[(), ()], |_, _| app.run(&spec));
        let second = runs.pop();
        (runs.pop(), second)
    } else {
        (Some(app.run(&spec)), None)
    };
    let out = replica.0.take().expect("first replica always present");
    let mut t = Table::new(
        format!("{} on {} processors", app.name(), spec.procs),
        &[
            "runtime",
            "completed",
            "msg/proc",
            "interval us",
            "% bulk",
            "% reads",
            "balance",
            "check",
        ],
    );
    t.push_row([
        fmt_time(out.runtime),
        out.completed.to_string(),
        fmt_f(out.stats.avg_msgs_per_proc(), 0),
        fmt_f(out.stats.msg_interval_us(), 1),
        fmt_f(out.stats.pct_bulk(), 1),
        fmt_f(out.stats.pct_reads(), 1),
        fmt_f(out.stats.balance(), 2),
        format!("{:016x}", out.check),
    ]);
    println!("{t}");
    if spec.net.reliability_active() {
        println!(
            "faults: {} drops, {} dups, {} retransmits, {} timeouts, max backoff {}",
            out.stats.total_drops(),
            out.stats.total_dups(),
            out.stats.total_retransmits(),
            out.stats.total_timeouts(),
            fmt_time(out.stats.max_retry_backoff()),
        );
    }
    if spec.net.node_faults.is_active() {
        println!(
            "detector: {} heartbeats, {} suspicions ({} false), {} deaths, max detect latency {}",
            out.stats.total_heartbeats(),
            out.stats.total_suspicions(),
            out.stats.total_false_suspicions(),
            out.stats.total_peer_deaths(),
            fmt_time(out.stats.max_detect_latency()),
        );
    }
    if let Some(report) = &out.trace {
        if flags.contains_key("trace-summary") {
            println!("{}", report.summary.render());
        }
        if let Some(path) = flags.get("trace") {
            // The exporter hands over 64 KiB pieces: the file takes them
            // as they are, and a failing last one is an error here.
            let mut file = std::fs::File::create(path)
                .map_err(|e| format!("--trace {path}: cannot create: {e}"))?;
            let drawn = write_chrome_trace(&report.records, &mut file)
                .map_err(|e| format!("--trace {path}: write failed: {e}"))?;
            println!(
                "trace: {drawn} message lifetimes ({} records) written to {path}",
                report.records.len()
            );
        }
    }
    if let Some(report) = &out.metrics {
        // One serialization serves both outputs: the file is the JSON
        // bytes, and the summary is rendered *from* those bytes, so what
        // `nowlab report` shows later is exactly what stdout showed.
        let meta = RunMeta {
            app: app.name(),
            procs: spec.procs,
            seed: spec.seed,
        };
        let mut buf = Vec::new();
        report
            .write_json(&meta, &mut buf)
            .map_err(|e| format!("metrics serialization failed: {e}"))?;
        let json = String::from_utf8(buf).expect("report JSON is ASCII");
        if flags.contains_key("metrics-summary") {
            println!("{}", render_report(&json)?);
        }
        if let Some(path) = flags.get("metrics") {
            std::fs::write(path, &json)
                .map_err(|e| format!("--metrics {path}: cannot write: {e}"))?;
            println!("metrics: report written to {path} (render with `nowlab report {path}`)");
        }
    }
    if verify {
        // Re-run the identical spec and diff everything observable. Virtual
        // time is a pure function of (program, seed), so any inequality
        // here is a determinism bug in the stack below.
        let out2 = replica.1.take().unwrap_or_else(|| app.run(&spec));
        let mut diffs = Vec::new();
        if out.check != out2.check {
            diffs.push(format!("check {:016x} vs {:016x}", out.check, out2.check));
        }
        if out.runtime != out2.runtime {
            diffs.push(format!(
                "runtime {} vs {}",
                fmt_time(out.runtime),
                fmt_time(out2.runtime)
            ));
        }
        if out.completed != out2.completed {
            diffs.push(format!("completed {} vs {}", out.completed, out2.completed));
        }
        if out.stats != out2.stats {
            diffs.push("per-processor communication stats differ".to_string());
        }
        if out.metrics != out2.metrics {
            diffs.push("metrics timelines differ".to_string());
        }
        if diffs.is_empty() {
            println!(
                "determinism: OK — two runs with seed {} are bit-identical \
                 (runtime, checksum, and all communication counters)",
                spec.seed
            );
        } else {
            return Err(format!("determinism violation: {}", diffs.join("; ")));
        }
    }
    if let Some(note) = out.abort {
        eprintln!("run aborted: {note}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let name = flags.get("app").ok_or("sweep needs --app")?;
    let app = find_app(scale_of(flags)?, name)?;
    let axis_flag = flags
        .get("axis")
        .ok_or("sweep needs --axis")?
        .to_ascii_lowercase();
    // The chaos axis perturbs *when a processor dies*, not a LogGP
    // parameter, so it gets a dedicated driver instead of Axis knobs.
    if axis_flag == "chaos" {
        return cmd_sweep_chaos(flags, app.as_ref());
    }
    let axis = Axis::parse(&axis_flag).ok_or_else(|| format!("--axis: `{axis_flag}`"))?;
    let tracing = flags.contains_key("trace-summary");
    let metering = metrics_mode_of(flags);
    let spec = guard(
        RunSpec::new(procs_of(flags)?)
            .with_net(net_of(flags)?)
            .with_coll(coll_of(flags)?)
            .with_trace(if tracing {
                TraceMode::Summary
            } else {
                TraceMode::Off
            })
            .with_metrics(metering),
    );
    let values = axis.paper_values();
    let result = match sweep_jobs(app.as_ref(), &spec, axis, &values, jobs_of(flags)?) {
        Ok(s) => s,
        Err(e) => {
            // A sweep without a usable baseline is a legitimate scientific
            // outcome (the paper's N/A entries), not a CLI misuse: report
            // it structurally and exit cleanly.
            println!("sweep N/A — {e}");
            return Ok(ExitCode::SUCCESS);
        }
    };
    let faulty = spec.net.faults.is_active();
    let mut headers = vec![axis.label(), "runtime", "slowdown"];
    if faulty {
        headers.extend(["drops", "retx", "timeouts"]);
    }
    // Per-phase utilization columns: overall compute share, then one
    // column per application phase (phase names come from the first
    // metered point; SPMD phase structure is identical across points).
    let phase_names: Vec<String> = if metering == MetricsMode::On {
        result
            .points
            .iter()
            .find_map(|p| p.metrics.as_ref())
            .map(|s| s.phases.iter().map(|ph| ph.name.clone()).collect())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    let mut owned_headers: Vec<String> = Vec::new();
    if tracing {
        owned_headers.extend(SHARES.names.map(|name| format!("% {name}")));
    }
    if metering == MetricsMode::On {
        owned_headers.push("cmp%".to_string());
        for name in &phase_names {
            owned_headers.push(format!("cmp%:{name}"));
        }
    }
    headers.extend(owned_headers.iter().map(String::as_str));
    let mut t = Table::new(
        format!("{}: slowdown vs {axis} ({} procs)", result.app, spec.procs),
        &headers,
    );
    for p in &result.points {
        let mut row = vec![
            fmt_f(p.desired, 1),
            fmt_time(p.runtime),
            if p.completed {
                fmt_f(p.slowdown, 2)
            } else {
                "N/A".into()
            },
        ];
        if faulty {
            row.extend([
                p.drops.to_string(),
                p.retransmits.to_string(),
                p.timeouts.to_string(),
            ]);
        }
        if tracing {
            // Per-axis attribution: where each message's end-to-end time
            // went at this sweep point (overhead, NIC, wire, rx queueing).
            match &p.trace {
                Some(s) => row.extend(s.shares().map(|share| fmt_f(100.0 * share, 1))),
                None => row.extend(SHARES.names.map(|_| "-".into())),
            }
        }
        if metering == MetricsMode::On {
            match &p.metrics {
                Some(s) => {
                    row.push(fmt_f(100.0 * s.share(CostClass::Compute), 1));
                    for name in &phase_names {
                        let cell = s
                            .phases
                            .iter()
                            .find(|ph| &ph.name == name)
                            .map(|ph| fmt_f(100.0 * ph.share(CostClass::Compute), 1))
                            .unwrap_or_else(|| "-".into());
                        row.push(cell);
                    }
                }
                None => row.extend((0..1 + phase_names.len()).map(|_| "-".to_string())),
            }
        }
        t.push_row(row);
    }
    println!("{t}");
    if axis == Axis::Coll {
        print_coll_decisions(&spec, axis, &values)?;
    }
    if let Some(path) = flags.get("metrics") {
        let metas: Vec<SweepPointMeta<'_>> = result
            .points
            .iter()
            .filter_map(|p| {
                p.metrics.as_ref().map(|s| SweepPointMeta {
                    x: p.desired,
                    runtime_ns: p.runtime.as_nanos(),
                    slowdown: p.slowdown,
                    summary: s,
                })
            })
            .collect();
        let mut buf = Vec::new();
        write_sweep_json(&result.app, axis.label(), spec.procs, &metas, &mut buf)
            .map_err(|e| format!("metrics serialization failed: {e}"))?;
        std::fs::write(path, &buf).map_err(|e| format!("--metrics {path}: cannot write: {e}"))?;
        println!("metrics: sweep report written to {path} (render with `nowlab report {path}`)");
    }
    if let Some(fit) = result.linearity() {
        println!(
            "linear fit: slowdown ≈ {:.4}·x + {:.2}   (R² = {:.4})",
            fit.slope, fit.intercept, fit.r2
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Payload used for the `--axis coll` selector-decision table: 16 KiB sits
/// where the sweep itself moves a winner — the broadcast flips from the
/// bandwidth-optimal scatter-allgather to the message-frugal binomial tree
/// between o = 13 and o = 23 µs (see EXPERIMENTS.md §collective
/// crossovers), while the gathers stay with the direct exchange whose
/// overlapped incast the conformance suite shows is measured-cheapest
/// across the whole axis at this cluster size.
const COLL_TABLE_BYTES: u64 = 16 * 1024;

/// Prints the LogGP selector's predicted choice (and predicted completion
/// time) for each collective family at every swept overhead point, so the
/// crossover from bandwidth-friendly to message-frugal variants is visible
/// next to the measured slowdown table.
fn print_coll_decisions(spec: &RunSpec, axis: Axis, values: &[f64]) -> Result<(), String> {
    let procs = spec.procs;
    let bytes = COLL_TABLE_BYTES;
    let mut t = Table::new(
        format!(
            "model-selected variants vs overhead ({procs} procs, {bytes}-byte payloads, \
             policy {})",
            spec.coll.algo
        ),
        &[
            "o (us)",
            "bcast",
            "us",
            "reduce",
            "us",
            "allgather",
            "us",
            "all-to-all",
            "us",
        ],
    );
    for &v in values {
        let Some(knobs) = axis.knobs_for(&spec.net.machine, v) else {
            continue;
        };
        let net = spec.net.with_knobs(knobs);
        let sel = Selector::new(net, procs, spec.coll);
        let b = sel.broadcast(bytes);
        let r = sel.reduce();
        let g = sel.allgather(bytes);
        let a = sel.alltoall(bytes);
        t.push_row([
            fmt_f(v, 1),
            b.to_string(),
            fmt_f(bcast_us(&net, b, procs, bytes), 1),
            r.to_string(),
            fmt_f(reduce_us(&net, r, procs), 1),
            g.to_string(),
            fmt_f(allgather_us(&net, g, procs, bytes), 1),
            a.to_string(),
            fmt_f(alltoall_us(&net, a, procs, bytes), 1),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// Crash times swept by `--axis chaos`, as fractions of the healthy
/// runtime.
const CHAOS_FRACTIONS: [f64; 4] = [0.125, 0.25, 0.5, 0.75];

/// The `--axis chaos` driver: measure the healthy run, then re-run it
/// with one processor (the middle one) crash-stopping at increasing
/// fractions of that runtime, reporting how the failure detector and the
/// app's degrade policy respond at each point.
fn cmd_sweep_chaos(
    flags: &HashMap<String, String>,
    app: &dyn SweepableApp,
) -> Result<ExitCode, String> {
    let procs = procs_of(flags)?;
    if procs < 2 {
        return Err("--axis chaos needs at least 2 processors".to_string());
    }
    let net = net_of(flags)?;
    if net.node_faults.is_active() {
        return Err("--axis chaos schedules its own crashes; drop --crash/--straggler".to_string());
    }
    let seed: u64 = parse_or(flags, "seed", 1u64)?;
    let fault_seed: u64 = parse_or(flags, "fault-seed", 1u64)?;
    let baseline_spec = guard(RunSpec::new(procs).with_net(net).with_seed(seed));
    let baseline = app.run(&baseline_spec);
    if !baseline.completed {
        println!("sweep N/A — the healthy baseline run did not complete");
        return Ok(ExitCode::SUCCESS);
    }
    let victim = procs / 2;
    let specs: Vec<(f64, RunSpec)> = CHAOS_FRACTIONS
        .iter()
        .map(|&f| {
            let at = SimTime::ZERO
                + SimDelta::from_nanos((f * baseline.runtime.as_nanos() as f64) as u64);
            let plan = NodeFaultPlan::none()
                .with_seed(fault_seed)
                .with_fault(NodeFault::crash(victim, at));
            (
                f,
                guard(
                    RunSpec::new(procs)
                        .with_net(net.with_node_faults(plan))
                        .with_seed(seed),
                ),
            )
        })
        .collect();
    let outs: Vec<RunOutcome> = parallel_map(jobs_of(flags)?, &specs, |_, (_, spec)| app.run(spec));
    let mut t = Table::new(
        format!(
            "{}: crash of p{victim} vs injection time ({procs} procs, healthy runtime {})",
            app.name(),
            fmt_time(baseline.runtime)
        ),
        &[
            "crash at",
            "runtime",
            "outcome",
            "completers",
            "deaths",
            "suspicions",
            "detect max",
        ],
    );
    let mut aborts = Vec::new();
    for ((f, spec), out) in specs.iter().zip(&outs) {
        let outcome = if let Some(note) = out.abort {
            aborts.push(note);
            "aborted"
        } else if out.completed {
            "completed"
        } else {
            "N/A"
        };
        let crash_at = spec
            .net
            .node_faults
            .fault_of(victim)
            .expect("chaos spec afflicts the victim")
            .crash_at;
        t.push_row([
            format!(
                "{} ({:.0}%)",
                fmt_time(crash_at.since(SimTime::ZERO)),
                f * 100.0
            ),
            fmt_time(out.runtime),
            outcome.to_string(),
            format!("{}/{}", out.completers, procs),
            out.stats.total_peer_deaths().to_string(),
            out.stats.total_suspicions().to_string(),
            fmt_time(out.stats.max_detect_latency()),
        ]);
    }
    println!("{t}");
    for note in aborts {
        println!("abort: {note}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a previously written metrics report (run or sweep) without
/// re-running anything.
fn cmd_report(rest: &[String]) -> Result<(), String> {
    let [path] = rest else {
        return Err("report needs exactly one FILE.json argument".to_string());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("report {path}: cannot read: {e}"))?;
    println!("{}", render_report_auto(&text)?);
    Ok(())
}

/// The `predict` driver: one fully traced baseline run, then symbolic
/// re-pricing of its happens-before DAG at every paper grid value — no
/// re-simulation (DESIGN.md §13).
fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = flags.get("app").ok_or("predict needs --app")?;
    let app = find_app(scale_of(flags)?, name)?;
    let axes: Vec<Axis> = match flags.get("axis").map(String::as_str) {
        None => vec![
            Axis::Overhead,
            Axis::Gap,
            Axis::Latency,
            Axis::BulkBandwidth,
        ],
        Some(s) => match Axis::parse(s) {
            Some(axis) if axis != Axis::Coll => vec![axis],
            _ => return Err(format!("--axis: `{s}` (want overhead|gap|latency|bulk)")),
        },
    };
    let spec = guard(
        RunSpec::new(procs_of(flags)?)
            .with_net(net_of(flags)?)
            .with_seed(parse_or(flags, "seed", 1u64)?)
            .with_coll(coll_of(flags)?),
    );
    let p = predict_app(app.as_ref(), &spec, &axes, jobs_of(flags)?)?;
    println!("{}", p.render());
    if let Some(path) = flags.get("out") {
        let mut buf = Vec::new();
        p.write_json(&mut buf)
            .map_err(|e| format!("predict serialization failed: {e}"))?;
        std::fs::write(path, &buf).map_err(|e| format!("--out {path}: cannot write: {e}"))?;
        println!("\npredict: report written to {path} (render with `nowlab report {path}`)");
    }
    if let Some(path) = flags.get("trace") {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("--trace {path}: cannot create: {e}"))?;
        let critical = &p.breakdown.critical_msgs;
        let drawn = write_chrome_trace_highlighted(&p.trace.records, critical, &mut file)
            .map_err(|e| format!("--trace {path}: write failed: {e}"))?;
        println!(
            "\ntrace: {drawn} message lifetimes written to {path} \
             ({} on the critical path tagged `critical`)",
            p.breakdown.critical_msgs.len()
        );
    }
    Ok(())
}

fn cmd_suite(flags: &HashMap<String, String>) -> Result<(), String> {
    let scale = scale_of(flags)?;
    let procs = procs_of(flags)?;
    let mut t = Table::new(
        format!("benchmark suite on {procs} processors"),
        &[
            "program",
            "runtime",
            "msg/proc",
            "interval us",
            "% bulk",
            "% reads",
        ],
    );
    let spec = guard(
        RunSpec::new(procs)
            .with_net(net_of(flags)?)
            .with_coll(coll_of(flags)?),
    );
    let apps = suite_scaled(scale);
    // Whole apps are independent runs; fan them out and print in suite
    // order (results are collected by index, so the table is identical to
    // --jobs 1).
    let outs = parallel_map(jobs_of(flags)?, &apps, |_, app| app.run(&spec));
    for (app, out) in apps.iter().zip(outs) {
        t.push_row([
            app.name().to_string(),
            if out.completed {
                fmt_time(out.runtime)
            } else {
                "N/A".into()
            },
            fmt_f(out.stats.avg_msgs_per_proc(), 0),
            fmt_f(out.stats.msg_interval_us(), 1),
            fmt_f(out.stats.pct_bulk(), 1),
            fmt_f(out.stats.pct_reads(), 1),
        ]);
    }
    println!("{t}");
    Ok(())
}
