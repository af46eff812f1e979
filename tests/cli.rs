//! Smoke tests of the `nowlab` CLI binary.

mod schema;

use std::path::Path;
use std::process::Command;

use nowlab::metrics::json::Value;

fn nowlab(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
        .args(args)
        .output()
        .expect("run nowlab binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn list_names_all_ten_programs() {
    let (ok, text) = nowlab(&["list"]);
    assert!(ok);
    for name in [
        "Radix",
        "EM3D(write)",
        "EM3D(read)",
        "Sample",
        "Barnes",
        "P-Ray",
        "Murphi",
        "Connect",
        "NOW-sort",
        "Radb",
    ] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
}

#[test]
fn calibrate_reports_baseline() {
    let (ok, text) = nowlab(&["calibrate"]);
    assert!(ok, "{text}");
    assert!(text.contains("2.90"), "o mean missing: {text}");
    assert!(text.contains("5.80"), "gap missing: {text}");
}

#[test]
fn run_executes_an_app_at_test_scale() {
    let (ok, text) = nowlab(&["run", "--app", "radix", "--procs", "4", "--scale", "test"]);
    assert!(ok, "{text}");
    assert!(text.contains("Radix on 4 processors"), "{text}");
    assert!(text.contains("true"), "must complete: {text}");
}

#[test]
fn sweep_prints_a_linear_fit() {
    let (ok, text) = nowlab(&[
        "sweep", "--app", "nowsort", "--axis", "bulk", "--procs", "4", "--scale", "test",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("slowdown vs bulk bandwidth"), "{text}");
}

#[test]
fn parallel_suite_output_is_identical_to_sequential() {
    let base = &["suite", "--procs", "4", "--scale", "test"];
    let (ok, seq) = nowlab(base);
    assert!(ok, "{seq}");
    for jobs in ["2", "4"] {
        let mut args = base.to_vec();
        args.extend(["--jobs", jobs]);
        let (ok, par) = nowlab(&args);
        assert!(ok, "{par}");
        assert_eq!(par, seq, "--jobs {jobs} changed the suite table");
    }
}

#[test]
fn verify_determinism_works_with_parallel_replicas() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "radix",
        "--procs",
        "4",
        "--scale",
        "test",
        "--verify-determinism",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("determinism: OK"), "{text}");
}

#[test]
fn run_with_tracing_emits_summary_and_chrome_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_trace.json");
    let path_s = path.to_str().unwrap();
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "radix",
        "--procs",
        "4",
        "--scale",
        "test",
        "--trace",
        path_s,
        "--trace-summary",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("trace summary:"), "{text}");
    assert!(text.contains("end-to-end"), "{text}");
    assert!(
        text.contains("100.0%"),
        "attribution must total 100%: {text}"
    );
    let json = std::fs::read_to_string(&path).expect("trace file written");
    let trace = nowlab::metrics::json::parse(&json).expect("the trace file is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("a traceEvents array");
    let slices: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert!(!slices.is_empty(), "no complete (\"X\") slices");
    // Every slice, not a sample: the keys a viewer requires and a
    // positive duration.
    for e in slices {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(e.get(key).is_some(), "slice without `{key}`: {e:?}");
        }
        let dur = e.get("dur").and_then(Value::as_f64);
        assert!(
            dur.is_some_and(|d| d > 0.0),
            "slice without a positive dur: {e:?}"
        );
    }
}

/// True if `key` names a member of some object anywhere in `v`.
fn has_key(v: &Value, key: &str) -> bool {
    match v {
        Value::Obj(members) => members.iter().any(|(k, v)| k == key || has_key(v, key)),
        Value::Arr(items) => items.iter().any(|v| has_key(v, key)),
        _ => false,
    }
}

/// What `nowlab report` renders from the report at `path`, which must
/// hold to `schema` (`schema::METRICS` or `schema::PREDICT`).
fn conforming_render(schema: &str, path: &Path) -> String {
    let json = std::fs::read_to_string(path).expect("report written");
    let errors = schema::violations(schema, &json);
    assert!(errors.is_empty(), "{}: {errors:#?}", path.display());
    let (ok, rendered) = nowlab(&["report", path.to_str().unwrap()]);
    assert!(ok, "{}: {rendered}", path.display());
    rendered
}

/// A metrics report written by `args` (with `--metrics FILE` appended),
/// checked against its schema and rendered back, then parsed; the
/// command's exit status is the caller's to check.
fn metrics_report(name: &str, args: &[&str]) -> (bool, String, Value) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let mut args = args.to_vec();
    args.extend(["--metrics", path.to_str().unwrap()]);
    let (ok, text) = nowlab(&args);
    conforming_render(schema::METRICS, &path);
    let json = std::fs::read_to_string(&path).expect("metrics report written");
    let report = nowlab::metrics::json::parse(&json).expect("the report is JSON");
    (ok, text, report)
}

/// A crash under an Abort-policy app still writes its report, and the
/// failure detector's counters are in it.
#[test]
fn a_crashed_runs_metrics_report_holds_the_detector() {
    let (ok, text, report) = metrics_report(
        "cli_crash_metrics.json",
        &[
            "run", "--app", "radix", "--procs", "4", "--scale", "test", "--crash", "p1@1ms",
        ],
    );
    assert!(!ok, "the crash aborts the run: {text}");
    assert!(has_key(&report, "detector"), "no detector in the report");
}

/// A sweep of the collective algorithms writes the per-collective
/// counters into its report.
#[test]
fn a_coll_sweeps_metrics_report_holds_the_collectives() {
    let (ok, text, report) = metrics_report(
        "cli_coll_metrics.json",
        &[
            "sweep", "--app", "radix", "--procs", "4", "--scale", "test", "--axis", "coll",
            "--jobs", "2",
        ],
    );
    assert!(ok, "{text}");
    assert!(has_key(&report, "coll"), "no coll counters in the report");
}

/// The exporter buffers its output; the same run exported again must still
/// be the same bytes.
#[test]
fn a_traced_run_exports_the_same_bytes_twice() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let files: Vec<Vec<u8>> = ["1", "2"]
        .iter()
        .map(|i| {
            let path = tmp.join(format!("cli_reexport_{i}.json"));
            let (ok, text) = nowlab(&[
                "run",
                "--app",
                "radix",
                "--procs",
                "4",
                "--scale",
                "test",
                "--trace",
                path.to_str().unwrap(),
                "--trace-summary",
            ]);
            assert!(ok, "{text}");
            std::fs::read(&path).expect("trace file written")
        })
        .collect();
    assert!(!files[0].is_empty());
    assert_eq!(files[0], files[1], "the second export differs");
}

/// The exporter writes to the file itself, so a device that takes no byte
/// fails the command — with the CLI's error line, not a panic, and never
/// a "written" over a file that lost its tail in a buffer's drop.
#[cfg(target_os = "linux")]
#[test]
fn a_trace_that_cannot_be_written_is_an_error_not_a_silent_loss() {
    for cmd in ["run", "predict"] {
        let (ok, text) = nowlab(&[
            cmd,
            "--app",
            "radix",
            "--procs",
            "2",
            "--scale",
            "test",
            "--trace",
            "/dev/full",
        ]);
        assert!(!ok, "{cmd}: {text}");
        assert!(text.contains("error: --trace /dev/full"), "{cmd}: {text}");
        assert!(!text.contains("panicked"), "{cmd}: {text}");
        assert!(!text.contains("written to /dev/full"), "{cmd}: {text}");
    }
}

#[test]
fn sweep_with_trace_summary_adds_attribution_columns() {
    let (ok, text) = nowlab(&[
        "sweep",
        "--app",
        "radix",
        "--axis",
        "overhead",
        "--procs",
        "4",
        "--scale",
        "test",
        "--trace-summary",
    ]);
    assert!(ok, "{text}");
    for col in ["% overhead", "% nic", "% wire", "% rx_queue"] {
        assert!(text.contains(col), "missing column {col}: {text}");
    }
}

#[test]
fn run_metrics_file_round_trips_through_report() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_metrics.json");
    let path_s = path.to_str().unwrap();
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "radix",
        "--procs",
        "4",
        "--scale",
        "test",
        "--metrics",
        path_s,
        "--metrics-summary",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("state shares"), "{text}");
    assert!(text.contains("phase table:"), "{text}");
    for phase in ["histogram", "global-hist", "distribute"] {
        assert!(text.contains(phase), "missing phase {phase}: {text}");
    }
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(
        json.contains("\"schema\":\"nowlab-metrics-report\""),
        "{json}"
    );
    assert!(json.contains("\"kind\":\"run\""), "{json}");

    // `nowlab report` must render the file without re-running anything,
    // and show exactly what the run printed inline.
    let rendered = conforming_render(schema::METRICS, &path);
    assert!(
        text.contains(rendered.trim_end()),
        "report output must match the inline summary:\n--- inline\n{text}\n--- report\n{rendered}"
    );
}

#[test]
fn run_metrics_summary_alone_writes_no_file() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "em3dwrite",
        "--procs",
        "4",
        "--scale",
        "test",
        "--metrics-summary",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("phase table:"), "{text}");
    for phase in ["e-step", "h-step"] {
        assert!(text.contains(phase), "missing phase {phase}: {text}");
    }
    assert!(!text.contains("report written"), "{text}");
}

#[test]
fn metrics_report_is_byte_identical_across_job_counts() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut files = Vec::new();
    for jobs in ["1", "2", "4"] {
        let path = tmp.join(format!("cli_sweep_metrics_{jobs}.json"));
        let path_s = path.to_str().unwrap().to_string();
        let (ok, text) = nowlab(&[
            "sweep",
            "--app",
            "radix",
            "--axis",
            "overhead",
            "--procs",
            "4",
            "--scale",
            "test",
            "--metrics",
            &path_s,
            "--jobs",
            jobs,
        ]);
        assert!(ok, "{text}");
        if jobs == "1" {
            conforming_render(schema::METRICS, &path);
        }
        files.push(std::fs::read(&path).expect("sweep metrics written"));
    }
    assert_eq!(files[0], files[1], "--jobs 2 changed the metrics report");
    assert_eq!(files[0], files[2], "--jobs 4 changed the metrics report");
}

#[test]
fn verify_determinism_covers_metrics_timelines() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "radix",
        "--procs",
        "4",
        "--scale",
        "test",
        "--metrics-summary",
        "--verify-determinism",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("determinism: OK"), "{text}");
}

#[test]
fn sweep_with_metrics_summary_adds_per_phase_columns() {
    let (ok, text) = nowlab(&[
        "sweep",
        "--app",
        "radix",
        "--axis",
        "overhead",
        "--procs",
        "4",
        "--scale",
        "test",
        "--metrics-summary",
    ]);
    assert!(ok, "{text}");
    for col in [
        "cmp%",
        "cmp%:histogram",
        "cmp%:global-hist",
        "cmp%:distribute",
    ] {
        assert!(text.contains(col), "missing column {col}: {text}");
    }
}

#[test]
fn report_rejects_bad_input() {
    let (ok, text) = nowlab(&["report"]);
    assert!(!ok);
    assert!(text.contains("exactly one FILE.json"), "{text}");

    let (ok, text) = nowlab(&["report", "/nonexistent/metrics.json"]);
    assert!(!ok);
    assert!(text.contains("cannot read"), "{text}");

    let bad = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_not_metrics.json");
    std::fs::write(&bad, "{\"schema\":\"something-else\",\"version\":1}").unwrap();
    let (ok, text) = nowlab(&["report", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("schema"), "{text}");
}

/// A report whose state totals overflow 64 bits, which no run can write
/// (states conserve to `end_ns × procs`), is refused with the CLI's
/// error line and exit 1: not an arithmetic-overflow panic, and not
/// shares that sum past 100 %.
#[test]
fn report_refuses_totals_that_overflow() {
    let max = i64::MAX;
    let totals = format!("[{max},{max},{max},0,0,0,0]");
    let doc = format!(
        r#"{{"schema":"nowlab-metrics-report","version":3,"kind":"run","app":"Hostile","procs":1,"seed":1,"window_ns":1000,"end_ns":1000,"proc":[{{"timeline":[[1000,0,0,0,0,0,0]],"nic_tx_total":0,"nic_rx_total":0}}],"wire":[],"events_per_window":[],"summary":{{"totals":{totals},"phases":[],"am":{{"retransmits":0,"win_depth_max":0,"win_depth_mean":0.0}}}}}}"#
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_hostile.json");
    std::fs::write(&path, doc).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
        .args(["report", path.to_str().unwrap()])
        .output()
        .expect("run nowlab binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: totals overflow"), "{stderr}");
}

/// `golden/report_renders.txt` is what `nowlab report` printed for every
/// JSON golden of this directory, one `== FILE` section each, written by
/// the binary of `8f1149b`, the last commit whose parser built its tree
/// from growable vectors. Every file must still parse and render to the
/// same bytes, whichever form its arrays are read into.
#[test]
fn every_json_golden_renders_as_the_parent_rendered_it() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 7, "{files:?}");
    let mut got = String::new();
    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(nowlab::metrics::json::parse(&text).is_ok(), "{name}");
        let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
            .args(["report", path.to_str().unwrap()])
            .output()
            .expect("run nowlab binary");
        assert!(out.status.success(), "{name}");
        got.push_str(&format!("== {name}\n"));
        got.push_str(std::str::from_utf8(&out.stdout).expect("UTF-8 output"));
    }
    assert!(
        got == include_str!("golden/report_renders.txt"),
        "a rendered report differs from the golden"
    );
}

/// A file nested far deeper than any report is refused with the CLI's
/// error line and exit 1, not a stack overflow's abort.
#[test]
fn report_refuses_deep_nesting_instead_of_overflowing_the_stack() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let docs = [
        (
            "arrays",
            format!("{}{}", "[".repeat(60_000), "]".repeat(60_000)),
        ),
        (
            "arrays_100k",
            format!("{}{}\n", "[".repeat(100_000), "]".repeat(100_000)),
        ),
        (
            "objects",
            format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000)),
        ),
    ];
    for (name, doc) in docs {
        let path = tmp.join(format!("cli_deep_{name}.json"));
        std::fs::write(&path, doc).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
            .args(["report", path.to_str().unwrap()])
            .output()
            .expect("run nowlab binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error: nesting deeper than")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn incomplete_sweep_reports_na_instead_of_panicking() {
    // Total loss: every message dropped, so no baseline can complete.
    let (ok, text) = nowlab(&[
        "sweep",
        "--app",
        "radix",
        "--axis",
        "overhead",
        "--procs",
        "4",
        "--scale",
        "test",
        "--drop-rate",
        "1.0",
    ]);
    assert!(ok, "an N/A sweep is a result, not a failure: {text}");
    assert!(text.contains("sweep N/A"), "{text}");
    assert!(text.contains("did not complete"), "{text}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, text) = nowlab(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("usage:"), "{text}");

    let (ok, text) = nowlab(&["run"]);
    assert!(!ok);
    assert!(text.contains("needs --app"), "{text}");

    let (ok, text) = nowlab(&["run", "--app", "nonexistent", "--scale", "test"]);
    assert!(!ok);
    assert!(text.contains("unknown app"), "{text}");

    // Knobs cannot go below the baseline.
    let (ok, text) = nowlab(&["run", "--app", "radix", "--scale", "test", "--o", "1.0"]);
    assert!(!ok);
    assert!(text.contains("below the Berkeley NOW baseline"), "{text}");

    let (ok, text) = nowlab(&["run", "--app", "radix", "--scale", "test", "--jobs", "0"]);
    assert!(!ok);
    assert!(text.contains("--jobs"), "{text}");

    // Knob and duration values are checked where they enter. Each of these
    // used to run with a wrong result shown, or panic.
    let run = ["run", "--app", "radix", "--procs", "4", "--scale", "test"];
    let calibrate = ["calibrate"];
    for (cmd, flag, value, needle) in [
        (&run[..], "--o", "nan", "--o nan: want a finite value"),
        (&run, "--o", "inf", "--o inf: want a finite value"),
        (&run, "--mbps", "0", "--mbps 0: want a finite value above 0"),
        (
            &run,
            "--l",
            "1e30",
            "--l 1e30: adds more than the 120.000s ceiling",
        ),
        (
            &run,
            "--mbps",
            "1e-300",
            "--mbps 1e-300: adds more than the 120.000s ceiling",
        ),
        (
            &calibrate,
            "--o",
            "1e30",
            "--o 1e30: adds more than the 120.000s ceiling",
        ),
        (
            &run,
            "--crash",
            "p1@1e30us",
            "--crash `p1@1e30us`: `1e30us`: above the 120.000s ceiling",
        ),
        (
            &run,
            "--crash",
            "p1@1ms+121s",
            "--crash `p1@1ms+121s`: `121s`: above the 120.000s ceiling",
        ),
    ] {
        let args = [cmd, &[flag, value]].concat();
        let (ok, text) = nowlab(&args);
        assert!(!ok, "{args:?} must fail: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
}

/// A reader that closed the pipe before the command wrote anything: the
/// command ends quietly with exit 0, not with a panic's backtrace.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/observe_radix.metrics.json");
    for args in [vec!["list"], vec!["report", golden.to_str().unwrap()]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
            .args(&args)
            .stdout(writer)
            .output()
            .expect("run nowlab binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// A flag the command does not read is refused before anything runs: it
/// used to be ignored, so `suite --metrics` wrote no file.
#[test]
fn a_flag_the_command_does_not_read_is_refused() {
    let path = std::env::temp_dir().join(format!("nowlab_unread_{}.json", std::process::id()));
    let file = path.to_str().unwrap();
    for (args, line) in [
        (
            &[
                "suite",
                "--procs",
                "2",
                "--scale",
                "test",
                "--metrics",
                file,
            ][..],
            "error: `nowlab suite` does not read --metrics",
        ),
        (
            &["list", "--scale", "test"],
            "error: `nowlab list` does not read --scale",
        ),
        (
            &[
                "sweep",
                "--app",
                "radix",
                "--axis",
                "chaos",
                "--procs",
                "2",
                "--scale",
                "test",
                "--trace-summary",
                "--coll-algo",
                "chain",
            ],
            "error: `nowlab sweep --axis chaos` does not read --coll-algo, --trace-summary",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
            .args(args)
            .output()
            .expect("run nowlab binary");
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
        assert!(text.contains(line), "{args:?}: {text}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
    assert!(!path.exists(), "a refused suite wrote {file}");
}

/// `sweep --seed` reaches the runs on every axis, not only on `chaos`.
#[test]
fn sweep_runs_the_seed_it_is_given() {
    let sweep = |seed: &[&str]| {
        let args = [
            &[
                "sweep", "--app", "radix", "--axis", "overhead", "--procs", "4",
            ][..],
            &["--scale", "test"],
            seed,
        ]
        .concat();
        let (ok, text) = nowlab(&args);
        assert!(ok, "{text}");
        text
    };
    assert_eq!(sweep(&[]), sweep(&["--seed", "1"]), "the default seed is 1");
    assert_ne!(sweep(&[]), sweep(&["--seed", "7"]), "--seed 7 ran seed 1");
}

/// `sweep --axis coll` (or `collectives`) is the overhead sweep followed
/// by the collective selector's decision table; `predict` has no such axis.
#[test]
fn the_coll_axis_is_the_overhead_sweep_plus_the_decision_table() {
    let sweep = |axis: &str| {
        let (ok, text) = nowlab(&[
            "sweep", "--app", "radix", "--axis", axis, "--procs", "4", "--scale", "test",
        ]);
        assert!(ok, "{text}");
        text
    };
    let overhead = sweep("overhead");
    let (rows, fit) = overhead.split_once("linear fit:").expect("a fit line");
    for axis in ["coll", "collectives"] {
        let text = sweep(axis);
        let (same_rows, rest) = text
            .split_once("== model-selected variants vs overhead (4 procs")
            .expect("the decision table");
        assert_eq!(same_rows, rows, "--axis {axis}");
        assert!(
            rest.ends_with(&format!("linear fit:{fit}")),
            "--axis {axis}: {rest}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
        .args([
            "predict", "--app", "radix", "--procs", "4", "--scale", "test", "--axis", "coll",
        ])
        .output()
        .expect("run nowlab binary");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("error: --axis: `coll` (want overhead|gap|latency|bulk)"),
        "{text}"
    );
}

/// A flag value the library would assert on is refused where it is
/// parsed: exit 1 with the CLI's error line, not exit 101 with a backtrace.
#[test]
fn zero_processors_or_a_zero_window_is_refused_not_a_panic() {
    let refused = |args: &[&str], line: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
            .args(args)
            .output()
            .expect("run nowlab binary");
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
        assert!(text.contains(line), "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    };
    let radix = ["--app", "radix", "--scale", "test"];
    for cmd in [
        &["run"][..],
        &["sweep", "--axis", "overhead"],
        &["suite"],
        &["predict"],
    ] {
        for procs in ["0", "65535"] {
            let args = [cmd, &radix, &["--procs", procs]].concat();
            refused(&args, "error: --procs: want 1..=65534");
        }
    }
    let run = [&["run"], &radix[..], &["--window", "0"]].concat();
    refused(&run, "error: --window: want at least 1");
    refused(
        &["calibrate", "--window", "0"],
        "error: --window: want at least 1",
    );
}

#[test]
fn a_huge_window_runs_or_is_refused_never_aborts() {
    // `--window` bounds the requests in flight; it is not a memory
    // budget. A cluster once reserved message-arena room for `procs ×
    // window` messages up front and aborted on the allocation.
    for window in ["100000000", "4000000000"] {
        for args in [
            &[
                "run", "--app", "radix", "--scale", "test", "--window", window,
            ][..],
            &["calibrate", "--window", window],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_nowlab"))
                .args(args)
                .output()
                .expect("run nowlab binary");
            let text = String::from_utf8_lossy(&out.stderr);
            match out.status.code() {
                Some(0) => {}
                Some(1) => assert!(text.contains("error:"), "{args:?}: {text}"),
                code => panic!("{args:?} exited {code:?}: {text}"),
            }
        }
    }
}

/// One processor sends nothing, so there is nothing to predict — which is
/// not the same as having traced in the wrong mode.
#[test]
fn predicting_a_run_that_sent_no_messages_says_so() {
    let (ok, text) = nowlab(&[
        "predict", "--app", "radix", "--procs", "1", "--scale", "test",
    ]);
    assert!(!ok, "{text}");
    assert!(text.contains("the traced run sent no messages"), "{text}");
    assert!(!text.contains("full mode"), "{text}");
}

/// One traced baseline re-priced symbolically: the report states its
/// tolerance threshold, the exported Chrome trace tags the critical path,
/// and the report is the same bytes at one, two and three workers (three
/// leaves a partial lane group).
#[test]
fn predict_is_byte_identical_across_job_counts_and_tags_the_critical_path() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = tmp.join("cli_predict_trace.json");
    let mut reports = Vec::new();
    for jobs in ["2", "1", "3"] {
        let out = tmp.join(format!("cli_predict_{jobs}.json"));
        let mut args = vec![
            "predict",
            "--app",
            "em3dwrite",
            "--procs",
            "4",
            "--scale",
            "test",
            "--jobs",
            jobs,
            "--out",
            out.to_str().unwrap(),
        ];
        if jobs == "2" {
            args.extend(["--trace", trace.to_str().unwrap()]);
        }
        let (ok, text) = nowlab(&args);
        assert!(ok, "{text}");
        if jobs == "2" {
            assert!(text.contains("tolerance threshold"), "{text}");
            conforming_render(schema::PREDICT, &out);
        }
        reports.push(std::fs::read(&out).expect("predict report written"));
    }
    let chrome = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(
        chrome.contains(r#""cat":"flow,critical""#),
        "no critical-path flow in the exported trace"
    );
    assert_eq!(
        reports[0], reports[1],
        "--jobs 1 changed the predict report"
    );
    assert_eq!(
        reports[2], reports[1],
        "--jobs 3 changed the predict report"
    );
}

/// The 16-processor, benchmark-scale path the 4-processor runs never
/// reach (some 3.5 M nodes). `predict` refuses a critical path that is not
/// the measured runtime, so its exit status is that exactness check.
#[test]
fn predict_at_benchmark_scale_on_16_processors_writes_a_conforming_report() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_predict_p16.json");
    let (ok, text) = nowlab(&[
        "predict",
        "--app",
        "radix",
        "--procs",
        "16",
        "--scale",
        "benchmark",
        "--jobs",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    conforming_render(schema::PREDICT, &out);
}

#[test]
fn crash_under_abort_policy_exits_nonzero_with_structured_note() {
    let (ok, text) = nowlab(&[
        "run", "--app", "radix", "--procs", "4", "--scale", "test", "--crash", "p1@1ms",
    ]);
    assert!(
        !ok,
        "a confirmed death under Abort must exit nonzero: {text}"
    );
    assert!(
        text.lines().any(|l| l
            .split_once("run aborted: proc ")
            .is_some_and(|(_, rest)| rest.contains(" confirmed proc 1 dead"))),
        "{text}"
    );
    assert!(
        text.lines().any(|l| l
            .strip_prefix("detector: ")
            .is_some_and(|rest| rest.contains(" heartbeats"))),
        "{text}"
    );
    // The abort is a result, not a CLI misuse — no usage dump.
    assert!(!text.contains("usage:"), "{text}");
}

#[test]
fn crash_recovery_under_continue_completes_and_exits_zero() {
    // Sample declares DegradePolicy::Continue: a crash-stop member is
    // detected, the survivors finish, and the exit code stays zero.
    let (ok, text) = nowlab(&[
        "run", "--app", "sample", "--procs", "4", "--scale", "test", "--crash", "p1@1ms",
    ]);
    assert!(ok, "{text}");
    assert!(
        text.contains("3 deaths"),
        "every survivor confirms p1: {text}"
    );
    assert!(!text.contains("run aborted"), "{text}");
}

/// A crash-recovery outage shorter than the detector's confirmation
/// window, beside a straggler: every survivor suspects p1 and then hears
/// from it again, so no death is confirmed and the run completes.
#[test]
fn a_short_outage_beside_a_straggler_is_suspected_never_confirmed() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "sample",
        "--procs",
        "4",
        "--scale",
        "test",
        "--crash",
        "p1@1ms+500us",
        "--straggler",
        "p2x1.5",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("3 suspicions (3 false), 0 deaths"), "{text}");
}

#[test]
fn verify_determinism_holds_under_node_faults() {
    let crash = [
        "run",
        "--app",
        "em3dwrite",
        "--procs",
        "4",
        "--scale",
        "test",
        "--crash",
        "p1@2ms+500us",
        "--verify-determinism",
    ];
    let with_straggler = [&crash[..], &["--straggler", "p2x1.5"]].concat();
    for args in [&crash[..], &with_straggler] {
        let (ok, text) = nowlab(args);
        assert!(ok, "{args:?}: {text}");
        assert!(text.contains("determinism: OK"), "{args:?}: {text}");
    }
}

#[test]
fn verify_determinism_holds_under_the_chain_collective() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "radix",
        "--procs",
        "4",
        "--scale",
        "test",
        "--coll-algo",
        "chain",
        "--verify-determinism",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("determinism: OK"), "{text}");
}

#[test]
fn chaos_sweep_reports_detection_behavior() {
    let (ok, text) = nowlab(&[
        "sweep", "--app", "radix", "--axis", "chaos", "--procs", "4", "--scale", "test", "--jobs",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("crash of p2 vs injection time"), "{text}");
    assert!(text.contains("aborted"), "{text}");
    assert!(text.contains("abort: proc"), "{text}");
}

#[test]
fn bad_node_fault_specs_fail_with_usage() {
    for (args, needle) in [
        (
            vec![
                "run", "--app", "radix", "--scale", "test", "--crash", "1@1ms",
            ],
            "want p<N>@",
        ),
        (
            vec!["run", "--app", "radix", "--scale", "test", "--crash", "p1"],
            "missing `@",
        ),
        (
            vec![
                "run", "--app", "radix", "--scale", "test", "--crash", "p1@2",
            ],
            "want a duration",
        ),
        (
            vec![
                "run",
                "--app",
                "radix",
                "--scale",
                "test",
                "--straggler",
                "p1x0.5",
            ],
            "factor must be >= 1",
        ),
        (
            vec![
                "run",
                "--app",
                "radix",
                "--scale",
                "test",
                "--crash",
                "p1@1ms",
                "--straggler",
                "p1x2.0",
            ],
            "afflicted twice",
        ),
        (
            vec![
                "run",
                "--app",
                "radix",
                "--scale",
                "test",
                "--fault-seed",
                "3",
            ],
            "has no effect",
        ),
        // A fault on a processor the run does not have used to switch the
        // detector on and apply nothing else.
        (
            vec![
                "run", "--app", "radix", "--procs", "4", "--scale", "test", "--crash", "p9@1ms",
            ],
            "p9: the run has 4 processors (p0..p3)",
        ),
        (
            vec![
                "run",
                "--app",
                "radix",
                "--procs",
                "4",
                "--scale",
                "test",
                "--straggler",
                "p9x2",
            ],
            "p9: the run has 4 processors (p0..p3)",
        ),
        (
            vec![
                "sweep", "--app", "radix", "--axis", "overhead", "--procs", "4", "--scale", "test",
                "--crash", "p4@1ms",
            ],
            "p4: the run has 4 processors (p0..p3)",
        ),
        (
            vec![
                "suite",
                "--procs",
                "4",
                "--scale",
                "test",
                "--straggler",
                "p4x2",
            ],
            "p4: the run has 4 processors (p0..p3)",
        ),
        // Calibration measures a healthy pair; it used to print a
        // negative latency for a straggler and a zero o_recv for a crash.
        (
            vec!["calibrate", "--straggler", "p0x3"],
            "calibrate measures a healthy pair; drop --straggler",
        ),
        (
            vec!["calibrate", "--crash", "p1@10us"],
            "calibrate measures a healthy pair; drop --crash",
        ),
    ] {
        let (ok, text) = nowlab(&args);
        assert!(!ok, "{args:?} must fail: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
}

fn exhibit_golden(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/exhibits/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn exhibit_prints_the_golden_and_rejects_bad_requests() {
    let (ok, text) = nowlab(&["exhibit", "table1_baseline"]);
    assert!(ok, "{text}");
    assert_eq!(text, exhibit_golden("table1_baseline"));

    for bad in [
        &["exhibit", "nope"][..],
        &["exhibit", "fig5_overhead", "--scale", "huge"],
        &["exhibit"],
    ] {
        let (ok, text) = nowlab(bad);
        assert!(!ok, "{bad:?} must exit nonzero: {text}");
        assert!(text.contains("error:"), "{bad:?}: {text}");
        assert!(!text.contains("panicked"), "{bad:?}: {text}");
    }
}

#[test]
fn exhibit_csv_saves_the_printed_table() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_exhibit_csv");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, text) = nowlab(&[
        "exhibit",
        "fig6_gap",
        "--scale",
        "test",
        "--csv",
        dir.to_str().expect("utf-8 tmp path"),
    ]);
    assert!(ok, "{text}");
    let csv = std::fs::read_to_string(dir.join("fig6_gap.csv")).expect("fig6_gap.csv written");
    // The CSV's header row is the printed table's.
    let printed: Vec<&str> = text
        .lines()
        .nth(1)
        .expect("header line")
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect();
    assert_eq!(csv.lines().next(), Some(printed.join(",").as_str()));
    assert_eq!(csv.lines().count(), 11, "header + ten apps");
    // Apart from the save notice, stdout is the exhibit's golden.
    let notice = format!("(csv saved to {})\n", dir.join("fig6_gap.csv").display());
    assert_eq!(text.replacen(&notice, "", 1), exhibit_golden("fig6_gap"));

    // An unwritable --csv directory is an error, not a panic.
    let file = dir.join("fig6_gap.csv");
    let (ok, text) = nowlab(&[
        "exhibit",
        "table1_baseline",
        "--csv",
        file.to_str().expect("utf-8 tmp path"),
    ]);
    assert!(!ok, "{text}");
    assert!(
        text.contains("error: --csv") && !text.contains("panicked"),
        "{text}"
    );
}
