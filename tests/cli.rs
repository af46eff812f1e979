//! Smoke tests of the `nowlab` CLI binary.

use std::process::Command;

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
    let json = json.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "not JSON");
    assert!(json.contains("\"traceEvents\""), "missing traceEvents");
    assert!(json.contains("\"ph\":\"X\""), "missing complete slices");
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
    for col in ["% o", "% nic", "% wire", "% rxq"] {
        assert!(text.contains(col), "missing column {col}: {text}");
    }
}

#[test]
fn run_metrics_file_round_trips_through_report() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_metrics.json");
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
    let (ok, rendered) = nowlab(&["report", path_s]);
    assert!(ok, "{rendered}");
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
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
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
            stderr.contains("error: nesting deeper than"),
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

#[test]
fn crash_under_abort_policy_exits_nonzero_with_structured_note() {
    let (ok, text) = nowlab(&[
        "run", "--app", "radix", "--procs", "4", "--scale", "test", "--crash", "p1@1ms",
    ]);
    assert!(
        !ok,
        "a confirmed death under Abort must exit nonzero: {text}"
    );
    assert!(text.contains("run aborted: proc"), "{text}");
    assert!(text.contains("confirmed proc 1 dead"), "{text}");
    assert!(text.contains("detector:"), "{text}");
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

#[test]
fn verify_determinism_holds_under_node_faults() {
    let (ok, text) = nowlab(&[
        "run",
        "--app",
        "em3dwrite",
        "--procs",
        "4",
        "--scale",
        "test",
        "--crash",
        "p1@2ms+500us",
        "--straggler",
        "p2x1.5",
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
    ] {
        let (ok, text) = nowlab(&args);
        assert!(!ok, "{args:?} must fail: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
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
