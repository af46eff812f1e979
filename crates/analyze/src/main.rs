//! CLI entry point for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p nowlab-analyze                     # report all findings
//! cargo run -p nowlab-analyze -- --check          # CI: exit 1 on any error
//! cargo run -p nowlab-analyze -- --format sarif   # SARIF 2.1.0 on stdout
//! cargo run -p nowlab-analyze -- --output F.sarif # write report to a file
//! cargo run -p nowlab-analyze -- --explain FLT001 # what a code means
//! cargo run -p nowlab-analyze -- --explain all    # the whole lint table
//! cargo run -p nowlab-analyze -- --root DIR       # scan another tree
//! cargo run -p nowlab-analyze -- --allowlist F    # alternate allowlist
//! ```
//!
//! Exit-code contract (the CI step depends on it): `0` when no
//! error-severity diagnostics survive the allowlist, `1` when at least one
//! does (under `--check`), `2` on usage or I/O errors. Warnings never affect
//! the exit code. Stale allowlist entries are notes by default but become
//! hard errors under `--check`, so the allowlist can only shrink over time.
//!
//! The human-readable summary and stale-entry notes always go to stderr when
//! `--format sarif` writes to stdout, so piping the SARIF stream stays clean.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nowlab_analyze::allowlist::Allowlist;
use nowlab_analyze::{explain, sarif, scan_workspace, Severity};

const USAGE: &str = "usage: nowlab-analyze [--check] [--root DIR] [--allowlist FILE] \
[--format text|sarif] [--output FILE] [--explain CODE|all]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Sarif,
}

fn main() -> ExitCode {
    let mut check = false;
    let mut root: Option<PathBuf> = None;
    let mut allowlist_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut output: Option<PathBuf> = None;
    let mut explain_code: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist_path = Some(PathBuf::from(v)),
                None => return usage_error("--allowlist needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage_error(&format!(
                        "unknown format `{other}` (expected `text` or `sarif`)"
                    ))
                }
                None => return usage_error("--format needs a value"),
            },
            "--output" => match args.next() {
                Some(v) => output = Some(PathBuf::from(v)),
                None => return usage_error("--output needs a value"),
            },
            "--explain" => match args.next() {
                Some(v) => explain_code = Some(v),
                None => return usage_error("--explain needs a lint code or `all`"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    // `--explain` is a pure lookup: no scan, no allowlist.
    if let Some(code) = explain_code {
        return match explain::render_explain(&code) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown lint code `{code}` (try `--explain all`)");
                ExitCode::from(2)
            }
        };
    }

    // Default root: the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("analyze.toml"));
    let allowlist = if allowlist_path.is_file() {
        match std::fs::read_to_string(&allowlist_path) {
            Ok(text) => match Allowlist::parse(&text) {
                Ok(list) => list,
                Err(e) => {
                    eprintln!("error: {}: {e}", allowlist_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("error: reading {}: {e}", allowlist_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Allowlist::default()
    };

    #[expect(
        clippy::disallowed_types,
        reason = "host-side tool outside the simulation: times its own scan for the summary line"
    )]
    let started = std::time::Instant::now();
    let (diags, files) = match scan_workspace(&root) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    let filtered = allowlist.apply(diags);

    match format {
        Format::Text => {
            let mut body = String::new();
            for d in &filtered.kept {
                body.push_str(&d.to_string());
                body.push('\n');
            }
            if let Err(code) = emit(output.as_deref(), &body) {
                return code;
            }
        }
        Format::Sarif => {
            if let Err(code) = emit(output.as_deref(), &sarif::render(&filtered.kept)) {
                return code;
            }
        }
    }

    // Summary and stale-entry notes go to stderr unless we're printing plain
    // text to stdout anyway — SARIF output must stay machine-parseable.
    let chatty_stdout = format == Format::Text && output.is_none();
    let note = |line: String| {
        if chatty_stdout {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    for e in &filtered.stale {
        if check {
            note(format!(
                "error: stale allowlist entry ({} in {}) matched nothing — remove it",
                e.code, e.path
            ));
        } else {
            note(format!(
                "note: stale allowlist entry ({} in {}) matched nothing — remove it",
                e.code, e.path
            ));
        }
    }
    let errors = filtered
        .kept
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = filtered.kept.len() - errors;
    note(format!(
        "nowlab-analyze: {errors} error(s), {warnings} warning(s), {} allowlisted, \
{files} file(s) in {elapsed:.0?}",
        filtered.suppressed.len(),
    ));

    if check && (errors > 0 || !filtered.stale.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn emit(output: Option<&Path>, body: &str) -> Result<(), ExitCode> {
    match output {
        None => {
            print!("{body}");
            Ok(())
        }
        Some(path) => std::fs::write(path, body).map_err(|e| {
            eprintln!("error: writing {}: {e}", path.display());
            ExitCode::from(2)
        }),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}
