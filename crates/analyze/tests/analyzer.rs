//! Integration tests: every lint fires on its fixture (the v2 families
//! twice, pinning two seeded true positives each), the clean fixture stays
//! silent, and the workspace itself passes the analyzer. The fixtures of
//! the lints that moved to the toolchain are built by
//! `scripts/check_moved_lints.sh` and read by `tests/manifests.rs`.

use std::path::{Path, PathBuf};

use nowlab_analyze::explain::LINTS;
use nowlab_analyze::{scan_source, scan_workspace, Scope, Severity};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The fixtures' scope: sim-visible AM-layer code, so every lint family
/// is armed at once and the fixtures prove each trips exactly its own
/// lint.
fn armed() -> Scope {
    Scope {
        sim_visible: true,
        am_layer: true,
    }
}

/// Every fixture a remaining lint fires on.
const FIXTURES: &[&str] = &[
    "det004.rs",
    "amp001.rs",
    "amp002.rs",
    "flt001.rs",
    "flt002.rs",
    "flt003.rs",
    "tim001.rs",
    "tim002.rs",
];

fn codes(name: &str, scope: &Scope) -> Vec<&'static str> {
    scan_source(name, &fixture(name), scope)
        .into_iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn each_fixture_trips_its_lint_exactly_once() {
    let scope = armed();
    assert_eq!(codes("det004.rs", &scope), vec!["DET004"]);
    assert_eq!(codes("amp001.rs", &scope), vec!["AMP001"]);
    assert_eq!(codes("amp002.rs", &scope), vec!["AMP002"]);
}

/// Each v2 family fixture pins two seeded true positives (plus clean
/// counter-examples that must stay silent).
#[test]
fn each_family_fixture_pins_two_true_positives() {
    let scope = armed();
    assert_eq!(codes("flt001.rs", &scope), vec!["FLT001", "FLT001"]);
    assert_eq!(codes("flt002.rs", &scope), vec!["FLT002", "FLT002"]);
    assert_eq!(codes("flt003.rs", &scope), vec!["FLT003", "FLT003"]);
    assert_eq!(codes("tim001.rs", &scope), vec!["TIM001", "TIM001"]);
    assert_eq!(codes("tim002.rs", &scope), vec!["TIM002", "TIM002"]);
}

#[test]
fn det004_and_tim002_are_the_only_warning_severity_lints() {
    for name in FIXTURES {
        for d in scan_source(name, &fixture(name), &armed()) {
            let expect = if d.code == "DET004" || d.code == "TIM002" {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(d.severity(), expect, "{name}: {d}");
        }
    }
}

#[test]
fn clean_fixture_produces_zero_diagnostics() {
    let diags = scan_source("clean.rs", &fixture("clean.rs"), &armed());
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn diagnostics_carry_file_and_line() {
    let diags = scan_source("det004.rs", &fixture("det004.rs"), &armed());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].path, "det004.rs");
    // `duration_since` sits on line 3 of the fixture.
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].to_string().starts_with("det004.rs:3 DET004 "));
}

/// README's two lint tables are the registry's catalogue verbatim,
/// row for row: the lints the analyzer checks, then the codes that moved
/// to the toolchain and where each now lives. The registry and the docs
/// cannot drift apart.
#[test]
fn readme_lint_table_matches_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    for row in nowlab_analyze::explain::catalogue().lines().skip(2) {
        assert!(
            readme.contains(row),
            "README.md lint table is missing or differs on:\n{row}"
        );
    }
}

/// The acceptance gate: the workspace as committed passes its own
/// analyzer. An error-severity finding fails with `path:line CODE
/// message`; a warning is printed and never fails.
#[test]
fn workspace_self_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = scan_workspace(&root).expect("workspace scan");
    let (errors, warnings): (Vec<_>, Vec<_>) =
        diags.iter().partition(|d| d.severity() == Severity::Error);
    for d in warnings {
        println!("warning: {d}");
    }
    // Each failing code's rationale, once, in catalogue order.
    let why: Vec<String> = LINTS
        .iter()
        .filter(|l| errors.iter().any(|d| d.code == l.code))
        .map(|l| format!("{}: {}", l.code, l.rationale))
        .collect();
    let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
    assert!(
        errors.is_empty(),
        "workspace violations:\n{}\n\n{}",
        errors.join("\n"),
        why.join("\n")
    );
}
