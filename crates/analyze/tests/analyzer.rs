//! Integration tests: every lint fires on its fixture (the v2 families
//! twice, pinning two seeded true positives each), the clean fixture stays
//! silent, the `ws_layering` mini-workspace surfaces its manifest- and
//! source-level violations end to end, and the workspace itself passes the
//! analyzer with the checked-in allowlist.

use std::path::{Path, PathBuf};

use nowlab_analyze::allowlist::Allowlist;
use nowlab_analyze::graph::Layer;
use nowlab_analyze::{sarif, scan_source, scan_workspace, Diagnostic, Scope, Severity};
use nowlab_metrics::json::{self, Value};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Scope used by most fixtures: sim-visible AM-layer code that is also a
/// crate root, so every lint family is armed at once and the fixtures
/// prove each trips exactly its own lint. `Layer::Other` keeps the `LAY`
/// family quiet; the layering fixtures opt in via [`layered`].
fn armed() -> Scope {
    Scope {
        sim_visible: true,
        am_layer: true,
        entropy_exempt: false,
        crate_root: true,
        parallel_ok: false,
        layer: Layer::Other,
    }
}

/// A sim-visible scope for a specific architectural layer (the `LAY`
/// fixtures).
fn layered(layer: Layer) -> Scope {
    Scope {
        sim_visible: true,
        layer,
        ..Scope::default()
    }
}

fn codes(name: &str, scope: &Scope) -> Vec<&'static str> {
    scan_source(name, &fixture(name), scope)
        .into_iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn each_fixture_trips_its_lint_exactly_once() {
    // SAFE001 would fire on every root fixture lacking the attribute, so
    // the per-lint fixtures use a non-root scope...
    let mut scope = armed();
    scope.crate_root = false;
    assert_eq!(codes("det001.rs", &scope), vec!["DET001"]);
    assert_eq!(codes("det002.rs", &scope), vec!["DET002"]);
    assert_eq!(codes("det003.rs", &scope), vec!["DET003"]);
    assert_eq!(codes("det004.rs", &scope), vec!["DET004"]);
    assert_eq!(codes("amp001.rs", &scope), vec!["AMP001"]);
    assert_eq!(codes("amp002.rs", &scope), vec!["AMP002"]);
    assert_eq!(codes("amp003.rs", &scope), vec!["AMP003"]);
    assert_eq!(codes("par001.rs", &scope), vec!["PAR001"]);
    // ...and the SAFE001 fixture alone runs as a crate root.
    assert_eq!(codes("safe001.rs", &armed()), vec!["SAFE001"]);
}

/// Each v2 family fixture pins two seeded true positives (plus clean
/// counter-examples that must stay silent).
#[test]
fn each_family_fixture_pins_two_true_positives() {
    let mut scope = armed();
    scope.crate_root = false;
    assert_eq!(
        codes("lay001.rs", &layered(Layer::Metrics)),
        vec!["LAY001", "LAY001"]
    );
    // lay003 pins three: sim, am, and the coll-bypass import (apps must
    // take the collectives vocabulary through the splitc re-exports).
    assert_eq!(
        codes("lay003.rs", &layered(Layer::Apps)),
        vec!["LAY003", "LAY003", "LAY003"]
    );
    assert_eq!(codes("flt001.rs", &scope), vec!["FLT001", "FLT001"]);
    assert_eq!(codes("flt002.rs", &scope), vec!["FLT002", "FLT002"]);
    assert_eq!(codes("flt003.rs", &scope), vec!["FLT003", "FLT003"]);
    assert_eq!(codes("tim001.rs", &scope), vec!["TIM001", "TIM001"]);
    assert_eq!(codes("tim002.rs", &scope), vec!["TIM002", "TIM002"]);
}

#[test]
fn det004_and_tim002_are_the_only_warning_severity_lints() {
    let mut scope = armed();
    scope.crate_root = false;
    for name in [
        "det001.rs",
        "det002.rs",
        "det003.rs",
        "det004.rs",
        "amp001.rs",
        "amp002.rs",
        "amp003.rs",
        "par001.rs",
        "flt001.rs",
        "flt002.rs",
        "flt003.rs",
        "tim001.rs",
        "tim002.rs",
    ] {
        for d in scan_source(name, &fixture(name), &scope) {
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
    let mut scope = armed();
    scope.crate_root = false;
    let diags = scan_source("det002.rs", &fixture("det002.rs"), &scope);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].path, "det002.rs");
    // `Instant` sits on line 3 of the fixture (after the //! line).
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].to_string().contains("det002.rs:3"));
}

/// End to end over the `ws_layering` mini-workspace: manifest-level
/// violations (MET001 for the observer, LAY002 for apps, the predictor
/// and the `am → metrics` edge) and the source-level LAY003, all from one
/// `scan_workspace` call.
#[test]
fn ws_layering_fixture_surfaces_manifest_and_source_violations() {
    let (diags, _) = scan_workspace(&fixture_path("ws_layering")).expect("fixture scan");
    let got: Vec<(String, &str)> = diags.iter().map(|d| (d.path.clone(), d.code)).collect();
    assert_eq!(
        got,
        vec![
            ("crates/am/Cargo.toml".to_string(), "LAY002"),
            ("crates/apps/Cargo.toml".to_string(), "LAY002"),
            ("crates/apps/src/lib.rs".to_string(), "LAY003"),
            ("crates/metrics/Cargo.toml".to_string(), "MET001"),
            ("crates/metrics/Cargo.toml".to_string(), "MET001"),
            ("crates/predict/Cargo.toml".to_string(), "LAY002"),
        ],
        "unexpected diagnostics: {diags:?}"
    );
    // The dev-dependency stayed exempt and the violations name their deps.
    let messages: String = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.contains("serde"));
    assert!(!messages.contains("serde_json"));
    // The predictor's one live violation is the splitc edge; its trace
    // and am edges are sanctioned, and its dev-dep stays exempt.
    let predict: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.path == "crates/predict/Cargo.toml")
        .collect();
    assert_eq!(predict.len(), 1);
    assert!(predict[0].message.contains("nowlab-splitc"));
    assert!(predict[0].message.contains("layer predict"));
}

/// The SARIF stream carries every diagnostic with its rule and location.
#[test]
fn sarif_render_covers_every_diagnostic() {
    let (diags, _) = scan_workspace(&fixture_path("ws_layering")).expect("fixture scan");
    assert!(!diags.is_empty());
    let log = json::parse(&sarif::render(&diags)).expect("SARIF parses as JSON");
    assert_eq!(log.get("version").and_then(Value::as_str), Some("2.1.0"));
    let results = log.get("runs").and_then(Value::as_arr).expect("runs")[0]
        .get("results")
        .and_then(Value::as_arr)
        .expect("results");
    assert_eq!(results.len(), diags.len());
    for (d, r) in diags.iter().zip(results) {
        assert_eq!(r.get("ruleId").and_then(Value::as_str), Some(d.code), "{d}");
        let uri = r
            .get("locations")
            .and_then(Value::as_arr)
            .expect("locations")[0]
            .get("physicalLocation")
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str);
        assert_eq!(uri, Some(d.path.as_str()), "{d}");
    }
}

/// The README lint table is the `--explain all` catalogue verbatim, row
/// for row, so the registry and the docs cannot drift apart.
#[test]
fn readme_lint_table_matches_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let catalogue = nowlab_analyze::explain::render_explain("all").expect("catalogue");
    for row in catalogue.lines().skip(2) {
        assert!(
            readme.contains(row),
            "README.md lint table is missing or differs on:\n{row}"
        );
    }
}

/// The acceptance gate: the workspace as committed passes its own
/// analyzer. Reverting e.g. the `cluster.rs` BTreeMap conversion makes
/// this test (and CI's `--check` step) fail with the file and line.
#[test]
fn workspace_self_scan_is_clean_under_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (diags, _) = scan_workspace(&root).expect("workspace scan");
    let allowlist_text = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml");
    let allowlist = Allowlist::parse(&allowlist_text).expect("allowlist parses");
    let filtered = allowlist.apply(diags);
    let errors: Vec<String> = filtered
        .kept
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(ToString::to_string)
        .collect();
    assert!(
        errors.is_empty(),
        "workspace violations:\n{}",
        errors.join("\n")
    );
    assert!(
        filtered.stale.is_empty(),
        "stale allowlist entries: {:?}",
        filtered.stale
    );
}
