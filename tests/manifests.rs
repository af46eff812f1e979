//! The crate layering and the workspace-wide rules, checked over every
//! member's `Cargo.toml` rather than over its sources. Each rule carries
//! the code of the analyzer lint it replaced:
//!
//! - `LAY002`: a member's `[dependencies]` name only the workspace crates
//!   on its row of [`LAYERS`]; `LAY003` when apps reach below splitc, and
//!   `MET001` for any dependency of the metrics observer beyond
//!   `{sim, trace}`. A source reference to a crate the manifest does not
//!   declare does not compile, so this covers `LAY001` too.
//!   Dev-dependencies are host-side and exempt.
//! - `DET003`: no member depends on a crate outside the workspace, so the
//!   entropy crates (`rand`, `getrandom`) are out of reach. For the real
//!   workspace, `Cargo.lock` holding only member packages says the same of
//!   dev-dependencies.
//! - `SAFE001`: the root denies `unsafe_code` in `[workspace.lints.rust]`
//!   and every member inherits it through `[lints] workspace = true`.

use std::path::Path;

/// Each constrained crate (its directory under `crates/`) and the
/// workspace crates its `[dependencies]` may name. The stack rng → sim →
/// am → coll → splitc → apps keeps the seams where the paper's o/g/L/G
/// costs are attributed; trace and metrics observe from the side, and the
/// predictor reads traces but never the runtime it reasons about. The
/// root package has no row: it is host-side and unconstrained.
const LAYERS: &[(&str, &[&str])] = &[
    ("rng", &[]),
    ("sim", &[]),
    ("trace", &["sim"]),
    ("metrics", &["sim", "trace"]),
    ("am", &["rng", "sim", "trace"]),
    ("coll", &["sim", "trace", "am"]),
    ("splitc", &["sim", "trace", "am", "coll"]),
    ("predict", &["sim", "trace", "am"]),
    (
        "core",
        &[
            "rng", "sim", "trace", "metrics", "am", "coll", "splitc", "predict",
        ],
    ),
    ("apps", &["rng", "trace", "metrics", "splitc", "core"]),
];

struct Manifest {
    /// Workspace-relative path.
    rel: String,
    /// Directory under `crates/`, or `"."` for the root package.
    dir: String,
    /// `[dependencies]` entries with their 1-based lines.
    deps: Vec<(String, usize)>,
    inherits_lints: bool,
    denies_unsafe: bool,
}

/// A line-oriented walk, enough for this workspace's flat manifests.
fn parse(dir: &str, rel: String, text: &str) -> Manifest {
    let mut m = Manifest {
        rel,
        dir: dir.to_string(),
        deps: Vec::new(),
        inherits_lints: false,
        denies_unsafe: false,
    };
    let mut section = "";
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match section {
            "[dependencies]" => {
                let name = key.split('.').next().unwrap_or(key);
                m.deps.push((name.trim_matches('"').to_string(), i + 1));
            }
            "[lints]" => m.inherits_lints |= key == "workspace" && value == "true",
            "[workspace.lints.rust]" => {
                m.denies_unsafe |=
                    key == "unsafe_code" && matches!(value, "\"deny\"" | "\"forbid\"");
            }
            _ => {}
        }
    }
    m
}

/// The root manifest and every `crates/*/Cargo.toml` under `root`, sorted.
fn load(root: &Path) -> Vec<Manifest> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
    };
    let mut out = vec![parse(
        ".",
        "Cargo.toml".into(),
        &read(&root.join("Cargo.toml")),
    )];
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for d in dirs {
        let name = d
            .file_name()
            .expect("dir name")
            .to_string_lossy()
            .into_owned();
        let text = read(&d.join("Cargo.toml"));
        out.push(parse(&name, format!("crates/{name}/Cargo.toml"), &text));
    }
    out
}

/// Every rule broken under `root`, as `(manifest, line, code, message)`.
fn findings(root: &Path) -> Vec<(String, usize, &'static str, String)> {
    let manifests = load(root);
    let mut out = Vec::new();
    let root_manifest = &manifests[0];
    if !root_manifest.denies_unsafe {
        out.push((
            root_manifest.rel.clone(),
            1,
            "SAFE001",
            "`[workspace.lints.rust]` must set `unsafe_code = \"deny\"`".to_string(),
        ));
    }
    for m in &manifests {
        if !m.inherits_lints {
            out.push((
                m.rel.clone(),
                1,
                "SAFE001",
                format!("`{}` lacks `[lints] workspace = true`", m.dir),
            ));
        }
        let allowed = LAYERS
            .iter()
            .find(|(dir, _)| *dir == m.dir)
            .map(|(_, ok)| *ok);
        for (dep, line) in &m.deps {
            let layer = dep.strip_prefix("nowlab-");
            let code = match (layer, allowed) {
                _ if m.dir == "metrics"
                    && !layer.is_some_and(|l| ["sim", "trace"].contains(&l)) =>
                {
                    "MET001"
                }
                (None, _) => "DET003",
                (Some(l), Some(ok)) if !ok.contains(&l) => {
                    if m.dir == "apps" && ["sim", "am", "coll"].contains(&l) {
                        "LAY003"
                    } else {
                        "LAY002"
                    }
                }
                _ => continue,
            };
            let message = match allowed {
                Some(ok) if code != "DET003" => {
                    format!("`{}` depends on `{dep}`; its layers are {ok:?}", m.dir)
                }
                _ => format!("`{}` depends on `{dep}`, outside the workspace", m.dir),
            };
            out.push((m.rel.clone(), *line, code, message));
        }
    }
    out
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_workspace_keeps_its_layering_and_its_lints() {
    let bad = findings(repo_root());
    assert!(bad.is_empty(), "{bad:#?}");
    // Not vacuous: the root package plus ten crates were read, and every
    // constrained crate has a manifest.
    let manifests = load(repo_root());
    assert_eq!(manifests.len(), 11);
    for (dir, _) in LAYERS {
        assert!(manifests.iter().any(|m| m.dir == *dir), "no crates/{dir}");
    }
}

/// The edges the stack forbids, so loosening a row of the table fails.
#[test]
fn the_layer_table_keeps_the_stack() {
    let row = |dir: &str| LAYERS.iter().find(|(d, _)| *d == dir).unwrap().1;
    // The machine emits trace events; metrics consumes them from above.
    for machine in ["am", "coll", "splitc"] {
        assert!(row(machine).contains(&"trace") && !row(machine).contains(&"metrics"));
    }
    // Apps speak only the splitc surface, like the originals on the NOW.
    for below in ["sim", "am", "coll"] {
        assert!(!row("apps").contains(&below), "apps -> {below}");
    }
    // Collectives are deterministic by construction: no rng.
    assert!(!row("coll").contains(&"rng"));
    // The predictor never reaches the runtime it reasons about.
    assert!(!row("predict").contains(&"splitc") && !row("predict").contains(&"coll"));
    assert_eq!(row("trace"), ["sim"]);
    assert_eq!(row("metrics"), ["sim", "trace"]);
    assert!(row("sim").is_empty() && row("rng").is_empty());
}

#[test]
fn the_lockfile_holds_only_workspace_packages() {
    let lock = std::fs::read_to_string(repo_root().join("Cargo.lock")).expect("Cargo.lock");
    let packages: Vec<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = "))
        .map(|n| n.trim_matches('"'))
        .collect();
    assert_eq!(packages.len(), load(repo_root()).len(), "{packages:?}");
    for p in packages {
        assert!(
            p == "nowlab" || p.starts_with("nowlab-"),
            "`{p}` is not a workspace member (DET003: no dependency outside the workspace)"
        );
    }
}

/// The `ws_layering` mini-workspace breaks each rule once or twice.
#[test]
fn ws_layering_fixture_reports_every_row() {
    let root = repo_root().join("tests/fixtures/ws_layering");
    let got = findings(&root);
    let rows: Vec<(&str, usize, &str)> = got
        .iter()
        .map(|(path, line, code, _)| (path.as_str(), *line, *code))
        .collect();
    assert_eq!(
        rows,
        [
            ("crates/am/Cargo.toml", 10, "LAY002"),
            ("crates/apps/Cargo.toml", 9, "LAY003"),
            ("crates/metrics/Cargo.toml", 9, "MET001"),
            ("crates/metrics/Cargo.toml", 10, "MET001"),
            ("crates/predict/Cargo.toml", 10, "LAY002"),
            ("crates/sim/Cargo.toml", 1, "SAFE001"),
        ],
        "{got:#?}"
    );
    // The messages name the dependency; dev-dependencies stay exempt.
    let messages: String = got.iter().map(|(.., m)| m.as_str()).collect();
    assert!(messages.contains("`nowlab-splitc`; its layers are [\"sim\", \"trace\", \"am\"]"));
    assert!(messages.contains("`serde`"));
    assert!(!messages.contains("serde_json"));
}

/// The rules `ws_layering` does not reach: a dependency outside the
/// workspace anywhere, including in an unconstrained crate, and a root
/// that does not deny `unsafe_code`.
#[test]
fn external_dependencies_and_the_root_lint_table_are_reported() {
    let root = std::env::temp_dir().join(format!("nowlab-manifests-{}", std::process::id()));
    let write = |rel: &str, text: &str| {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    };
    let head = "[package]\n[lints]\nworkspace = true\n[dependencies]\n";
    write(
        "Cargo.toml",
        &format!("{head}nowlab-apps.workspace = true\n"),
    );
    write(
        "crates/host/Cargo.toml",
        &format!("{head}nowlab-core.workspace = true\nrand = \"0.8\"\n"),
    );
    write(
        "crates/splitc/Cargo.toml",
        &format!("{head}getrandom = \"0.2\"\n"),
    );
    let got = findings(&root);
    std::fs::remove_dir_all(&root).ok();
    let rows: Vec<(&str, usize, &str)> = got
        .iter()
        .map(|(path, line, code, _)| (path.as_str(), *line, *code))
        .collect();
    assert_eq!(
        rows,
        [
            ("Cargo.toml", 1, "SAFE001"),
            ("crates/host/Cargo.toml", 6, "DET003"),
            ("crates/splitc/Cargo.toml", 5, "DET003"),
        ],
        "{got:#?}"
    );
}
