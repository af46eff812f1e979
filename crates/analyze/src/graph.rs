//! Workspace dependency graph, parsed from the crates' `Cargo.toml`
//! manifests.
//!
//! The ten-crate stack encodes the paper's o/g/L/G attribution as a strict
//! layering: `rng → sim → am → coll → splitc → apps`, with `trace`/`metrics`
//! as observe-only sinks off to the side and `core` as the experiment driver
//! above `splitc`. [`WorkspaceGraph`] makes that layering machine-checkable:
//! it knows, for every crate, which other workspace crates its manifest
//! declares (`[dependencies]` vs `[dev-dependencies]`, with line numbers for
//! diagnostics), and [`Layer`] fixes which of those edges are legal.
//!
//! Two lint surfaces hang off this graph:
//!
//! - **manifest level** ([`WorkspaceGraph::lint_manifests`], `LAY002` /
//!   `MET001`): a crate's `[dependencies]` must stay within its layer's
//!   allowed set. For the observer crates (`trace`, `metrics`) *every*
//!   dependency is checked — workspace or not — because the observers sit
//!   inside the event loop and must be provably unable to reach I/O,
//!   threads, or entropy.
//! - **source level** (`LAY001`/`LAY003` in [`families`](crate::families)):
//!   every `nowlab_x` path reference in a crate's sources must also resolve
//!   to an allowed layer, so a crate cannot smuggle an edge its manifest
//!   forgot to declare (path deps inherited through re-exports).

use std::collections::BTreeMap;
use std::path::Path;

use crate::Diagnostic;

/// Architectural layer of a workspace crate. Order is not meaningful;
/// legality is the explicit edge set in [`Layer::allowed_deps`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `crates/rng` — seeded entropy, depends on nothing.
    Rng,
    /// `crates/sim` — event kernel and virtual time, depends on nothing.
    Sim,
    /// `crates/trace` — per-message cost observer; may see only `sim`.
    Trace,
    /// `crates/metrics` — simulated-time accounting, a consumer of `trace`
    /// events; `{sim, trace}`, and reached only from `core`/`apps`.
    Metrics,
    /// `crates/am` — GAM active-message layer over the kernel.
    Am,
    /// `crates/coll` — model-driven collective operations over AM;
    /// deterministic by construction, so no `rng` edge.
    Coll,
    /// `crates/splitc` — Split-C language runtime over AM.
    Splitc,
    /// `crates/predict` — happens-before DAG analytics over traces; reads
    /// the trace and prices edges with AM's LogGP config, but must never
    /// reach the runtime layers (`splitc`, `coll`) it reasons about.
    Predict,
    /// `crates/core` — experiment driver: sweeps, models, calibration.
    Core,
    /// `crates/apps` — the ported Split-C applications; splitc and above
    /// only, never the kernel or AM internals directly.
    Apps,
    /// `crates/analyze` — this tool; unconstrained.
    Analyze,
    /// The root `nowlab` package (CLI); unconstrained.
    Root,
    /// Anything else (fixtures, unknown crates); unconstrained.
    #[default]
    Other,
}

impl Layer {
    /// Maps a crate directory name (`crates/<name>`) to its layer.
    pub fn of_crate(name: &str) -> Layer {
        match name {
            "rng" => Layer::Rng,
            "sim" => Layer::Sim,
            "trace" => Layer::Trace,
            "metrics" => Layer::Metrics,
            "am" => Layer::Am,
            "coll" => Layer::Coll,
            "splitc" => Layer::Splitc,
            "predict" => Layer::Predict,
            "core" => Layer::Core,
            "apps" => Layer::Apps,
            "analyze" => Layer::Analyze,
            _ => Layer::Other,
        }
    }

    /// Maps a package name (`nowlab-sim`) or source-path root
    /// (`nowlab_sim`) to its layer, if it is a known workspace crate.
    pub fn of_package(pkg: &str) -> Option<Layer> {
        let name = pkg
            .strip_prefix("nowlab-")
            .or_else(|| pkg.strip_prefix("nowlab_"))?;
        match Layer::of_crate(name) {
            Layer::Other => None,
            l => Some(l),
        }
    }

    /// The workspace crates this layer may depend on — the legal edges of
    /// the layering diagram (self-edges are implicitly fine; they cannot
    /// occur in Cargo anyway). `None` means the layer is unconstrained
    /// (host-side tooling above the simulation boundary).
    pub fn allowed_deps(self) -> Option<&'static [Layer]> {
        match self {
            Layer::Rng => Some(&[]),
            Layer::Sim => Some(&[]),
            Layer::Trace => Some(&[Layer::Sim]),
            Layer::Metrics => Some(&[Layer::Sim, Layer::Trace]),
            // The simulated machine emits `trace` events and nothing else;
            // `metrics` consumes them from above (`core`/`apps`).
            Layer::Am => Some(&[Layer::Rng, Layer::Sim, Layer::Trace]),
            Layer::Coll => Some(&[Layer::Sim, Layer::Trace, Layer::Am]),
            Layer::Splitc => Some(&[Layer::Sim, Layer::Trace, Layer::Am, Layer::Coll]),
            Layer::Predict => Some(&[Layer::Sim, Layer::Trace, Layer::Am]),
            Layer::Core => Some(&[
                Layer::Rng,
                Layer::Sim,
                Layer::Trace,
                Layer::Metrics,
                Layer::Am,
                Layer::Coll,
                Layer::Splitc,
                Layer::Predict,
            ]),
            Layer::Apps => Some(&[
                Layer::Rng,
                Layer::Trace,
                Layer::Metrics,
                Layer::Splitc,
                Layer::Core,
            ]),
            Layer::Analyze | Layer::Root | Layer::Other => None,
        }
    }

    /// True for the observe-only sink crates whose *entire* dependency
    /// cone (not just workspace edges) is checked.
    pub fn is_observer(self) -> bool {
        matches!(self, Layer::Trace | Layer::Metrics)
    }

    /// Short display name matching the crate directory.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rng => "rng",
            Layer::Sim => "sim",
            Layer::Trace => "trace",
            Layer::Metrics => "metrics",
            Layer::Am => "am",
            Layer::Coll => "coll",
            Layer::Splitc => "splitc",
            Layer::Predict => "predict",
            Layer::Core => "core",
            Layer::Apps => "apps",
            Layer::Analyze => "analyze",
            Layer::Root => "root",
            Layer::Other => "other",
        }
    }
}

/// One declared dependency edge from a crate manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Package name as written (`nowlab-sim`, `serde`).
    pub name: String,
    /// 1-based line in the manifest.
    pub line: u32,
    /// True for `[dev-dependencies]` (host-side tests; layering-exempt).
    pub dev: bool,
}

/// One workspace member crate.
#[derive(Clone, Debug, Default)]
pub struct CrateNode {
    /// Crate directory name (`sim`), or `"."` for the root package.
    pub dir: String,
    /// Package name from `[package] name = …`.
    pub package: String,
    /// Architectural layer.
    pub layer: Layer,
    /// Declared dependencies, manifest order.
    pub deps: Vec<DepEdge>,
    /// Workspace-relative manifest path.
    pub manifest: String,
}

/// The parsed workspace: one node per member crate, keyed by directory.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceGraph {
    /// Nodes keyed by crate directory name (`"."` for the root package).
    pub crates: BTreeMap<String, CrateNode>,
}

impl WorkspaceGraph {
    /// Loads the graph from `root/Cargo.toml` plus every
    /// `root/crates/*/Cargo.toml`. Missing manifests are skipped (older
    /// checkouts, test trees), never an error.
    pub fn load(root: &Path) -> Result<WorkspaceGraph, String> {
        let mut graph = WorkspaceGraph::default();
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            let src = std::fs::read_to_string(&root_manifest)
                .map_err(|e| format!("reading Cargo.toml: {e}"))?;
            graph.insert_manifest(".", "Cargo.toml", &src, Layer::Root);
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<_> = std::fs::read_dir(&crates_dir)
                .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let manifest = dir.join("Cargo.toml");
                if !manifest.is_file() {
                    continue;
                }
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let rel = format!("crates/{name}/Cargo.toml");
                let src = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("reading {rel}: {e}"))?;
                let layer = Layer::of_crate(&name);
                graph.insert_manifest(&name, &rel, &src, layer);
            }
        }
        Ok(graph)
    }

    fn insert_manifest(&mut self, dir: &str, rel: &str, source: &str, layer: Layer) {
        let mut node = CrateNode {
            dir: dir.to_string(),
            layer,
            manifest: rel.to_string(),
            ..CrateNode::default()
        };
        // Minimal line-oriented TOML walk: track the current section, pull
        // `name = …` from [package] and dependency names from the
        // dependency tables. Enough for Cargo manifests, which are flat.
        #[derive(PartialEq)]
        enum Section {
            Package,
            Deps,
            DevDeps,
            Other,
        }
        let mut section = Section::Other;
        for (i, raw) in source.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = match line {
                    "[package]" => Section::Package,
                    "[dependencies]" => Section::Deps,
                    "[dev-dependencies]" => Section::DevDeps,
                    _ => Section::Other,
                };
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match section {
                Section::Package => {
                    if let Some(rest) = line.strip_prefix("name") {
                        let rest = rest.trim_start();
                        if let Some(v) = rest.strip_prefix('=') {
                            node.package = v.trim().trim_matches('"').to_string();
                        }
                    }
                }
                Section::Deps | Section::DevDeps => {
                    let Some(name) = line.split(['=', '.']).next().map(str::trim) else {
                        continue;
                    };
                    if name.is_empty() {
                        continue;
                    }
                    node.deps.push(DepEdge {
                        name: name.trim_matches('"').to_string(),
                        line: (i + 1) as u32,
                        dev: section == Section::DevDeps,
                    });
                }
                Section::Other => {}
            }
        }
        self.crates.insert(dir.to_string(), node);
    }

    /// The node for a crate directory name, if present.
    pub fn get(&self, dir: &str) -> Option<&CrateNode> {
        self.crates.get(dir)
    }

    /// Manifest-level layering lints.
    ///
    /// For every constrained crate, each `[dependencies]` edge (dev-deps
    /// are host-side and exempt) must point at an allowed lower layer.
    /// Violations in the metrics crate keep their historical code
    /// `MET001`; everywhere else the code is `LAY002`. Observer crates
    /// additionally reject *non-workspace* dependencies outright.
    pub fn lint_manifests(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for node in self.crates.values() {
            let Some(allowed) = node.layer.allowed_deps() else {
                continue;
            };
            let code = if node.layer == Layer::Metrics {
                "MET001"
            } else {
                "LAY002"
            };
            for dep in &node.deps {
                if dep.dev {
                    continue;
                }
                match Layer::of_package(&dep.name) {
                    Some(dep_layer) => {
                        if allowed.contains(&dep_layer) || dep_layer == node.layer {
                            continue;
                        }
                        let names: Vec<&str> = allowed.iter().map(|l| l.name()).collect();
                        diags.push(Diagnostic {
                            path: node.manifest.clone(),
                            line: dep.line,
                            code,
                            message: format!(
                                "`{}` (layer {}) depends on `{}` (layer {}); its declared \
                                 lower layers are {:?} — the rng→sim→am→splitc→apps stack \
                                 keeps the paper's o/g/L/G attribution honest",
                                node.package,
                                node.layer.name(),
                                dep.name,
                                dep_layer.name(),
                                names
                            ),
                        });
                    }
                    None if node.layer.is_observer() => {
                        diags.push(Diagnostic {
                            path: node.manifest.clone(),
                            line: dep.line,
                            code,
                            message: format!(
                                "{} crate depends on `{}`; the observer must stay inside \
                                 the allowlist {:?} so enabling it cannot perturb a \
                                 simulation",
                                node.layer.name(),
                                dep.name,
                                allowed
                                    .iter()
                                    .map(|l| format!("nowlab-{}", l.name()))
                                    .collect::<Vec<_>>()
                            ),
                        });
                    }
                    None => {}
                }
            }
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_matches_the_stack() {
        assert_eq!(Layer::of_crate("splitc"), Layer::Splitc);
        assert_eq!(Layer::of_package("nowlab-sim"), Some(Layer::Sim));
        assert_eq!(Layer::of_package("nowlab_metrics"), Some(Layer::Metrics));
        assert_eq!(Layer::of_package("serde"), None);
        // Observers see only their sanctioned lower layers.
        assert_eq!(Layer::Trace.allowed_deps(), Some(&[Layer::Sim][..]));
        assert!(Layer::Metrics
            .allowed_deps()
            .unwrap()
            .contains(&Layer::Trace));
        // The machine layers emit trace events only: metrics is a
        // consumer above them, never a dependency of theirs.
        for machine in [Layer::Am, Layer::Coll, Layer::Splitc] {
            let allowed = machine.allowed_deps().unwrap();
            assert!(allowed.contains(&Layer::Trace), "{machine:?}");
            assert!(!allowed.contains(&Layer::Metrics), "{machine:?}");
        }
        // Apps must not reach the kernel, AM, or the collectives crate
        // directly — everything below splitc arrives via its re-exports.
        let apps = Layer::Apps.allowed_deps().unwrap();
        assert!(!apps.contains(&Layer::Sim));
        assert!(!apps.contains(&Layer::Am));
        assert!(!apps.contains(&Layer::Coll));
        assert!(apps.contains(&Layer::Splitc));
        // The collectives layer sits between am and splitc: splitc may use
        // it, and it is deterministic by construction (no rng edge).
        assert_eq!(Layer::of_crate("coll"), Layer::Coll);
        assert!(Layer::Splitc.allowed_deps().unwrap().contains(&Layer::Coll));
        let coll = Layer::Coll.allowed_deps().unwrap();
        assert!(coll.contains(&Layer::Am));
        assert!(!coll.contains(&Layer::Rng));
        assert!(!coll.contains(&Layer::Splitc));
        // The predictor reads traces and prices with AM's LogGP config
        // but must not touch the runtime layers it reasons about.
        assert_eq!(Layer::of_crate("predict"), Layer::Predict);
        let predict = Layer::Predict.allowed_deps().unwrap();
        assert!(predict.contains(&Layer::Trace));
        assert!(predict.contains(&Layer::Am));
        assert!(!predict.contains(&Layer::Splitc));
        assert!(!predict.contains(&Layer::Coll));
        assert!(Layer::Core
            .allowed_deps()
            .unwrap()
            .contains(&Layer::Predict));
        // Host-side layers are unconstrained.
        assert!(Layer::Analyze.allowed_deps().is_none());
        assert!(Layer::Root.allowed_deps().is_none());
    }

    fn graph_from(manifests: &[(&str, &str)]) -> WorkspaceGraph {
        let mut g = WorkspaceGraph::default();
        for (dir, src) in manifests {
            let rel = format!("crates/{dir}/Cargo.toml");
            g.insert_manifest(dir, &rel, src, Layer::of_crate(dir));
        }
        g
    }

    #[test]
    fn manifest_parse_extracts_names_and_dep_lines() {
        let g = graph_from(&[(
            "splitc",
            "[package]\nname = \"nowlab-splitc\"\n\n[dependencies]\n\
             nowlab-sim.workspace = true\nnowlab-am = { path = \"../am\" }\n\n\
             [dev-dependencies]\nnowlab-rng.workspace = true\n",
        )]);
        let node = g.get("splitc").unwrap();
        assert_eq!(node.package, "nowlab-splitc");
        let deps: Vec<(&str, bool)> = node.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            deps,
            vec![
                ("nowlab-sim", false),
                ("nowlab-am", false),
                ("nowlab-rng", true)
            ]
        );
        assert_eq!(node.deps[1].line, 6);
    }

    #[test]
    fn lay002_flags_upward_and_cross_edges() {
        let g = graph_from(&[(
            "trace",
            "[package]\nname = \"nowlab-trace\"\n[dependencies]\n\
             nowlab-sim.workspace = true\nnowlab-am.workspace = true\n",
        )]);
        let diags = g.lint_manifests();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "LAY002");
        assert!(diags[0].message.contains("nowlab-am"));
    }

    #[test]
    fn metrics_violations_keep_the_met001_code() {
        let g = graph_from(&[(
            "metrics",
            "[package]\nname = \"nowlab-metrics\"\n[dependencies]\n\
             nowlab-sim.workspace = true\nnowlab-trace.workspace = true\n\
             serde = \"1\"\nnowlab-am = { path = \"../am\" }\n",
        )]);
        let codes: Vec<&str> = g.lint_manifests().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["MET001", "MET001"]);
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let g = graph_from(&[(
            "apps",
            "[package]\nname = \"nowlab-apps\"\n[dependencies]\n\
             nowlab-splitc.workspace = true\n\n[dev-dependencies]\n\
             nowlab-sim.workspace = true\n",
        )]);
        assert!(g.lint_manifests().is_empty());
    }

    #[test]
    fn unconstrained_layers_pass_anything() {
        let g = graph_from(&[(
            "analyze",
            "[package]\nname = \"nowlab-analyze\"\n[dependencies]\n\
             nowlab-sim.workspace = true\nnowlab-core.workspace = true\n",
        )]);
        assert!(g.lint_manifests().is_empty());
    }

    #[test]
    fn real_workspace_graph_is_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let g = WorkspaceGraph::load(&root).unwrap();
        // All member crates plus the root package are present.
        for dir in [
            ".", "am", "analyze", "apps", "coll", "core", "metrics", "predict", "rng", "sim",
            "splitc", "trace",
        ] {
            assert!(g.get(dir).is_some(), "missing crate node {dir}");
        }
        let diags = g.lint_manifests();
        assert!(diags.is_empty(), "{diags:?}");
    }
}
