//! # nowlab-analyze — determinism & AM-protocol static analysis
//!
//! The simulation's headline guarantee is that virtual time is a pure
//! function of (program, seed): two runs with the same inputs produce
//! bit-identical statistics. That guarantee is easy to break silently —
//! one float sum in arrival order, one timer delay spelled inline — so
//! this crate checks it mechanically over the whole workspace, along
//! with the GAM active-message protocol rules the paper's apparatus
//! depends on.
//!
//! What the toolchain can check with type resolution it checks instead:
//! hash collections, wall clocks, environment reads, threads, locks and
//! atomics are `disallowed-types`/`disallowed-methods` in the root
//! `clippy.toml`, membership and detector state is private to
//! `crates/am`, `unsafe_code` is denied by `[workspace.lints]`, and the
//! crate layering is a test over every member's manifest
//! (`tests/manifests.rs`). `explain::MOVED` maps each retired code to
//! its new home.
//!
//! The pass runs as a test, `cargo test -p nowlab-analyze`: an
//! error-severity finding anywhere in the workspace fails
//! `tests/analyzer.rs` with `path:line CODE message`, and a warning is
//! printed. The build container is fully offline, so instead of `syn`
//! the pass runs on a hand-rolled token scanner ([`lexer`]) feeding a
//! lightweight recursive-descent item tree ([`itemtree`]) — modules,
//! fn/impl signatures, const items and exact `#[cfg(test)]` extents — so
//! lints are scope-resolved, not bare-identifier matches.
//!
//! The lint catalogue is one [`explain::LintInfo`] record per code.
//!
//! ## Lint catalogue
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `DET004` | warning | wall-clock value flowing toward virtual time |
//! | `AMP001` | error | AM handler issues a request (GAM acyclicity) |
//! | `AMP002` | error | re-hardcoded window depth / 4KB fragment size |
//! | `FLT001` | error | unordered `f64` reduction (`.sum()`, `fold(+)`) in sim-visible code |
//! | `FLT002` | error | `partial_cmp` on floats in sim-visible code |
//! | `FLT003` | error | float accumulation inside an event handler closure |
//! | `TIM001` | error | raw literal flowing into a timer API outside a named const |
//! | `TIM002` | warning | mixed time-unit arithmetic in one expression |

#![forbid(unsafe_code)]

pub mod explain;
pub mod families;
pub mod itemtree;
pub mod lexer;
pub mod lints;

use std::fmt;
use std::path::{Path, PathBuf};

use itemtree::FileModel;

/// How bad a finding is. `Error` fails the workspace test; `Warning` is
/// advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, never fails the build.
    Warning,
    /// Violation of a hard invariant: fails the workspace test.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, addressable by file and line.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable lint code (`DET004`, `AMP002`, …).
    pub code: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// The severity the lint registry ([`explain::LINTS`]) declares for
    /// this finding's code, the one place a severity is written.
    ///
    /// # Panics
    ///
    /// Panics if the code has no registry record.
    pub fn severity(&self) -> Severity {
        explain::LINTS
            .iter()
            .find(|l| l.code == self.code)
            .unwrap_or_else(|| panic!("lint {} is not in the registry", self.code))
            .severity
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.path, self.line, self.code, self.message
        )
    }
}

/// Which lint families apply to a file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scope {
    /// Code that can influence simulation state or event order. `DET004`
    /// and the `FLT`/`TIM` families apply here.
    pub sim_visible: bool,
    /// Inside `crates/am`: the protocol-constant lint `AMP002` applies.
    pub am_layer: bool,
}

/// Crates whose code is simulation-visible. `analyze` is deliberately
/// absent: this tool runs no simulation.
const SIM_CRATES: &[&str] = &[
    "sim", "trace", "metrics", "am", "coll", "splitc", "predict", "core", "apps", "rng",
];

/// Determines the lint scope for a workspace-relative `.rs` path, or
/// `None` if the file is out of scope (tests, examples, fixtures — anything
/// outside a `src/` tree).
pub(crate) fn scope_for(rel: &str) -> Option<Scope> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, in_src) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
        (Some(parts[1]), parts[2] == "src")
    } else if parts.first() == Some(&"src") {
        (None, true)
    } else {
        (None, false)
    };
    if !in_src {
        return None;
    }
    Some(Scope {
        sim_visible: crate_name.is_none_or(|c| SIM_CRATES.contains(&c)),
        am_layer: crate_name == Some("am"),
    })
}

/// Lints a single parsed [`FileModel`] under the given scope: the
/// token-level lints ([`lints`]) plus the item-tree families
/// ([`families`]).
pub(crate) fn scan_model(path: &str, model: &FileModel, scope: &Scope) -> Vec<Diagnostic> {
    let mut diags = lints::lint_model(path, model, scope);
    diags.extend(families::lint_model(path, model, scope));
    diags
}

/// Lints a single source file under the given scope.
pub fn scan_source(path: &str, source: &str, scope: &Scope) -> Vec<Diagnostic> {
    scan_model(path, &FileModel::parse(source), scope)
}

/// Scans every in-scope `.rs` file under the workspace `root`, in
/// deterministic (sorted-path) order. Returns the diagnostics sorted by
/// (path, line, code).
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut src_roots = vec![root.join("src")];
    if crates_dir.is_dir() {
        let mut names: Vec<_> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        src_roots.extend(names.into_iter().map(|p| p.join("src")));
    }
    for src in src_roots {
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    let mut diags = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(file).map_err(|e| format!("reading {rel}: {e}"))?;
        diags.extend(scan_source(&rel, &source, &scope));
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_routing() {
        let s = scope_for("crates/am/src/cluster.rs").unwrap();
        assert!(s.sim_visible && s.am_layer);
        let s = scope_for("crates/rng/src/lib.rs").unwrap();
        assert!(s.sim_visible && !s.am_layer);
        let s = scope_for("crates/analyze/src/lib.rs").unwrap();
        assert!(!s.sim_visible, "the analyzer is host-side");
        assert!(scope_for("src/exhibits.rs").unwrap().sim_visible);
        assert!(scope_for("src/bin/nowlab.rs").unwrap().sim_visible);
        // Trace sinks observe simulations from inside, so the crate is
        // held to the same determinism rules as the layers it instruments.
        let s = scope_for("crates/trace/src/lib.rs").unwrap();
        assert!(s.sim_visible && !s.am_layer);
        // Metrics sinks likewise run inside the event loop.
        let s = scope_for("crates/metrics/src/lib.rs").unwrap();
        assert!(s.sim_visible && !s.am_layer);
        assert!(scope_for("crates/analyze/tests/fixtures/det001.rs").is_none());
        assert!(scope_for("crates/am/tests/gam.rs").is_none());
        assert!(scope_for("README.md").is_none());
    }
}
