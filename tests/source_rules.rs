//! Two source rules that no compiled check enforces, read straight off the
//! product sources (`src/` and every `crates/*/src/`). A `partial_cmp`
//! sort given a NaN, or a stale copy of a protocol constant, changes no
//! output on any input the goldens run, so only the spelling can be
//! checked (DESIGN.md section 8).
//!
//! Each file is cut at its first line that starts with `#[cfg(test)]`, as
//! `scripts/loc.sh` counts: every product file keeps its unit tests in one
//! module at its end, which [`product_sources`] asserts, so the cut drops
//! exactly the tests.

use std::path::{Path, PathBuf};

const TEST_CUT: &str = "#[cfg(test)]";

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every product `.rs` file under `root` (its `src/` and each
/// `crates/*/src/`) as (repo-relative path, text above the test cut),
/// sorted by path.
fn product_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            let Some(cut) = text.lines().position(|l| l.starts_with(TEST_CUT)) else {
                return (rel, text);
            };
            let lines: Vec<&str> = text.lines().collect();
            // The cut opens the tests module, and the first line that
            // closes an item at column 0 after it is the file's last.
            let tests = &lines[cut + 1..];
            let close = tests.iter().position(|l| l.starts_with('}'));
            let last = tests.iter().rposition(|l| !l.trim().is_empty());
            assert!(
                tests.first().is_some_and(|l| l.contains("mod tests")) && close == last,
                "{rel}: product code follows the test module at line {}",
                cut + 1
            );
            (rel, lines[..cut].join("\n"))
        })
        .collect()
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The retired lint FLT002. `a.partial_cmp(b).unwrap()` panics on NaN,
/// and a sort by `partial_cmp` puts a NaN wherever the input order left
/// it; `f64::total_cmp` is a total order over every bit pattern. No
/// product source names `partial_cmp`, comments included.
#[test]
fn no_product_source_compares_floats_partially() {
    let sources = product_sources(repo_root());
    assert!(sources.len() > 50, "only {} product files", sources.len());
    let bad: Vec<String> = sources
        .iter()
        .flat_map(|(rel, text)| {
            text.lines()
                .enumerate()
                .filter(|(_, l)| l.contains("partial_cmp"))
                .map(move |(i, l)| format!("{rel}:{}: {}", i + 1, l.trim()))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "compare floats with f64::total_cmp, not partial_cmp:\n{}",
        bad.join("\n")
    );
}

/// True if `line` holds the integer literal `n`, digit separators and a
/// type suffix (`u32`, `i64`, …) ignored, and not as part of a longer
/// number or name.
fn has_literal(line: &str, n: &str) -> bool {
    let line = line.replace('_', "");
    line.match_indices(n).any(|(i, _)| {
        let longer = |c: char| c.is_ascii_digit() || (c.is_ascii_alphabetic() && !"ui".contains(c));
        !line[..i].ends_with(|c: char| c.is_ascii_alphanumeric())
            && !line[i + n.len()..].starts_with(longer)
    })
}

/// True if `line` sets a window depth from an integer literal: a
/// `window:` field or a `with_window(` argument that starts with a digit.
fn has_window_literal(line: &str) -> bool {
    ["window:", "with_window("].iter().any(|key| {
        line.match_indices(key).any(|(i, _)| {
            line[i + key.len()..]
                .trim_start()
                .starts_with(|c: char| c.is_ascii_digit())
        })
    })
}

/// The retired lint AMP002. The GAM fragment size and flow-control window
/// are protocol constants with one definition each (`GAM_FRAG_BYTES`,
/// `GAM_WINDOW` in `crates/am/src/params.rs`). A second spelling of 4096
/// or of a window depth in the AM layer drifts silently when the constant
/// changes: the run goldens pin the constant's value, not its uses, so a
/// change that moves the constant rewrites them with the stale copy in
/// place. Such a change fails here first on each copy of the old value,
/// then on `DEFINITION`, which moves with the constant.
#[test]
fn the_am_layer_spells_its_protocol_constants_once() {
    const DEFINITION: &str = "pub const GAM_FRAG_BYTES: u32 = 4096;";
    let mut definitions = 0;
    let mut bad = Vec::new();
    for (rel, text) in product_sources(repo_root()) {
        if !rel.starts_with("crates/am/src/") {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            if line.trim() == DEFINITION {
                definitions += 1;
            } else if has_literal(line, "4096") || has_window_literal(line) {
                bad.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "name GAM_FRAG_BYTES / GAM_WINDOW instead of a literal:\n{}",
        bad.join("\n")
    );
    assert_eq!(definitions, 1, "`{DEFINITION}` not found once");
}

#[test]
fn the_literal_matchers_see_what_they_ban_and_nothing_else() {
    for banned in [
        "len.min(4096)",
        "x / 4_096",
        "frag: 4096u32",
        "C { window: 8 }",
        "cfg.with_window( 16)",
    ] {
        assert!(
            has_literal(banned, "4096") || has_window_literal(banned),
            "{banned}"
        );
    }
    for clean in [
        "len.min(GAM_FRAG_BYTES)",
        "x / 40960",
        "let b4096 = 1;",
        "pub window: u32,",
        "window: GAM_WINDOW,",
        "cfg.with_window(depth)",
    ] {
        assert!(
            !has_literal(clean, "4096") && !has_window_literal(clean),
            "{clean}"
        );
    }
}
