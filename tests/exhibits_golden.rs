//! `nowlab exhibit` against goldens written by the commit *before* the
//! exhibit runner existed: `tests/golden/exhibits/<name>.txt` is the stdout
//! of that commit's `cargo bench` binary of the same name, at test scale
//! with one worker (CHANGES.md, PR 17, has the exact command).
//! Never regenerate them with the build under test.
//!
//! `time_breakdown` is the designed exception: it moved from the `am`
//! counters to the metrics recorder's conserved states, so its numbers
//! changed once, on purpose. It is checked for conservation instead.

use std::collections::BTreeSet;
use std::path::Path;

use nowlab::apps::SuiteScale;
use nowlab::exhibits::{Lab, EXHIBITS};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Renders every exhibit in registry order from one lab — what
/// `nowlab exhibit all --scale test --jobs N` prints, per exhibit.
fn check_all_at(jobs: usize) {
    let mut lab = Lab::new(SuiteScale::Test, jobs);
    for ex in EXHIBITS {
        let blocks = ex
            .render(&mut lab)
            .unwrap_or_else(|e| panic!("{}: {e}", ex.name));
        let text: String = blocks.iter().map(ToString::to_string).collect();
        if ex.name == "time_breakdown" {
            check_time_breakdown(&text);
            continue;
        }
        let path = root().join(format!("tests/golden/exhibits/{}.txt", ex.name));
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if text != golden {
            let line = text
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| text.lines().count().min(golden.lines().count()));
            panic!(
                "{} differs from its golden at --jobs {jobs}, line {}:\n  got:    {:?}\n  golden: {:?}",
                ex.name,
                line + 1,
                text.lines().nth(line),
                golden.lines().nth(line)
            );
        }
    }
}

/// Every row's four columns sum to 100 % (the recorder's integer states
/// conserve processor time), at the baseline and at o = 53 µs, and the
/// added overhead shows up in the overhead column of the frequent four.
fn check_time_breakdown(text: &str) {
    let rows: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(1)
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), 10, "one row per app:\n{text}");
    for row in &rows {
        let pct: Vec<f64> = row[1..]
            .iter()
            .map(|c| c.parse().unwrap_or_else(|_| panic!("{row:?}")))
            .collect();
        for half in pct.chunks(4) {
            let sum: f64 = half.iter().sum();
            assert!((sum - 100.0).abs() < 0.1 + 1e-9, "{row:?} sums to {sum}");
        }
        if ["Radix", "EM3D(write)", "EM3D(read)", "Sample"].contains(&row[0]) {
            assert!(pct[5] > pct[1], "{row:?}: overhead share must grow");
        }
    }
}

#[test]
fn every_exhibit_matches_its_parent_written_golden_sequentially() {
    check_all_at(1);
}

#[test]
fn every_exhibit_matches_its_parent_written_golden_on_the_pool() {
    check_all_at(2);
}

#[test]
fn every_golden_belongs_to_an_exhibit() {
    let files: BTreeSet<String> = std::fs::read_dir(root().join("tests/golden/exhibits"))
        .expect("golden directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    let expected: BTreeSet<String> = EXHIBITS
        .iter()
        .filter(|ex| ex.name != "time_breakdown")
        .map(|ex| format!("{}.txt", ex.name))
        .collect();
    assert_eq!(files, expected);
}

/// Backticked exhibit-style names (`lower_snake`) in one column of the
/// markdown tables of `section`.
fn names_in_column(section: &str, column: usize) -> BTreeSet<String> {
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .filter_map(|l| l.trim_matches('|').split('|').nth(column))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(str::to_string)
        .collect()
}

/// The part of `doc` from the heading starting with `heading` up to the
/// next heading of the same level.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no heading {heading:?}"));
    let body = &doc[start + heading.len()..];
    &body[..body.find("\n## ").unwrap_or(body.len())]
}

#[test]
fn the_docs_index_exactly_the_registry() {
    let registry: BTreeSet<String> = EXHIBITS.iter().map(|ex| ex.name.to_string()).collect();
    assert_eq!(registry.len(), EXHIBITS.len(), "duplicate exhibit name");
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    assert_eq!(
        names_in_column(section(&design, "## 5. Experiment index"), 3),
        registry,
        "DESIGN.md §5 index (column \"Exhibit\") vs src/exhibits.rs"
    );
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README.md");
    assert_eq!(
        names_in_column(
            section(&readme, "## Regenerating the paper's evaluation"),
            0
        ),
        registry,
        "README.md exhibit table vs src/exhibits.rs"
    );
}
