//! Communication-signature conformance: each application must exhibit the
//! paper's Table 4 class characteristics (read/write orientation, bulk
//! usage, balance) even at test scale.

use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_core::RunSpec;
use std::collections::BTreeMap;

fn run_all(procs: usize) -> BTreeMap<String, nowlab_core::RunOutcome> {
    suite_scaled(SuiteScale::Test)
        .iter()
        .map(|app| {
            let out = app.run(&RunSpec::new(procs));
            assert!(out.completed, "{} failed", app.name());
            (app.name().to_string(), out)
        })
        .collect()
}

#[test]
fn read_write_orientation_matches_table4() {
    let outs = run_all(8);
    // Read-dominated programs (paper: 97.1%, 96.5%, 67.4%, 20.6%).
    for name in ["EM3D(read)", "P-Ray", "Connect"] {
        assert!(
            outs[name].stats.pct_reads() > 50.0,
            "{name} should be read-dominated: {}",
            outs[name].stats.pct_reads()
        );
    }
    // Write-based programs (paper: 0.0%).
    for name in [
        "Radix",
        "EM3D(write)",
        "Sample",
        "Murphi",
        "NOW-sort",
        "Radb",
    ] {
        assert!(
            outs[name].stats.pct_reads() < 10.0,
            "{name} should be write-based: {}",
            outs[name].stats.pct_reads()
        );
    }
}

#[test]
fn bulk_usage_matches_table4() {
    let outs = run_all(8);
    // Bulk-transfer users (paper: 23-50%).
    for name in ["Murphi", "NOW-sort", "P-Ray"] {
        let b = outs[name].stats.pct_bulk();
        assert!((15.0..70.0).contains(&b), "{name} bulk% = {b}");
    }
    // Short-message-only programs (paper: ≤0.01%).
    for name in ["Radix", "EM3D(write)", "EM3D(read)", "Sample", "Connect"] {
        let b = outs[name].stats.pct_bulk();
        assert!(b < 2.0, "{name} bulk% = {b}");
    }
}

#[test]
fn balance_classes_match_figure4() {
    let outs = run_all(8);
    // NOW-sort's all-to-all streaming and Radix's key scatter are tightly
    // balanced; Sample's receiver imbalance shows up in the matrix, not in
    // send counts.
    for name in ["NOW-sort", "Radix", "EM3D(write)"] {
        assert!(
            outs[name].stats.balance() < 1.5,
            "{name} balance = {}",
            outs[name].stats.balance()
        );
    }
    // Every program's matrix diagonal is empty (nobody messages itself).
    for (name, out) in &outs {
        for (i, row) in out.stats.balance_matrix().iter().enumerate() {
            assert_eq!(row[i], 0, "{name}: proc {i} messaged itself");
        }
    }
}

#[test]
fn frequency_spread_spans_the_suite() {
    let outs = run_all(8);
    let interval = |n: &str| outs[n].stats.msg_interval_us();
    // The frequent four vs the infrequent tail: at least an order of
    // magnitude apart (the paper has two orders at full scale).
    let frequent = ["Radix", "EM3D(write)", "Sample"]
        .iter()
        .map(|n| interval(n))
        .fold(0.0f64, f64::max);
    let infrequent = ["NOW-sort", "Murphi"]
        .iter()
        .map(|n| interval(n))
        .fold(f64::MAX, f64::min);
    assert!(
        infrequent > 4.0 * frequent,
        "spread too small: frequent ≤ {frequent:.1}us, infrequent ≥ {infrequent:.1}us"
    );
}

#[test]
fn barriers_are_used_by_the_bulk_synchronous_apps() {
    let outs = run_all(8);
    for name in ["EM3D(write)", "Radix", "Barnes"] {
        assert!(
            outs[name].stats.per_proc.iter().all(|c| c.barriers >= 2),
            "{name} should synchronize with barriers"
        );
    }
}
