//! The checked-in report goldens hold to the checked-in schemas, whose
//! label enums are the cost vocabulary's views (DESIGN.md §9), and the
//! schema check rejects each kind of violation it can report. The reports
//! the CLI writes are checked in `tests/cli.rs`.

mod schema;

use schema::{violations, METRICS, PREDICT};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_report_golden_conforms_to_its_schema() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let (mut metrics, mut predict) = (0, 0);
    for entry in std::fs::read_dir(dir).expect("tests/golden") {
        let name = entry.expect("a directory entry").file_name();
        let name = name.to_str().expect("an ASCII name");
        let schema = if name.ends_with(".metrics.json") {
            metrics += 1;
            METRICS
        } else if name.starts_with("predict_") && name.ends_with(".json") {
            predict += 1;
            PREDICT
        } else {
            continue;
        };
        let errors = violations(schema, &golden(name));
        assert!(errors.is_empty(), "{name}: {errors:#?}");
    }
    assert!(
        metrics > 0 && predict > 0,
        "{metrics} metrics, {predict} predict goldens"
    );
}

/// The violations of golden `name` with its first `from` replaced by `to`.
/// The golden itself conforms, so each one is the edit's.
fn edited(schema: &str, name: &str, from: &str, to: &str) -> Vec<String> {
    let text = golden(name);
    assert_eq!(violations(schema, &text), Vec::<String>::new(), "{name}");
    assert!(text.contains(from), "{name} has no `{from}`");
    violations(schema, &text.replacen(from, to, 1))
}

fn assert_reports(errors: &[String], wanted: &str) {
    assert!(
        errors.iter().any(|e| e.contains(wanted)),
        "no `{wanted}` in {errors:#?}"
    );
}

#[test]
fn a_value_of_the_wrong_type_is_a_violation() {
    let errors = edited(
        METRICS,
        "observe_radix.metrics.json",
        r#""procs":8,"#,
        r#""procs":"8","#,
    );
    assert_reports(&errors, r#"$.procs: expected ["integer"], got string"#);
}

#[test]
fn a_missing_required_key_is_a_violation() {
    let errors = edited(
        METRICS,
        "observe_radix.metrics.json",
        r#""kind":"run","#,
        "",
    );
    assert_reports(&errors, "$: missing required key `kind`");
}

#[test]
fn a_label_outside_its_enum_is_a_violation() {
    let errors = edited(
        PREDICT,
        "predict_em3d_write_p8.json",
        r#"{"name":"tx_wait""#,
        r#"{"name":"tx_gap""#,
    );
    assert_reports(&errors, "$.critical_path.buckets[4].name: ");
}

#[test]
fn a_value_below_its_minimum_is_a_violation() {
    let errors = edited(
        METRICS,
        "observe_radix.metrics.json",
        r#""procs":8,"#,
        r#""procs":0,"#,
    );
    assert_reports(&errors, "$.procs: 0 is below the minimum 1");
}

#[test]
fn too_few_items_is_a_violation() {
    let errors = edited(
        METRICS,
        "sweep_radix_overhead.metrics.json",
        r#""states":["compute","#,
        r#""states":["#,
    );
    assert_reports(&errors, "$.states: 6 items, fewer than 7");
}

/// A keyword the check does not implement is refused wherever the schema
/// puts it, even under a property the report does not have.
#[test]
fn a_schema_keyword_the_check_does_not_implement_is_refused() {
    let procs = r#""procs": { "type": "integer", "minimum": 1 }"#;
    assert!(METRICS.contains(procs));
    let schema = METRICS.replacen(procs, r#""procs": { "type": "integer", "maximum": 64 }"#, 1);
    let errors = violations(&schema, &golden("observe_radix.metrics.json"));
    assert_reports(&errors, "schema $.procs: unsupported keyword `maximum`");
    let absent = METRICS.replacen(
        r#""axis": { "type": "string" }"#,
        r#""axis": { "pattern": "." }"#,
        1,
    );
    let errors = violations(&absent, &golden("observe_radix.metrics.json"));
    assert_reports(&errors, "schema $.axis: unsupported keyword `pattern`");
}
