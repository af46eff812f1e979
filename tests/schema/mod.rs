//! The report schemas (`schemas/*.json`) as a check over the tree
//! `nowlab report` reads. It implements exactly the keywords the two
//! schemas use — `type` (a name or a list), `required`, `properties`,
//! `items`, `enum`, `minimum` and `minItems` — and refuses any other, so a
//! schema edit cannot add a rule that nothing checks. `$comment` is prose.
//! An `integer` is a JSON number with no fraction or exponent, and an
//! `array` is either form the parser builds.

use std::borrow::Cow;

use nowlab::metrics::json::{parse, Value};

pub const METRICS: &str = include_str!("../../schemas/metrics_report.schema.json");
pub const PREDICT: &str = include_str!("../../schemas/predict_report.schema.json");

const KEYWORDS: [&str; 8] = [
    "$comment",
    "type",
    "required",
    "properties",
    "items",
    "enum",
    "minimum",
    "minItems",
];
/// `integer` before `number`, so an error names the narrower type.
const TYPES: [&str; 7] = [
    "object", "array", "string", "integer", "number", "boolean", "null",
];

/// Every way `report` breaks `schema`, one line each: empty if it conforms.
pub fn violations(schema: &str, report: &str) -> Vec<String> {
    let schema = parse(schema).expect("the schema is JSON");
    let mut errors = Vec::new();
    keywords(&schema, "$", &mut errors);
    match parse(report) {
        Ok(report) => check(&report, &schema, "$", &mut errors),
        Err(e) => errors.push(format!("not JSON: {e}")),
    }
    errors
}

/// Refuses, anywhere in the schema, a keyword [`check`] does not implement.
fn keywords(schema: &Value, at: &str, errors: &mut Vec<String>) {
    let Value::Obj(members) = schema else { return };
    for (key, sub) in members {
        match (key.as_str(), sub) {
            ("properties", Value::Obj(props)) => {
                for (name, p) in props {
                    keywords(p, &format!("{at}.{name}"), errors);
                }
            }
            ("items", _) => keywords(sub, &format!("{at}[]"), errors),
            (k, _) if KEYWORDS.contains(&k) => {}
            (k, _) => errors.push(format!("schema {at}: unsupported keyword `{k}`")),
        }
    }
}

/// The elements of an array of either form.
fn elements(v: &Value) -> Option<Vec<Cow<'_, Value>>> {
    match v {
        Value::Ints(is) => Some(is.iter().map(|&i| Cow::Owned(Value::Int(i))).collect()),
        Value::Arr(items) => Some(items.iter().map(Cow::Borrowed).collect()),
        _ => None,
    }
}

fn is_type(v: &Value, name: &str) -> bool {
    match name {
        "object" => matches!(v, Value::Obj(_)),
        "array" => matches!(v, Value::Ints(_) | Value::Arr(_)),
        "string" => matches!(v, Value::Str(_)),
        "integer" => matches!(v, Value::Int(_)),
        "number" => matches!(v, Value::Int(_) | Value::Float(_)),
        "boolean" => matches!(v, Value::Bool(_)),
        "null" => matches!(v, Value::Null),
        _ => false,
    }
}

fn check(v: &Value, schema: &Value, at: &str, errors: &mut Vec<String>) {
    if let Some(t) = schema.get("type") {
        let wanted: Vec<&str> = match t.as_arr() {
            Some(names) => names.iter().filter_map(Value::as_str).collect(),
            None => t.as_str().into_iter().collect(),
        };
        if !wanted.iter().any(|n| is_type(v, n)) {
            let got = TYPES
                .iter()
                .find(|n| is_type(v, n))
                .expect("every value has a type");
            errors.push(format!("{at}: expected {wanted:?}, got {got}"));
            return;
        }
    }
    if let Some(labels) = schema.get("enum").and_then(elements) {
        if !labels.iter().any(|l| **l == *v) {
            errors.push(format!("{at}: {v:?} is not in the enum"));
        }
    }
    if let (Some(x), Some(min)) = (v.as_f64(), schema.get("minimum").and_then(Value::as_f64)) {
        if x < min {
            errors.push(format!("{at}: {x} is below the minimum {min}"));
        }
    }
    if let Value::Obj(_) = v {
        for key in schema
            .get("required")
            .and_then(Value::as_arr)
            .unwrap_or_default()
        {
            let key = key.as_str().expect("a required key is a string");
            if v.get(key).is_none() {
                errors.push(format!("{at}: missing required key `{key}`"));
            }
        }
        if let Some(Value::Obj(props)) = schema.get("properties") {
            for (key, sub) in props {
                if let Some(x) = v.get(key) {
                    check(x, sub, &format!("{at}.{key}"), errors);
                }
            }
        }
    }
    let Some(items) = elements(v) else { return };
    if let Some(min) = schema.get("minItems").and_then(Value::as_u64) {
        if (items.len() as u64) < min {
            errors.push(format!("{at}: {} items, fewer than {min}", items.len()));
        }
    }
    if let Some(sub) = schema.get("items") {
        for (i, x) in items.iter().enumerate() {
            check(x, sub, &format!("{at}[{i}]"), errors);
        }
    }
}
