//! The benchmark's vocabulary, read from `BENCHMARK.json` at the repo
//! root: workload names with their reasons, and every metric's name, unit,
//! direction and (end to end) regression bound. That file is the only
//! place they are written down; it is compiled in, so the harness binary
//! needs no file beside it.

use nowlab_metrics::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the contract.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// A workload's name and the reason it is in the set.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// `BENCHMARK.json`, as far as the harness reads it.
#[derive(Clone, Debug)]
pub struct Contract {
    /// In the order `run.sh` runs them.
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// The file is not JSON or lacks a key the harness needs.
    pub fn load() -> Result<Self, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json lacks the list `{key}`"))
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|v| {
                    Ok(MetricDef {
                        name: text(v, "name")?,
                        unit: text(v, "unit")?,
                        better: match text(v, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better `{other}`")),
                        },
                        bound: v.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|v| {
                    Ok(Workload {
                        name: text(v, "name")?,
                        why: text(v, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn workload(&self, name: &str) -> Result<&Workload, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let c = Contract::load().expect("BENCHMARK.json loads");
        let metrics: Vec<&MetricDef> = c.end_to_end.iter().chain(&c.per_layer).collect();
        let names: Vec<&str> = metrics
            .iter()
            .map(|m| m.name.as_str())
            .chain(c.workloads.iter().map(|w| w.name.as_str()))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad name `{name}`");
            assert_eq!(
                names.iter().filter(|o| o == &name).count(),
                1,
                "`{name}` is used twice"
            );
        }
        for m in &metrics {
            assert!(valid_unit(&m.unit), "bad unit `{}` on {}", m.unit, m.name);
        }
        for w in &c.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name("has space") && !valid_name(".dot") && !valid_name(""));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
    }

    #[test]
    fn bounds_follow_the_contract() {
        let c = Contract::load().expect("BENCHMARK.json loads");
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
