//! The lint registry: one record per lint code, with its severity and
//! rationale.
//!
//! This is the single source of truth for what each code means. README's
//! two lint tables are asserted (by `tests/analyzer.rs`) to be
//! [`catalogue`] row for row, so the registry and the docs cannot drift
//! apart.

use crate::Severity;

/// Static metadata for one lint code.
#[derive(Clone, Copy, Debug)]
pub struct LintInfo {
    /// Stable code (`DET004`, `FLT001`, …).
    pub code: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary (the docs table).
    pub summary: &'static str,
    /// Why the rule exists and how to fix a finding.
    pub rationale: &'static str,
}

/// Every lint the analyzer can emit, in stable catalogue order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        code: "DET004",
        severity: Severity::Warning,
        summary: "wall-clock value flowing toward virtual time",
        rationale: "A value derived from a wall-clock read appears to flow into a \
                    SimTime/SimDelta computation. Usually a refactoring accident; route \
                    the value through the run boundary explicitly or delete it.",
    },
    LintInfo {
        code: "AMP001",
        severity: Severity::Error,
        summary: "AM handler issues a request (GAM acyclicity)",
        rationale: "Generic Active Messages forbid request handlers from issuing new \
                    requests: the request/reply discipline is what makes the protocol \
                    deadlock-free with bounded buffers. Handlers may only reply.",
    },
    LintInfo {
        code: "AMP002",
        severity: Severity::Error,
        summary: "re-hardcoded window depth / 4KB fragment size",
        rationale: "The GAM flow-control window (8) and fragment size (4096) are \
                    protocol constants named GAM_WINDOW / GAM_FRAG_BYTES in crates/am. \
                    Re-hardcoding the literal elsewhere lets the copies drift apart.",
    },
    LintInfo {
        code: "FLT001",
        severity: Severity::Error,
        summary: "unordered f64/f32 reduction (.sum / fold(+)) in sim-visible code",
        rationale: "Float addition is non-associative, so the value of .sum::<f64>() \
                    or fold(0.0, +) depends on iteration order. Over any container \
                    without a guaranteed order this silently breaks (program, seed) -> \
                    time. Sum via nowlab_sim::ordered_sum over a slice (fixed \
                    left-to-right order) or document the ordering with a named helper.",
    },
    LintInfo {
        code: "FLT002",
        severity: Severity::Error,
        summary: "partial_cmp on floats in sim-visible code",
        rationale: "partial_cmp().unwrap() panics on NaN and sort_by with partial_cmp \
                    gives an unstable, input-dependent order when NaN appears. Use \
                    f64::total_cmp, which is a total order and deterministic for every \
                    bit pattern.",
    },
    LintInfo {
        code: "FLT003",
        severity: Severity::Error,
        summary: "float accumulation inside an event handler closure",
        rationale: "A `+=` on a float inside a handler registered on the event loop \
                    accumulates in event-arrival order. That order is deterministic \
                    only per (program, seed); accumulate integers (nanoseconds, \
                    counts) in handlers and convert to floats at the reporting edge.",
    },
    LintInfo {
        code: "TIM001",
        severity: Severity::Error,
        summary: "raw literal flowing into a timer API outside a named const",
        rationale: "SimDelta::from_micros(2.0) written inline at a delay/schedule call \
                    site is an unnamed protocol constant: copies drift, and sweeps \
                    cannot find it. Name it (const BACKOFF: SimDelta = ...) next to \
                    the other tunables; #[cfg(test)] code is exempt.",
    },
    LintInfo {
        code: "TIM002",
        severity: Severity::Warning,
        summary: "mixed time-unit arithmetic in one expression",
        rationale: "Mixing as_nanos() with as_micros_f64()/as_millis_f64() operands in \
                    one expression is how silent unit bugs (off by 1e3) happen. \
                    Convert both sides to one unit first, or stay in SimDelta, whose \
                    arithmetic is unit-safe integer nanoseconds.",
    },
];

/// Codes the analyzer no longer emits, because the toolchain enforces
/// their rule with type resolution or visibility, each with the rule's
/// new home. [`catalogue`] lists them under the lints.
pub(crate) const MOVED: &[(&str, &str)] = &[
    (
        "DET001",
        "clippy.toml `disallowed-types`: HashMap, HashSet, RandomState",
    ),
    (
        "DET002",
        "clippy.toml `disallowed-types`: Instant, SystemTime",
    ),
    (
        "DET003",
        "clippy.toml `disallowed-methods`: env::var, env::var_os; \
         no dependency outside the workspace (crates/analyze/tests/manifests.rs)",
    ),
    (
        "SAFE001",
        "`[workspace.lints.rust] unsafe_code = \"deny\"`, inherited by every \
         member (crates/analyze/tests/manifests.rs)",
    ),
    (
        "AMP003",
        "clippy.toml `disallowed-types`, in every signature",
    ),
    (
        "MET001",
        "crates/analyze/tests/manifests.rs: metrics depends on {sim, trace} only",
    ),
    (
        "LAY001",
        "rustc: an undeclared crate does not resolve (crates/analyze/tests/manifests.rs)",
    ),
    (
        "LAY002",
        "crates/analyze/tests/manifests.rs: every member's [dependencies] vs the layer table",
    ),
    (
        "LAY003",
        "crates/analyze/tests/manifests.rs: apps' [dependencies] stop at splitc",
    ),
    (
        "PAR001",
        "clippy.toml `disallowed-types`/`disallowed-methods`: locks, atomics, \
         channels, std::thread; the sweep pool and the sim wake log under #[expect]",
    ),
    (
        "AMP004",
        "visibility: detector state, tunables and hb_jitter are pub(crate) in crates/am",
    ),
];

/// README's two lint tables: the lints the analyzer checks, then the
/// codes that moved and where each now lives.
pub fn catalogue() -> String {
    let mut out = String::from("| code | severity | meaning |\n|---|---|---|\n");
    for l in LINTS {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            l.code, l.severity, l.summary
        ));
    }
    out.push_str("\n| moved | now enforced by |\n|---|---|\n");
    for (code, home) in MOVED {
        out.push_str(&format!("| `{code}` | {home} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(LINTS.len(), 8);
        assert_eq!(MOVED.len(), 11);
        let mut codes: Vec<&str> = LINTS.iter().map(|l| l.code).collect();
        codes.extend(MOVED.iter().map(|(c, _)| *c));
        let n = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate lint codes");
        // Exactly two advisory lints; everything else fails the workspace
        // test.
        let warnings: Vec<&str> = LINTS
            .iter()
            .filter(|l| l.severity == Severity::Warning)
            .map(|l| l.code)
            .collect();
        assert_eq!(warnings, ["DET004", "TIM002"]);
    }

    #[test]
    fn catalogue_lists_every_code() {
        let all = catalogue();
        for code in LINTS
            .iter()
            .map(|l| l.code)
            .chain(MOVED.iter().map(|(c, _)| *c))
        {
            assert!(all.contains(&format!("| `{code}` |")), "{code} missing");
        }
    }
}
