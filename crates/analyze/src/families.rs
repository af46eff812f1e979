//! The lint families introduced by analyzer v2, implemented over the
//! [`FileModel`] item tree rather than the raw
//! token stream.
//!
//! **`FLT…` — float determinism.** Float addition is non-associative, so
//! any reduction whose iteration order is not fixed makes the result — and
//! through the LogGP cost model, virtual time — depend on incidental
//! ordering. The same trap LLAMP's dependency-graph analysis controls for.
//!
//! **`TIM…` — sim-time hygiene.** Raw literals flowing into timer APIs are
//! unnamed protocol constants; mixed-unit arithmetic is how silent 1e3
//! errors happen.

use crate::itemtree::FileModel;
use crate::lexer::{match_delim, Tok, TokKind};
use crate::{Diagnostic, Scope};

/// Sim/`Ctx` APIs that accept a time argument. A literal-built
/// `SimDelta`/`SimTime` flowing straight into one of these (outside a
/// named const or `#[cfg(test)]`) trips `TIM001`.
const TIMER_APIS: &[&str] = &[
    "delay",
    "sleep_until",
    "schedule",
    "schedule_in",
    "idle_until",
    "lock_with_backoff",
    "with_time_limit",
];

/// The `SimTime`/`SimDelta` constructors whose literal arguments `TIM001`
/// looks for.
const TIME_CTORS: &[&str] = &[
    "from_nanos",
    "from_micros",
    "from_micros_int",
    "from_millis",
    "from_secs",
];

/// Closure-accepting registration/scheduling APIs whose bodies run on the
/// event loop, in event-arrival order (`FLT003` scope).
const HANDLER_APIS: &[&str] = &["register_handler", "schedule", "schedule_in"];

/// Unit extractors on `SimTime`/`SimDelta`, grouped by unit for `TIM002`.
/// The value is a unit rank; two extractors with different ranks combined
/// by `+ - < >` in one statement is mixed-unit arithmetic.
fn unit_rank(ident: &str) -> Option<u8> {
    match ident {
        "as_nanos" => Some(0),
        "as_micros" | "as_micros_f64" => Some(1),
        "as_millis_f64" => Some(2),
        "as_secs_f64" => Some(3),
        _ => None,
    }
}

/// Runs the `FLT`/`TIM` families applicable under `scope`.
pub fn lint_model(path: &str, model: &FileModel, scope: &Scope) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if scope.sim_visible {
        lint_float_sums(path, model, &mut diags);
        lint_partial_cmp(path, model, &mut diags);
        lint_handler_accumulation(path, model, &mut diags);
        lint_timer_literals(path, model, &mut diags);
        lint_mixed_units(path, model, &mut diags);
    }
    diags
}

/// `FLT001`: `.sum::<f64>()` (or an un-turbofished `.sum()` whose statement
/// is visibly float-typed), and `.fold(float, …+…)` reductions.
fn lint_float_sums(path: &str, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || model.in_test(i) {
            continue;
        }
        if toks[i].text == "sum" && i > 0 && toks[i - 1].text == "." {
            let float = if tok_text(toks, i + 1) == Some(":") {
                // Turbofish: `.sum::<T>()` — flag exactly the float types.
                matches!(tok_text(toks, i + 4), Some("f64") | Some("f32"))
            } else if tok_text(toks, i + 1) == Some("(") {
                // Bare `.sum()`: float only if the enclosing statement names
                // the type (`let s: f64 = …`). An integer sum can silence a
                // coincidental hit by annotating `.sum::<u64>()`. A field
                // access (`self.sum as f64`) is not a call and never matches.
                let stmt = stmt_bounds(toks, i);
                toks[stmt]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
            } else {
                false
            };
            if float {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: toks[i].line,
                    code: "FLT001",
                    message: "float `.sum()` — addition is non-associative, so the value \
                              depends on iteration order; sum a slice left-to-right via \
                              `nowlab_sim::ordered_sum` (or annotate an integer sum with \
                              its type, e.g. `.sum::<u64>()`)"
                        .to_string(),
                });
            }
        }
        if toks[i].text == "fold" && i > 0 && toks[i - 1].text == "." {
            let Some(open) = (tok_text(toks, i + 1) == Some("(")).then_some(i + 1) else {
                continue;
            };
            let close = match_delim(toks, open, "(", ")");
            // First argument = the accumulator seed, up to the first
            // top-level comma.
            let mut depth = 0i32;
            let mut seed_end = close;
            for (j, t) in toks.iter().enumerate().take(close).skip(open + 1) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        seed_end = j;
                        break;
                    }
                    _ => {}
                }
            }
            let float_seed = toks[open + 1..seed_end].iter().any(|t| {
                t.kind == TokKind::Float
                    || (t.kind == TokKind::Int
                        && (t.text.ends_with("f64") || t.text.ends_with("f32")))
            });
            let has_plus = toks[seed_end..close].iter().any(|t| t.text == "+");
            if float_seed && has_plus {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: toks[i].line,
                    code: "FLT001",
                    message: "float `fold(…, +)` — addition is non-associative, so the \
                              value depends on iteration order; sum a slice left-to-right \
                              via `nowlab_sim::ordered_sum`"
                        .to_string(),
                });
            }
        }
    }
}

/// `FLT002`: `partial_cmp` in sim-visible code (panics on NaN under
/// `.unwrap()`, input-dependent order under `sort_by`).
fn lint_partial_cmp(path: &str, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    for (i, t) in model.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "partial_cmp" && !model.in_test(i) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: t.line,
                code: "FLT002",
                message: "`partial_cmp` on floats — NaN makes the order partial and \
                          input-dependent; use `f64::total_cmp`, a deterministic total \
                          order over every bit pattern"
                    .to_string(),
            });
        }
    }
}

/// `FLT003`: `+=` float accumulation inside a closure passed to an event
/// registration/scheduling API — the accumulation happens in event-arrival
/// order.
fn lint_handler_accumulation(path: &str, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let toks = &model.toks;
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_reg = toks[i].kind == TokKind::Ident
            && HANDLER_APIS.contains(&toks[i].text.as_str())
            && toks[i + 1].text == "("
            && !model.in_test(i);
        if !is_reg {
            i += 1;
            continue;
        }
        let end = match_delim(toks, i + 1, "(", ")");
        for j in i + 2..end.saturating_sub(1) {
            if toks[j].text != "+" || toks[j + 1].text != "=" {
                continue;
            }
            // `+=` found: float evidence on the right-hand side up to the
            // end of the statement.
            let mut k = j + 2;
            let mut float = false;
            while k < end && toks[k].text != ";" {
                let t = &toks[k];
                float |= t.kind == TokKind::Float
                    || (t.kind == TokKind::Ident
                        && (t.text == "f64"
                            || t.text == "f32"
                            || t.text.ends_with("_f64")
                            || t.text.ends_with("_f32")));
                k += 1;
            }
            if float {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: toks[j].line,
                    code: "FLT003",
                    message: "float `+=` inside an event-loop closure accumulates in \
                              event-arrival order — accumulate integers (nanoseconds, \
                              counts) in handlers and convert to float at the reporting \
                              edge"
                        .to_string(),
                });
            }
        }
        i = end + 1;
    }
}

/// `TIM001`: a `SimTime`/`SimDelta` constructor with a literal argument
/// directly inside a timer-API call, outside named consts and tests.
fn lint_timer_literals(path: &str, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let toks = &model.toks;
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_timer = toks[i].kind == TokKind::Ident
            && TIMER_APIS.contains(&toks[i].text.as_str())
            && toks[i + 1].text == "("
            && !model.in_test(i)
            && !model.in_const(i);
        if !is_timer {
            i += 1;
            continue;
        }
        let end = match_delim(toks, i + 1, "(", ")");
        for j in i + 2..end {
            let literal_ctor = toks[j].kind == TokKind::Ident
                && TIME_CTORS.contains(&toks[j].text.as_str())
                && tok_text(toks, j + 1) == Some("(")
                && model
                    .toks
                    .get(j + 2)
                    .is_some_and(|t| matches!(t.kind, TokKind::Int | TokKind::Float));
            if literal_ctor {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: toks[j].line,
                    code: "TIM001",
                    message: format!(
                        "raw literal in `{}({}(…))` — an unnamed time constant at the \
                         call site; name it (`const …: SimDelta = …`) next to the other \
                         tunables so copies cannot drift and sweeps can find it",
                        toks[i].text, toks[j].text
                    ),
                });
            }
        }
        i = end + 1;
    }
}

/// `TIM002` (warning): two unit extractors of different units combined by
/// `+ - < >` within one statement (and not separated by a comma, which
/// would make them independent arguments).
fn lint_mixed_units(path: &str, model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let toks = &model.toks;
    let mut i = 0;
    while i < toks.len() {
        let stmt = stmt_bounds(toks, i);
        // Jump past the statement's trailing boundary token, so a statement
        // is scanned exactly once.
        let next = stmt.end + 1;
        // Collect (index, rank) of extractor calls in this statement.
        let extractors: Vec<(usize, u8)> = (stmt.start..stmt.end)
            .filter(|&j| !model.in_test(j))
            .filter_map(|j| {
                (toks[j].kind == TokKind::Ident
                    && j > 0
                    && toks[j - 1].text == "."
                    && tok_text(toks, j + 1) == Some("("))
                .then(|| unit_rank(&toks[j].text).map(|r| (j, r)))
                .flatten()
            })
            .collect();
        'pairs: for a in 0..extractors.len() {
            for b in a + 1..extractors.len() {
                let (ja, ra) = extractors[a];
                let (jb, rb) = extractors[b];
                if ra == rb {
                    continue;
                }
                let between = &toks[ja..jb];
                let operator = between
                    .iter()
                    .any(|t| matches!(t.text.as_str(), "+" | "-" | "<" | ">"));
                let comma = between.iter().any(|t| t.text == ",");
                if operator && !comma {
                    diags.push(Diagnostic {
                        path: path.to_string(),
                        line: toks[jb].line,
                        code: "TIM002",
                        message: format!(
                            "`{}` and `{}` mixed in one expression — different time \
                             units combined arithmetically is how silent 1e3 errors \
                             happen; convert both sides to one unit first, or stay in \
                             `SimDelta` (unit-safe integer nanoseconds)",
                            toks[ja].text, toks[jb].text
                        ),
                    });
                    break 'pairs;
                }
            }
        }
        i = next;
    }
}

fn tok_text(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

/// The token range of the statement containing `i`: delimited by `;`, `{`,
/// or `}` on both sides.
fn stmt_bounds(toks: &[Tok], i: usize) -> std::ops::Range<usize> {
    let is_boundary = |t: &Tok| matches!(t.text.as_str(), ";" | "{" | "}");
    let mut s = i;
    while s > 0 && !is_boundary(&toks[s - 1]) {
        s -= 1;
    }
    let mut e = i;
    while e < toks.len() && !is_boundary(&toks[e]) {
        e += 1;
    }
    s..e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn scope() -> Scope {
        Scope {
            sim_visible: true,
            ..Scope::default()
        }
    }

    fn codes(src: &str, sc: &Scope) -> Vec<&'static str> {
        let model = FileModel::parse(src);
        lint_model("t.rs", &model, sc)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn flt001_flags_float_sums_and_folds() {
        let sc = scope();
        assert_eq!(
            codes(
                "fn f(v: &V) -> f64 { v.iter().map(|c| c.x).sum::<f64>() }",
                &sc
            ),
            vec!["FLT001"]
        );
        // Un-turbofished sum in a float-ascribed statement.
        assert_eq!(
            codes("fn f(v: &V) { let s: f64 = v.iter().sum(); }", &sc),
            vec!["FLT001"]
        );
        assert_eq!(
            codes(
                "fn f(v: &V) -> f64 { v.iter().fold(0.0, |a, x| a + x) }",
                &sc
            ),
            vec!["FLT001"]
        );
        // Integer reductions and non-additive float folds are fine.
        for ok in [
            "fn f(v: &V) -> u64 { v.iter().sum::<u64>() }",
            "fn f(v: &V) { let s: u64 = v.iter().sum(); }",
            "fn f(v: &V) -> f64 { v.iter().fold(1.0, f64::max) }",
            "fn f(v: &V) -> SimDelta { v.iter().fold(SimDelta::ZERO, Add::add) }",
        ] {
            assert!(codes(ok, &sc).is_empty(), "{ok}");
        }
        // Test code is host-side.
        let t = "#[cfg(test)]\nmod tests { fn f(v: &V) -> f64 { v.iter().sum::<f64>() } }";
        assert!(codes(t, &sc).is_empty());
    }

    #[test]
    fn flt002_flags_partial_cmp() {
        let sc = scope();
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(codes(src, &sc), vec!["FLT002"]);
        let ok = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        assert!(codes(ok, &sc).is_empty());
    }

    #[test]
    fn flt003_flags_float_accumulation_in_handlers() {
        let sc = scope();
        let src = "fn f(c: &C) { c.register_handler(|ctx, st| { st.total += x as f64; }); }";
        assert_eq!(codes(src, &sc), vec!["FLT003"]);
        // Integer accumulation in a handler is the sanctioned pattern.
        let ok = "fn f(c: &C) { c.register_handler(|ctx, st| { st.total_ns += d.as_nanos(); }); }";
        assert!(codes(ok, &sc).is_empty());
        // Float accumulation outside any handler is FLT001/003-free.
        let outside = "fn f(st: &mut S) { st.total += x as f64; }";
        assert!(codes(outside, &sc).is_empty());
    }

    #[test]
    fn tim001_flags_literal_ctors_in_timer_calls() {
        let sc = scope();
        let src = "async fn f(s: &Sim) { s.delay(SimDelta::from_micros(1.0)).await; }";
        assert_eq!(codes(src, &sc), vec!["TIM001"]);
        let src2 = "fn f(c: &Ctx) { c.lock_with_backoff(g, SimDelta::from_micros(2.0), \
                    SimDelta::from_micros(64.0)); }";
        assert_eq!(codes(src2, &sc), vec!["TIM001", "TIM001"]);
        // A named constant is the sanctioned spelling, both at the
        // definition and at the call site.
        let ok = "const BACKOFF: SimDelta = SimDelta::from_micros_int(1);\n\
                  async fn f(s: &Sim) { s.delay(BACKOFF).await; }";
        assert!(codes(ok, &sc).is_empty());
        // Test code may hardcode.
        let t = "#[cfg(test)]\nmod tests { async fn f(s: &Sim) { \
                 s.delay(SimDelta::from_nanos(10)).await; } }";
        assert!(codes(t, &sc).is_empty());
        // A computed argument is not a raw literal.
        let computed = "async fn f(s: &Sim, us: f64) { s.delay(SimDelta::from_micros(us)).await; }";
        assert!(codes(computed, &sc).is_empty());
    }

    #[test]
    fn tim002_warns_on_mixed_unit_arithmetic() {
        let sc = scope();
        let src =
            "fn f(a: SimDelta, b: SimDelta) -> u64 { a.as_nanos() + b.as_micros_f64() as u64 }";
        let model = FileModel::parse(src);
        let diags = lint_model("t.rs", &model, &sc);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "TIM002");
        assert_eq!(diags[0].severity(), Severity::Warning);
        // Same unit: fine. Different units as separate arguments: fine.
        for ok in [
            "fn f(a: SimDelta, b: SimDelta) -> u64 { a.as_nanos() + b.as_nanos() }",
            "fn f(a: SimDelta, b: SimDelta) { g(a.as_nanos(), b.as_micros_f64()); }",
            "fn f(a: SimDelta, b: SimDelta) -> f64 { a.as_micros_f64() / b.as_secs_f64() }",
        ] {
            assert!(codes(ok, &sc).is_empty(), "{ok}");
        }
    }

    #[test]
    fn families_respect_sim_visibility() {
        let host = Scope::default();
        let src = "fn f(v: &V) -> f64 { v.iter().sum::<f64>() }\n\
                   fn g(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert!(codes(src, &host).is_empty());
    }
}
