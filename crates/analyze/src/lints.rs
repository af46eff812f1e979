//! The token-level lints.
//!
//! **Determinism (`DET004`).** Virtual time in `nowlab` must be a pure
//! function of (program, seed). Hash collections, wall clocks,
//! environment reads, threads, locks and atomics are banned by the root
//! `clippy.toml`; what is left here is what clippy cannot name: a
//! wall-clock value flowing toward virtual time.
//!
//! **AM protocol (`AMP…`).** The GAM rules the paper's apparatus relies
//! on: request/reply acyclicity in handlers and single named constants
//! for the flow-control window and fragment size. (Membership and
//! failure-detector state is private to `crates/am`, so the compiler
//! confines it.)

use crate::itemtree::FileModel;
use crate::lexer::{match_delim, Tok, TokKind};
use crate::{Diagnostic, Scope};

/// Wall-clock-to-duration conversions that feed virtual time (heuristic).
const WALL_FLOW_IDENTS: &[&str] = &["UNIX_EPOCH", "duration_since"];
/// Port calls a reply handler must never make (GAM request/reply
/// acyclicity: reply handlers run on the reply path and issuing a request
/// from one can deadlock the flow-control window).
const HANDLER_FORBIDDEN_CALLS: &[&str] = &["request", "post", "post_bulk", "inject"];

/// Runs every token-level lint applicable under `scope` over a parsed
/// [`FileModel`]. Test exemption comes from the item tree's exact
/// `#[cfg(test)]` attribute tracking.
pub(crate) fn lint_model(path: &str, model: &FileModel, scope: &Scope) -> Vec<Diagnostic> {
    let toks = &model.toks;
    let in_test = |i: usize| model.in_test(i);
    let mut diags = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        if scope.sim_visible && WALL_FLOW_IDENTS.contains(&name) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: t.line,
                code: "DET004",
                message: format!(
                    "`{name}` suggests a wall-clock value flowing toward `SimTime`/\
                     `SimDelta` — virtual time must be derived only from simulated events",
                ),
            });
        }
    }

    // AMP001: handler closures passed to `register_handler` must not issue
    // requests (they run synchronously on the destination's reply path).
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].text == "register_handler" && toks[i + 1].text == "(" && !in_test(i) {
            let end = match_delim(toks, i + 1, "(", ")");
            for j in (i + 2)..end {
                if toks[j].kind == TokKind::Ident
                    && HANDLER_FORBIDDEN_CALLS.contains(&toks[j].text.as_str())
                    && j > 0
                    && toks[j - 1].text == "."
                {
                    diags.push(Diagnostic {
                        path: path.to_string(),
                        line: toks[j].line,
                        code: "AMP001",
                        message: format!(
                            "handler issues `.{}(…)` — GAM reply handlers must not send \
                             requests (request/reply acyclicity; risks window deadlock)",
                            toks[j].text,
                        ),
                    });
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }

    // AMP002: inside the AM layer the fragment size and flow-control window
    // must be spelled via the named constants, not re-hardcoded.
    if scope.am_layer {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Int || in_test(i) || near_const_definition(toks, i) {
                continue;
            }
            let val = t.int_value();
            if val == Some(4096) {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: t.line,
                    code: "AMP002",
                    message: "re-hardcoded 4KB fragment size — reference `GAM_FRAG_BYTES` \
                              so the protocol constant has a single definition"
                        .to_string(),
                });
            }
            let window_literal = i >= 2
                && ((toks[i - 2].text == "window" && toks[i - 1].text == ":")
                    || (toks[i - 2].text == "with_window" && toks[i - 1].text == "("));
            if window_literal {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: t.line,
                    code: "AMP002",
                    message: "re-hardcoded flow-control window depth — reference \
                              `GAM_WINDOW` so the protocol constant has a single definition"
                        .to_string(),
                });
            }
        }
    }

    diags
}

/// True if an enclosing `const` definition sits within a few tokens before
/// `i` (the single allowed spelling of a protocol constant).
fn near_const_definition(toks: &[Tok], i: usize) -> bool {
    toks[i.saturating_sub(8)..i]
        .iter()
        .any(|t| t.text == "const")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn sim_scope() -> Scope {
        Scope {
            sim_visible: true,
            am_layer: false,
        }
    }

    fn codes(src: &str, scope: &Scope) -> Vec<&'static str> {
        lint_model("t.rs", &FileModel::parse(src), scope)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn handler_request_flagged_only_inside_registration() {
        let src = "fn g(c: &C) { c.register_handler(|ctx| { ctx.port.request(0); Reply::ack() }); \
                   c.port.request(1); }";
        assert_eq!(codes(src, &sim_scope()), vec!["AMP001"]);
    }

    #[test]
    fn am_layer_literals_flagged_except_const_definitions() {
        let mut scope = sim_scope();
        scope.am_layer = true;
        let src = "pub const GAM_FRAG_BYTES: u32 = 4096;\nfn f() { let frag = 4096; }\n\
                   fn g() -> C { C { window: 8 } }\nfn h(c: C) { c.with_window(8); }";
        assert_eq!(codes(src, &scope), vec!["AMP002", "AMP002", "AMP002"]);
        // Outside the AM layer the same literals are application data.
        assert!(codes("fn f() { let half = 4096; }", &sim_scope()).is_empty());
    }

    #[test]
    fn wall_flow_heuristic_is_a_warning() {
        let src = "fn f(a: T, b: T) -> D { a.duration_since(b) }";
        let d = lint_model("t.rs", &FileModel::parse(src), &sim_scope());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "DET004");
        assert_eq!(d[0].severity(), Severity::Warning);
    }
}
