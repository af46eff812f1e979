//! The token-level lints.
//!
//! **Determinism (`DET004`, `PAR001`).** Virtual time in `nowlab` must be
//! a pure function of (program, seed). Hash collections, wall clocks and
//! environment reads are banned by the root `clippy.toml`; what is left
//! here is what clippy cannot name: a wall-clock value flowing toward
//! virtual time, and threads or locks below the run boundary.
//!
//! **AM protocol (`AMP…`).** The GAM rules the paper's apparatus relies
//! on: request/reply acyclicity in handlers, single named constants for
//! the flow-control window and fragment size, and membership/failure-
//! detector state confined to `crates/am`.

use crate::itemtree::FileModel;
use crate::lexer::{match_delim, Tok, TokKind};
use crate::{Diagnostic, Scope};

/// Wall-clock-to-duration conversions that feed virtual time (heuristic).
const WALL_FLOW_IDENTS: &[&str] = &["UNIX_EPOCH", "duration_since"];
/// Port calls a reply handler must never make (GAM request/reply
/// acyclicity: reply handlers run on the reply path and issuing a request
/// from one can deadlock the flow-control window).
const HANDLER_FORBIDDEN_CALLS: &[&str] = &["request", "post", "post_bulk", "inject"];
/// The failure detector's vocabulary: membership tables, the status enum,
/// the death-escalation transition, and the raw detector tuning fields.
/// All of it lives in `crates/am`; every other layer observes membership
/// only through the port accessors (`peer_dead`, `peers_alive`,
/// `alive_count`, `death_note`) and configures the detector only through
/// `NodeFaultPlan::with_detector`. A second copy of membership state
/// outside the AM layer could disagree with the authoritative one.
const MEMBERSHIP_IDENTS: &[&str] = &[
    "PeerStatus",
    "peer_status",
    "last_heard",
    "escalate_peer_death",
    "hb_period",
    "suspect_after",
    "confirm_after",
    "hb_jitter",
];
/// Thread/lock/atomic primitives reserved for the orchestration layer.
/// (`Arc` is absent: it is a legitimate shared-ownership type; what must
/// not leak below the run boundary is blocking/synchronizing machinery.)
const PAR_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc",
    "AtomicUsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicBool",
    "AtomicI32",
    "AtomicI64",
    "available_parallelism",
];

/// Runs every token-level lint applicable under `scope` over `source`.
/// Convenience wrapper around [`lint_model`] for one-off sources; the
/// workspace scan parses each file once and shares the [`FileModel`] with
/// the [`families`](crate::families) pass.
pub fn lint_source(path: &str, source: &str, scope: &Scope) -> Vec<Diagnostic> {
    lint_model(path, &FileModel::parse(source), scope)
}

/// Runs every token-level lint applicable under `scope` over a parsed
/// [`FileModel`]. Test exemption comes from the item tree's exact
/// `#[cfg(test)]` attribute tracking.
pub fn lint_model(path: &str, model: &FileModel, scope: &Scope) -> Vec<Diagnostic> {
    let toks = &model.toks;
    let in_test = |i: usize| model.in_test(i);
    let mut diags = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        if !scope.parallel_ok {
            // `thread` as a path segment (`std::thread::spawn`, `thread::scope`)
            // or any lock/atomic type: parallelism below the run boundary
            // would let host scheduling perturb virtual time.
            let thread_path = name == "thread"
                && i + 2 < toks.len()
                && toks[i + 1].text == ":"
                && toks[i + 2].text == ":";
            if PAR_IDENTS.contains(&name) || thread_path {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: t.line,
                    code: "PAR001",
                    message: format!(
                        "`{name}` outside the orchestration layer — simulations are \
                         single-threaded; threads/locks belong only in the run-boundary \
                         pool (crates/core::sweep, src/bin)",
                    ),
                });
            }
        }
        if scope.sim_visible && !scope.am_layer && MEMBERSHIP_IDENTS.contains(&name) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: t.line,
                code: "AMP004",
                message: format!(
                    "`{name}` outside `crates/am` — membership/detector state has a \
                     single home in the AM layer; observe it via the port accessors \
                     (`peer_dead`, `peers_alive`, `alive_count`, `death_note`) and \
                     tune it via `NodeFaultPlan::with_detector`",
                ),
            });
        }
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
            parallel_ok: false,
        }
    }

    fn codes(src: &str, scope: &Scope) -> Vec<&'static str> {
        lint_source("t.rs", src, scope)
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
    fn membership_state_confined_to_the_am_layer() {
        // Splitc/apps/core code naming detector internals is a second
        // membership implementation waiting to diverge.
        let src = "fn f(c: &C) { if c.peer_status[1] == PeerStatus::Dead { \
                   c.last_heard[1] = t; } }";
        assert_eq!(codes(src, &sim_scope()), vec!["AMP004", "AMP004", "AMP004"]);
        // Inside the AM layer the same identifiers are the implementation.
        let mut am = sim_scope();
        am.am_layer = true;
        assert!(codes(src, &am).is_empty());
        // The sanctioned observation surface stays clean everywhere.
        let port = "async fn g(ctx: &Ctx) { if !ctx.peer_dead(1) { \
                    let n = ctx.alive_count(); let v = ctx.peers_alive(); } }";
        assert!(codes(port, &sim_scope()).is_empty());
        // Host-side test modules may poke detector state freely.
        let test_only = "#[cfg(test)]\nmod tests { fn t(p: &P) { p.last_heard(); } }";
        assert!(codes(test_only, &sim_scope()).is_empty());
    }

    #[test]
    fn thread_and_lock_primitives_flagged_outside_orchestration() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); \
                   std::thread::spawn(|| {}); }";
        assert_eq!(codes(src, &sim_scope()), vec!["PAR001", "PAR001"]);
        let mut pool_scope = sim_scope();
        pool_scope.parallel_ok = true;
        assert!(codes(src, &pool_scope).is_empty());
        // `thread` not followed by `::` (a local name) is not a violation,
        // and neither is `Arc` (shared ownership, not synchronization).
        let benign = "fn f(thread: u32) -> u32 { let a = Arc::new(thread); *a }";
        assert!(codes(benign, &sim_scope()).is_empty());
    }

    #[test]
    fn wall_flow_heuristic_is_a_warning() {
        let d = lint_source(
            "t.rs",
            "fn f(a: T, b: T) -> D { a.duration_since(b) }",
            &sim_scope(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "DET004");
        assert_eq!(d[0].severity(), Severity::Warning);
    }
}
