//! A lightweight item tree over the token stream.
//!
//! `FileModel` is the program model the lints run against: a recursive-
//! descent pass over the [`lexer`](crate::lexer) output that recognizes the
//! item kinds the analysis needs — modules, `fn`/`impl` signatures, and
//! `const`/`static` items — and records, for every token index, whether it
//! sits inside `#[cfg(test)]` code or inside a constant definition. This is
//! what lets the lints be *scope-resolved* instead of matching bare
//! identifiers: a literal inside a named `const` is a sanctioned time
//! constant, and test code is host-side.
//!
//! The parser is deliberately forgiving: unknown constructs are skipped
//! token by token, so macro-heavy or exotic code degrades to "no items
//! recognized here" rather than an error. All ranges are token-index
//! ranges into `FileModel::toks`.

use std::ops::Range;

use crate::lexer::{lex, match_delim, Tok, TokKind};

/// A `mod` declaration, inline (`mod x { … }`) or outline (`mod x;`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ModDecl {
    /// Module name.
    pub name: String,
    /// 1-based line of the `mod` keyword.
    pub line: u32,
    /// True for `mod x { … }`, false for `mod x;`.
    pub inline: bool,
    /// Enclosing module path within the file (empty at file scope).
    pub parent: Vec<String>,
}

/// A function item (free function or method).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True for `async fn`.
    pub is_async: bool,
    /// Token range of the signature: from `fn` to the body `{` or `;`
    /// (exclusive).
    pub sig: Range<usize>,
    /// Token range of the body including braces, if the fn has one.
    pub body: Option<Range<usize>>,
    /// True if the fn sits inside `#[cfg(test)]` code.
    pub in_test: bool,
}

/// A `const` or `static` item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ConstItem {
    /// Item name.
    pub name: String,
    /// 1-based line of the `const`/`static` keyword.
    pub line: u32,
    /// Token range of the whole item, keyword through `;` (inclusive).
    pub range: Range<usize>,
}

/// An `impl` block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ImplDecl {
    /// The implemented-for type name (last path segment; heuristic).
    pub self_ty: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token range of the block body including braces.
    pub body: Range<usize>,
}

/// The parsed model of one source file: token stream plus item tree.
#[derive(Clone, Debug, Default)]
pub(crate) struct FileModel {
    /// The token stream the item ranges index into.
    pub toks: Vec<Tok>,
    /// Module declarations, in source order.
    pub mods: Vec<ModDecl>,
    /// Function items (free and methods), in source order.
    pub fns: Vec<FnItem>,
    /// `const`/`static` items, in source order.
    pub consts: Vec<ConstItem>,
    /// `impl` block headers, in source order.
    pub impls: Vec<ImplDecl>,
    test_ranges: Vec<Range<usize>>,
}

impl FileModel {
    /// Lexes and parses `source`.
    pub(crate) fn parse(source: &str) -> FileModel {
        let toks = lex(source);
        let mut model = FileModel {
            toks,
            ..FileModel::default()
        };
        let end = model.toks.len();
        let mut parser = Parser {
            model: &mut model,
            in_test: false,
            mod_path: Vec::new(),
        };
        parser.walk(0, end);
        model
    }

    /// True if token `idx` sits inside `#[cfg(test)]` code.
    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&idx))
    }

    /// True if token `idx` sits inside a `const`/`static` item (the one
    /// sanctioned home for raw time literals).
    pub(crate) fn in_const(&self, idx: usize) -> bool {
        self.consts.iter().any(|c| c.range.contains(&idx))
    }
}

struct Parser<'a> {
    model: &'a mut FileModel,
    in_test: bool,
    mod_path: Vec<String>,
}

impl Parser<'_> {
    /// Walks tokens in `[from, to)`, recording items. Recurses into inline
    /// modules, impl blocks, and fn bodies (for nested consts/fns).
    fn walk(&mut self, from: usize, to: usize) {
        let mut i = from;
        let mut pending_test = false;
        while i < to {
            let text = self.model.toks[i].text.clone();
            let kind = self.model.toks[i].kind;
            // Outer attribute: scan for cfg(test); inner attributes (`#![…]`)
            // are skipped without affecting the pending flag.
            if text == "#" {
                let inner = self.tok_text(i + 1) == Some("!");
                let open = if inner { i + 2 } else { i + 1 };
                if self.tok_text(open) == Some("[") {
                    let close = match_delim(&self.model.toks[..to], open, "[", "]");
                    if !inner && self.is_cfg_test(open, close) {
                        pending_test = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            if kind == TokKind::Ident {
                match text.as_str() {
                    "mod" if self.is_mod_item(i) => {
                        i = self.parse_mod(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    "use" => {
                        i = self.parse_use(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    "const" | "static" if self.is_const_item(i) => {
                        i = self.parse_const(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    "fn" if self.is_fn_item(i) => {
                        i = self.parse_fn(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    "impl" if !self.prev_is_path_or_field(i) => {
                        i = self.parse_impl(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    "struct" | "enum" | "trait" | "union" | "type"
                        if !self.prev_is_path_or_field(i) =>
                    {
                        i = self.skip_item(i, to, pending_test);
                        pending_test = false;
                        continue;
                    }
                    _ => {}
                }
            }
            // Any other token: if it opens a brace belonging to an item we
            // did not recognize, just step over it token by token — the
            // walk is resilient to anything the grammar above missed.
            i += 1;
            if !matches!(text.as_str(), "#") {
                pending_test = pending_test
                    && matches!(
                        text.as_str(),
                        "pub"
                            | "("
                            | ")"
                            | "crate"
                            | "super"
                            | "in"
                            | "unsafe"
                            | "async"
                            | "extern"
                    );
            }
        }
    }

    fn tok_text(&self, i: usize) -> Option<&str> {
        self.model.toks.get(i).map(|t| t.text.as_str())
    }

    fn is_cfg_test(&self, open: usize, close: usize) -> bool {
        // `#[cfg(test)]` exactly: cfg ( test )
        self.tok_text(open + 1) == Some("cfg")
            && self.tok_text(open + 2) == Some("(")
            && self.tok_text(open + 3) == Some("test")
            && self.tok_text(open + 4) == Some(")")
            && open + 5 == close
    }

    fn is_mod_item(&self, i: usize) -> bool {
        // `mod name {` or `mod name ;` — not a path segment like `self::mod`
        // (not valid Rust anyway) or a raw-ident false positive.
        matches!(
            (self.tok_kind(i + 1), self.tok_text(i + 2)),
            (Some(TokKind::Ident), Some("{") | Some(";"))
        ) && !self.prev_is_path_or_field(i)
    }

    fn is_const_item(&self, i: usize) -> bool {
        // `const NAME :` / `static NAME :` / `static mut NAME :` /
        // `const fn` is handled by the fn grammar, `*const T` and
        // `&'static str` must not match.
        if self.prev_is_path_or_field(i) || self.tok_text(i.wrapping_sub(1)) == Some("*") {
            return false;
        }
        if self.tok_text(i) == Some("static") && self.tok_text(i + 1) == Some("mut") {
            return self.tok_kind(i + 2) == Some(TokKind::Ident)
                && self.tok_text(i + 3) == Some(":");
        }
        self.tok_kind(i + 1) == Some(TokKind::Ident) && self.tok_text(i + 2) == Some(":")
    }

    fn is_fn_item(&self, i: usize) -> bool {
        // `fn name` — not a fn-pointer type `fn(u32)` and not `Fn`-trait
        // sugar (different ident).
        self.tok_kind(i + 1) == Some(TokKind::Ident) && !self.prev_is_path_or_field(i)
    }

    fn tok_kind(&self, i: usize) -> Option<TokKind> {
        self.model.toks.get(i).map(|t| t.kind)
    }

    fn prev_is_path_or_field(&self, i: usize) -> bool {
        i > 0 && matches!(self.tok_text(i - 1), Some(":") | Some("."))
    }

    fn parse_mod(&mut self, i: usize, to: usize, test: bool) -> usize {
        let name = self.model.toks[i + 1].text.clone();
        let line = self.model.toks[i].line;
        let inline = self.tok_text(i + 2) == Some("{");
        self.model.mods.push(ModDecl {
            name: name.clone(),
            line,
            inline,
            parent: self.mod_path.clone(),
        });
        if !inline {
            return i + 3; // past `;`
        }
        let close = match_delim(&self.model.toks[..to], i + 2, "{", "}");
        let was_test = self.in_test;
        if test {
            self.model.test_ranges.push(i..close + 1);
            self.in_test = true;
        }
        self.mod_path.push(name);
        self.walk(i + 3, close);
        self.mod_path.pop();
        self.in_test = was_test;
        close + 1
    }

    /// Steps over a `use` item (to its `;`), recording its test extent.
    fn parse_use(&mut self, i: usize, to: usize, test: bool) -> usize {
        let mut j = i + 1;
        while j < to && self.model.toks[j].text != ";" {
            j += 1;
        }
        if test {
            self.model.test_ranges.push(i..j + 1);
        }
        j + 1
    }

    fn parse_const(&mut self, i: usize, to: usize, test: bool) -> usize {
        let name_idx = if self.tok_text(i + 1) == Some("mut") {
            i + 2
        } else {
            i + 1
        };
        let name = self.model.toks[name_idx].text.clone();
        let line = self.model.toks[i].line;
        // The item runs to the terminating `;` at bracket depth 0 (array
        // types and initializer expressions may contain nested brackets).
        let mut depth = 0i32;
        let mut j = name_idx + 1;
        while j < to {
            match self.model.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if test {
            self.model.test_ranges.push(i..j + 1);
        }
        self.model.consts.push(ConstItem {
            name,
            line,
            range: i..j + 1,
        });
        j + 1
    }

    fn parse_fn(&mut self, i: usize, to: usize, test: bool) -> usize {
        let name = self.model.toks[i + 1].text.clone();
        let line = self.model.toks[i].line;
        // Qualifiers sit immediately before `fn`: pub / pub(...) / const /
        // async / unsafe / extern "abi".
        let mut is_pub = false;
        let mut is_async = false;
        let mut k = i;
        while k > 0 {
            match self.tok_text(k - 1) {
                Some("async") => {
                    is_async = true;
                    k -= 1;
                }
                Some("const") | Some("unsafe") | Some("extern") => k -= 1,
                Some("pub") => {
                    is_pub = true;
                    k -= 1;
                }
                Some(")") => {
                    // `pub(crate)` / `pub(in path)`: restricted visibility —
                    // walk back over the group; is_pub stays false.
                    let mut depth = 0;
                    let mut m = k - 1;
                    loop {
                        match self.tok_text(m) {
                            Some(")") => depth += 1,
                            Some("(") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if m == 0 {
                            break;
                        }
                        m -= 1;
                    }
                    if m > 0 && self.tok_text(m - 1) == Some("pub") {
                        k = m - 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        // Signature: from `fn` to the body `{` or `;` at angle/paren depth 0.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut body = None;
        while j < to {
            match self.model.toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = match_delim(&self.model.toks[..to], j, "{", "}");
                    body = Some(j..close + 1);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let sig = i..j;
        let end = body.as_ref().map(|b| b.end).unwrap_or(j + 1);
        let was_test = self.in_test;
        if test {
            self.model.test_ranges.push(k.min(i)..end);
            self.in_test = true;
        }
        self.model.fns.push(FnItem {
            name,
            line,
            is_pub,
            is_async,
            sig,
            body: body.clone(),
            in_test: self.in_test,
        });
        if let Some(b) = body {
            // Recurse for nested consts / fns / uses inside the body.
            self.walk(b.start + 1, b.end - 1);
        }
        self.in_test = was_test;
        end
    }

    /// Consumes a struct/enum/trait/union/type item without modeling it,
    /// so a `#[cfg(test)]` attribute on one still produces a test range.
    fn skip_item(&mut self, i: usize, to: usize, test: bool) -> usize {
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < to {
            match self.model.toks[j].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                ">" => depth = (depth - 1).max(0),
                "{" if depth <= 0 => {
                    j = match_delim(&self.model.toks[..to], j, "{", "}");
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if test {
            self.model.test_ranges.push(i..j + 1);
        }
        j + 1
    }

    fn parse_impl(&mut self, i: usize, to: usize, test: bool) -> usize {
        let line = self.model.toks[i].line;
        // Header: to the `{` at depth 0. Self type: the last identifier
        // before the `{` that follows a `for` if present, else the first
        // non-generic identifier after `impl`.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut after_for: Option<String> = None;
        let mut first: Option<String> = None;
        let mut saw_for = false;
        while j < to {
            let t = &self.model.toks[j];
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" => depth += 1,
                ">" => depth = (depth - 1).max(0),
                "{" if depth <= 0 => break,
                "for" if depth <= 0 => saw_for = true,
                "where" if depth <= 0 => {}
                _ => {
                    if t.kind == TokKind::Ident && depth <= 0 {
                        // The self type is the last path segment before the
                        // body (or before `for` when there is a trait).
                        if saw_for {
                            after_for = Some(t.text.clone());
                        } else {
                            first = Some(t.text.clone());
                        }
                    }
                }
            }
            j += 1;
        }
        if j >= to {
            return i + 1;
        }
        let close = match_delim(&self.model.toks[..to], j, "{", "}");
        let was_test = self.in_test;
        if test {
            self.model.test_ranges.push(i..close + 1);
            self.in_test = true;
        }
        self.model.impls.push(ImplDecl {
            self_ty: after_for.or(first).unwrap_or_default(),
            line,
            body: j..close + 1,
        });
        self.walk(j + 1, close);
        self.in_test = was_test;
        close + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_mods_fns_consts_impls() {
        let src = "\
mod outer {
    pub const LIMIT: u64 = 8;
    pub async fn go(x: u32) -> u32 { x }
}
mod decl;
struct S { a: u32 }
impl S {
    pub fn method(&self) -> u32 { self.a }
    fn private(&self) {}
}
impl Default for S {
    fn default() -> S { S { a: 0 } }
}
static NAMES: &[&str] = &[\"a\"];
const fn k() -> u32 { 3 }
";
        let m = FileModel::parse(src);
        let mods: Vec<(&str, bool)> = m.mods.iter().map(|d| (d.name.as_str(), d.inline)).collect();
        assert_eq!(mods, vec![("outer", true), ("decl", false)]);
        let fns: Vec<(&str, bool, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.is_async))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("go", true, true),
                ("method", true, false),
                ("private", false, false),
                ("default", false, false),
                ("k", false, false),
            ]
        );
        let consts: Vec<&str> = m.consts.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(consts, vec!["LIMIT", "NAMES"]);
        let impls: Vec<&str> = m.impls.iter().map(|d| d.self_ty.as_str()).collect();
        assert_eq!(impls, vec!["S", "S"]);
    }

    #[test]
    fn cfg_test_ranges_cover_mods_and_fns() {
        let src = "\
fn live() { let x = 1; }
#[cfg(test)]
mod tests {
    use nowlab_sim::Sim;
    #[test]
    fn t() {}
}
#[cfg(test)]
fn helper() {}
fn also_live() {}
";
        let m = FileModel::parse(src);
        // The use inside the test mod is marked.
        let sim = m.toks.iter().position(|t| t.text == "nowlab_sim").unwrap();
        assert!(m.in_test(sim));
        let t = m.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
        let h = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(h.in_test);
        let live = m.fns.iter().find(|f| f.name == "also_live").unwrap();
        assert!(!live.in_test);
    }

    #[test]
    fn const_ranges_exempt_their_literals() {
        let src = "const POLL: SimDelta = SimDelta::from_micros_int(100);\n\
                   fn f(s: &Sim) { s.delay(SimDelta::from_nanos(5)); }\n";
        let m = FileModel::parse(src);
        let hundred = m.toks.iter().position(|t| t.text == "100").unwrap();
        let five = m.toks.iter().position(|t| t.text == "5").unwrap();
        assert!(m.in_const(hundred));
        assert!(!m.in_const(five));
    }

    #[test]
    fn const_inside_fn_body_is_recognized() {
        let m = FileModel::parse("fn f() { const MASK: u64 = 0xff; let y = MASK; }");
        assert_eq!(m.consts.len(), 1);
        assert_eq!(m.consts[0].name, "MASK");
    }

    #[test]
    fn raw_pointers_and_static_lifetimes_are_not_const_items() {
        let m = FileModel::parse(
            "type P = *const u8;\nfn f(s: &'static str, p: *const u32) -> &'static str { s }",
        );
        assert!(m.consts.is_empty(), "{:?}", m.consts);
    }
}
