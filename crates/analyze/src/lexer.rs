//! A minimal Rust token scanner.
//!
//! The container this workspace builds in is fully offline (no crates.io),
//! so the analyzer cannot use `syn`; the lints it enforces only need a
//! token stream with comments and string/char literals stripped, which a
//! few hundred lines of hand-rolled lexing provide. The scanner understands
//! line and nested block comments, plain/byte/raw string literals, char
//! literals vs. lifetimes, identifiers, and integer literals (with radix
//! prefixes, `_` separators, and type suffixes); everything else is
//! emitted as single-character punctuation tokens.

/// What kind of token was scanned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (value available via `Tok::int_value`).
    Int,
    /// Float literal (`2.9`, `1.5e-3`, `0.0f64`), kept as one token so the
    /// float-determinism lints can recognize literal accumulator seeds.
    Float,
    /// A single punctuation character.
    Punct,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    /// Token text. For [`TokKind::Punct`] this is one character.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Token class.
    pub kind: TokKind,
}

impl Tok {
    /// Numeric value of an integer literal, tolerating `_` separators,
    /// `0x`/`0o`/`0b` radix prefixes, and type suffixes (`4096u32`).
    /// Returns `None` for non-integer tokens or overflow.
    pub(crate) fn int_value(&self) -> Option<u64> {
        if self.kind != TokKind::Int {
            return None;
        }
        let clean: String = self.text.chars().filter(|&c| c != '_').collect();
        let (radix, digits) = match clean.as_bytes() {
            [b'0', b'x' | b'X', rest @ ..] => (16, rest),
            [b'0', b'o' | b'O', rest @ ..] => (8, rest),
            [b'0', b'b' | b'B', rest @ ..] => (2, rest),
            _ => (10, clean.as_bytes()),
        };
        // Strip a type suffix: digits end at the first char that is not a
        // digit of the radix.
        let mut value: u64 = 0;
        let mut any = false;
        for &b in digits {
            let Some(d) = (b as char).to_digit(radix) else {
                break;
            };
            value = value
                .checked_mul(u64::from(radix))?
                .checked_add(u64::from(d))?;
            any = true;
        }
        any.then_some(value)
    }
}

/// Index of the `r` that closes the `l` at `open`, or of the last token
/// when the delimiters do not balance. A stray `r` before any `l` closes
/// at once.
pub(crate) fn match_delim(toks: &[Tok], open: usize, l: &str, r: &str) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.text == l {
            depth += 1;
        } else if t.text == r {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Scans `source` into a token stream with comments and literals stripped.
pub(crate) fn lex(source: &str) -> Vec<Tok> {
    let b: Vec<char> = source.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let bump_lines = |s: &[char], from: usize, to: usize, line: &mut u32| {
        *line += s[from..to].iter().filter(|&&c| c == '\n').count() as u32;
    };

    while i < n {
        let c = b[i];
        // Newlines and whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            bump_lines(&b, start, i, &mut line);
            continue;
        }
        // Raw (and raw byte) strings: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let start = i;
            if c == 'b' {
                i += 1;
            }
            i += 1; // past 'r'
            let mut hashes = 0;
            while i < n && b[i] == '#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // past opening quote
            loop {
                if i >= n {
                    break;
                }
                if b[i] == '"' {
                    let mut k = 0;
                    while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                        k += 1;
                    }
                    if k == hashes {
                        i += 1 + hashes;
                        break;
                    }
                }
                i += 1;
            }
            bump_lines(&b, start, i.min(n), &mut line);
            continue;
        }
        // Byte-char literal: b'H', b'\n', b'\''. Without this branch the
        // leading `b` would leak into the token stream as an identifier.
        if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
            i += 2;
            while i < n && b[i] != '\'' {
                if b[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            i = (i + 1).min(n);
            continue;
        }
        // Plain / byte string literal.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start = i;
            if c == 'b' {
                i += 1;
            }
            i += 1;
            while i < n && b[i] != '"' {
                if b[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            i = (i + 1).min(n);
            bump_lines(&b, start, i, &mut line);
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let is_char = i + 1 < n
                && (b[i + 1] == '\\' || (i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\''));
            if is_char {
                i += 1;
                while i < n && b[i] != '\'' {
                    if b[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(n);
            } else {
                // Lifetime: consume the quote; the identifier lexes next.
                i += 1;
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                text: b[start..i].iter().collect(),
                line,
                kind: TokKind::Ident,
            });
            continue;
        }
        // Numeric literal. Integers keep radix prefixes and type suffixes;
        // a dot followed by a digit extends the token into a float (so
        // `1..2` and `1.max(2)` keep their dots as punctuation), as does a
        // signed exponent (`1.5e-3`).
        if c.is_ascii_digit() {
            let start = i;
            let radix_prefixed =
                c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'X' | 'o' | 'O' | 'b' | 'B');
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let mut kind = TokKind::Int;
            if !radix_prefixed {
                if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    kind = TokKind::Float;
                }
                if i + 1 < n
                    && matches!(b[i - 1], 'e' | 'E')
                    && matches!(b[i], '+' | '-')
                    && b[i + 1].is_ascii_digit()
                {
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    kind = TokKind::Float;
                }
            }
            toks.push(Tok {
                text: b[start..i].iter().collect(),
                line,
                kind,
            });
            continue;
        }
        // Single punctuation character.
        toks.push(Tok {
            text: c.to_string(),
            line,
            kind: TokKind::Punct,
        });
        i += 1;
    }
    toks
}

/// True if position `i` starts a raw-string literal (`r"`, `r#`, `br"`,
/// `br#`), as opposed to an identifier that merely begins with `r`/`b`.
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
    }
    if b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let toks =
            texts("// HashMap in a comment\n/* Instant /* nested */ */\nlet s = \"HashMap\"; foo");
        assert_eq!(toks, vec!["let", "s", "=", ";", "foo"]);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let toks = texts("fn f<'a>(x: &'a str) { let r = r#\"Instant \"quoted\"\"#; }");
        assert!(toks.contains(&"a".to_string()));
        assert!(!toks.contains(&"Instant".to_string()));
    }

    #[test]
    fn char_literals_are_stripped() {
        let toks = texts("let c = 'x'; let d = '\\n'; let e = '\\'';");
        assert!(!toks.contains(&"x".to_string()));
        assert!(!toks.contains(&"n".to_string()));
    }

    #[test]
    fn int_values_parse_radixes_and_suffixes() {
        let toks = lex("4096 0x1000 4_096u32 0b1000 8usize 2.9");
        let vals: Vec<Option<u64>> = toks.iter().map(Tok::int_value).collect();
        assert_eq!(vals[0], Some(4096));
        assert_eq!(vals[1], Some(4096));
        assert_eq!(vals[2], Some(4096));
        assert_eq!(vals[3], Some(8));
        assert_eq!(vals[4], Some(8));
        // The float is one token and is not an integer.
        assert_eq!(toks[5].kind, TokKind::Float);
        assert_eq!(toks[5].text, "2.9");
        assert_eq!(vals[5], None);
    }

    #[test]
    fn float_literals_are_single_tokens() {
        let toks = lex("2.9 0.0f64 1.5e-3 2E+6 1e5");
        assert_eq!(toks[0].kind, TokKind::Float);
        assert_eq!(toks[1].kind, TokKind::Float);
        assert_eq!(toks[1].text, "0.0f64");
        assert_eq!(toks[2].kind, TokKind::Float);
        assert_eq!(toks[2].text, "1.5e-3");
        assert_eq!(toks[3].kind, TokKind::Float);
        // `1e5` has no dot or sign, so it stays a (suffixed) Int token —
        // the lints never treat it as an integer value anyway (`int_value`
        // stops at `e` only after parsing `1`).
        assert_eq!(toks[4].text, "1e5");
    }

    #[test]
    fn ranges_and_method_calls_keep_their_dots() {
        let toks = lex("for i in 1..20 { x = 3.max(i); t.0 }");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"1"));
        assert!(texts.contains(&"20"));
        assert!(texts.contains(&"3"));
        assert!(texts.contains(&"max"));
        assert!(toks.iter().all(|t| t.kind != TokKind::Float));
    }

    #[test]
    fn byte_char_literals_do_not_leak_an_ident() {
        // `b'r'` must not emit a stray `b` (or worse, hide what follows).
        let toks = texts("let x = b'r'; let y = b'\\''; from_entropy()");
        assert_eq!(
            toks,
            vec![
                "let",
                "x",
                "=",
                ";",
                "let",
                "y",
                "=",
                ";",
                "from_entropy",
                "(",
                ")"
            ]
        );
    }

    #[test]
    fn byte_and_raw_byte_strings_are_stripped() {
        let toks = texts("let a = b\"OsRng\"; let b2 = br#\"thread_rng \"q\"\"#; getrandom()");
        assert_eq!(
            toks,
            vec![
                "let",
                "a",
                "=",
                ";",
                "let",
                "b2",
                "=",
                ";",
                "getrandom",
                "(",
                ")"
            ]
        );
    }

    #[test]
    fn multi_hash_raw_strings_terminate_at_matching_hashes() {
        // The `"#` inside the r##-string must not close it early; if it did,
        // the trailing `rand` would be swallowed or garbage would leak.
        let toks = texts("let s = r##\"inner \"# quote\"##; rand()");
        assert_eq!(toks, vec!["let", "s", "=", ";", "rand", "(", ")"]);
    }

    #[test]
    fn nested_block_comments_with_tricky_delimiters() {
        assert_eq!(texts("/*/**/*/ ok"), vec!["ok"]);
        assert_eq!(texts("/* a /* b */ c */ d /* unterminated"), vec!["d"]);
    }

    #[test]
    fn lifetimes_survive_next_to_char_literals() {
        let toks = texts("fn f<'a>(p: &'a T) { let c = 'x'; let l: &'static str = s; }");
        assert!(toks.contains(&"a".to_string()));
        assert!(toks.contains(&"static".to_string()));
        assert!(
            !toks.contains(&"x".to_string()),
            "char literal leaked: {toks:?}"
        );
    }

    #[test]
    fn escaped_backslash_string_does_not_swallow_code() {
        let toks = texts(r#"let p = "\\"; thread_rng()"#);
        assert_eq!(toks, vec!["let", "p", "=", ";", "thread_rng", "(", ")"]);
    }

    #[test]
    fn lines_are_tracked_across_multiline_constructs() {
        let toks = lex("a\n/* x\ny */\nb \"s\ntr\" c");
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(b.line, 4);
        assert_eq!(c.line, 5);
    }
}
