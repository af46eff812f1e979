//! A minimal recursive-descent JSON parser, just enough to read back
//! the report files this crate writes (`nowlab report` renders saved
//! reports without re-running the simulation), and the one string
//! [`escape`] routine the hand-rolled report writers share. No external
//! dependency; objects preserve key order in a `Vec` so rendering is
//! deterministic.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile file from
/// overflowing the stack; the reports this crate writes nest a handful deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (no fraction or exponent).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// String (escape sequences `\" \\ \/ \n \t \r \uXXXX` supported).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source key order.
    Obj(Vec<(String, Value)>),
}

/// Escapes `s` for the inside of a JSON string literal: the inverse of
/// what [`parse`] reads back.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Value {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An array of non-negative integers, if that is what this is.
    pub fn as_u64s(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Value::as_u64).collect()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            _ => self.number(),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut kv = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            kv.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(kv));
                }
                c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut vals = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(vals));
        }
        loop {
            vals.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(vals));
                }
                c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string".to_string())?;
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let e = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated escape".to_string())?;
            self.pos += 1;
            out.push(match e {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let code = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| std::str::from_utf8(hex).ok())
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or("bad \\u escape".to_string())?;
                    self.pos += 4;
                    code
                }
                _ => return Err(format!("unsupported escape '\\{}'", e as char)),
            });
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-3}"#).unwrap();
        assert_eq!(v.get("e"), Some(&Value::Int(-3)));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
    }

    #[test]
    fn escape_is_the_inverse_of_the_string_parser() {
        assert_eq!(escape("EM3D(read)"), "EM3D(read)");
        for s in [
            "sort \"keys\"\\",
            "a\nb\tc\rd",
            "bell\u{7}",
            "/plain",
            "café",
            "日本",
            "🦀",
            "a\"日\\本\n🦀\tcafé",
            "\u{1}é\"",
        ] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        let v = parse(r#""caf\u00e9 \/ 日本""#).unwrap();
        assert_eq!(v.as_str(), Some("café / 日本"));
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse("\"日本").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        assert!(parse(&deep(60_000)).unwrap_err().contains("nesting"));
        let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        let err = parse(&objects).unwrap_err();
        assert!(err.contains(&format!("at byte {}", 5 * MAX_DEPTH)), "{err}");
        // Depth is nesting, not count: siblings at one level are fine.
        let wide = format!("[{}1]", "[],".repeat(10_000));
        assert_eq!(parse(&wide).unwrap().as_arr().unwrap().len(), 10_001);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("tru").is_err());
    }
}
