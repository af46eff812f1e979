//! The one JSON reader and writer of the workspace: a minimal
//! recursive-descent parser, just enough to read back the report files
//! (`nowlab report` renders saved reports without re-running the
//! simulation), and a streaming [`Writer`] that every report goes
//! through — metrics runs and sweeps, and predictions.
//! No external dependency; objects preserve key order in a slice so
//! rendering is deterministic.
//!
//! A parsed tree is held at the size of its numbers: every container is
//! one exact-size box, and an array of integers — what [`Writer::u64s`]
//! writes, most of a metrics report — is a [`Value::Ints`] of bare `i64`s
//! rather than a slice of 24-byte values.

use std::fmt::Display;
use std::io::{self, Write};

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile file from
/// overflowing the stack; the reports this crate writes nest a handful deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// The parser picks one form per array: a non-empty array whose every
/// element is an integer is [`Value::Ints`], any other array (the empty
/// one included) is [`Value::Arr`]. Object keys stay `String`s, so a
/// caller can take one out of the tree whole.
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
    Str(Box<str>),
    /// Non-empty array of integers only.
    Ints(Box<[i64]>),
    /// Any other array.
    Arr(Box<[Value]>),
    /// Object, in source key order.
    Obj(Box<[(String, Value)]>),
}

// A tag beside one fat pointer: a report's tree costs 24 bytes a value.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

/// Writes `s` as the inside of a JSON string literal: the inverse of what
/// [`parse`] reads back. Runs that need no escape are copied whole; every
/// escape is ASCII, so a run ends on a character boundary.
fn escape<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= b' ' && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_all(&bytes[start..i])?;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\t' => out.write_all(b"\\t")?,
            b'\r' => out.write_all(b"\\r")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    out.write_all(&bytes[start..])
}

/// A streaming JSON writer into any [`Write`], building no tree.
///
/// It decides every comma and every escape; the caller decides the
/// structure, and where the document breaks a line ([`Writer::newline`]).
/// Each call returns the writer, so a record chains:
///
/// ```
/// use nowlab_metrics::json::{parse, Writer};
///
/// let mut buf = Vec::new();
/// let mut w = Writer::new(&mut buf);
/// w.obj()?.key("ns")?.u64s(&[1, 2])?.key("label")?.str("a\"b")?;
/// w.key("share")?.fixed(0.5, 3)?.key("none")?.null()?.end_obj()?;
/// w.finish()?;
/// assert_eq!(buf, b"{\"ns\":[1,2],\"label\":\"a\\\"b\",\"share\":0.500,\"none\":null}\n");
/// assert!(parse(std::str::from_utf8(&buf).unwrap()).is_ok());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Writer<W: Write> {
    out: W,
    /// True when the next key or value follows a sibling, so a comma
    /// goes first.
    comma: bool,
}

impl<W: Write> Writer<W> {
    /// A writer at the start of a document.
    pub fn new(out: W) -> Self {
        Writer { out, comma: false }
    }

    fn sep(&mut self) -> io::Result<()> {
        if self.comma {
            self.out.write_all(b",")?;
        }
        Ok(())
    }

    /// Writes one complete value, after its comma.
    fn value(&mut self, f: impl FnOnce(&mut W) -> io::Result<()>) -> io::Result<&mut Self> {
        self.sep()?;
        f(&mut self.out)?;
        self.comma = true;
        Ok(self)
    }

    fn open(&mut self, bracket: &[u8]) -> io::Result<&mut Self> {
        self.sep()?;
        self.out.write_all(bracket)?;
        self.comma = false;
        Ok(self)
    }

    fn close(&mut self, bracket: &[u8]) -> io::Result<&mut Self> {
        self.out.write_all(bracket)?;
        self.comma = true;
        Ok(self)
    }

    /// Opens an object.
    pub fn obj(&mut self) -> io::Result<&mut Self> {
        self.open(b"{")
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> io::Result<&mut Self> {
        self.close(b"}")
    }

    /// Opens an array.
    pub fn arr(&mut self) -> io::Result<&mut Self> {
        self.open(b"[")
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> io::Result<&mut Self> {
        self.close(b"]")
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> io::Result<&mut Self> {
        self.sep()?;
        self.out.write_all(b"\"")?;
        escape(&mut self.out, k)?;
        self.out.write_all(b"\":")?;
        self.comma = false;
        Ok(self)
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> io::Result<&mut Self> {
        self.value(|out| write!(out, "{v}"))
    }

    /// Writes an array of unsigned integers.
    pub fn u64s(&mut self, vals: &[u64]) -> io::Result<&mut Self> {
        self.arr()?;
        for &v in vals {
            self.u64(v)?;
        }
        self.end_arr()
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) -> io::Result<&mut Self> {
        self.value(|out| {
            out.write_all(b"\"")?;
            escape(out, s)?;
            out.write_all(b"\"")
        })
    }

    /// Writes `v` with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> io::Result<&mut Self> {
        self.value(|out| write!(out, "{v:.decimals$}"))
    }

    /// Writes `v` as its [`Display`] form, which must be a JSON number
    /// (the shortest form that reads back as the same `f64`, for a float).
    pub fn display(&mut self, v: impl Display) -> io::Result<&mut Self> {
        self.value(|out| write!(out, "{v}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> io::Result<&mut Self> {
        self.value(|out| out.write_all(b"null"))
    }

    /// Breaks the line before the next key or value, indenting it by
    /// `indent` spaces; the comma, if one is due, stays on this line.
    pub fn newline(&mut self, indent: usize) -> io::Result<&mut Self> {
        self.sep()?;
        write!(self.out, "\n{:indent$}", "")?;
        self.comma = false;
        Ok(self)
    }

    /// Ends the document with a line break.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(b"\n")
    }
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

    /// The value as an array slice, if it is an array of anything but
    /// integers alone: an integer array ([`Value::Ints`]) gives `None`, so
    /// read integers with [`Value::as_u64s`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An array of non-negative integers, if that is what this is.
    pub fn as_u64s(&self) -> Option<Vec<u64>> {
        match self {
            Value::Ints(v) => v.iter().map(|&i| u64::try_from(i).ok()).collect(),
            Value::Arr(v) => v.iter().map(Value::as_u64).collect(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Elements of the arrays open around `pos`, innermost last. Each
    /// array moves its own off the top into one exact-size box when it
    /// closes, so one stack serves the whole document.
    items: Vec<Value>,
    /// Members of the objects open around `pos`, the same way.
    members: Vec<(String, Value)>,
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        members: Vec::new(),
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
            b'"' => Ok(Value::Str(self.string()?.into_boxed_str())),
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
        let base = self.members.len();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(Box::default()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            self.members.push((key, v));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(self.members.drain(base..).collect()));
                }
                c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let base = self.items.len();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(Box::default()));
        }
        let mut ints = true;
        loop {
            let v = self.value()?;
            ints &= matches!(v, Value::Int(_));
            self.items.push(v);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    let items = self.items.drain(base..);
                    if !ints {
                        return Ok(Value::Arr(items.collect()));
                    }
                    return Ok(Value::Ints(
                        items
                            .map(|v| match v {
                                Value::Int(i) => i,
                                _ => unreachable!("every element was checked to be an integer"),
                            })
                            .collect(),
                    ));
                }
                c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
            }
        }
    }

    /// A string's contents, at their exact size.
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
            let text = &self.text[start..self.pos];
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                if out.is_empty() {
                    // No escape: one allocation of the run's length.
                    return Ok(text.to_owned());
                }
                out.push_str(text);
                out.shrink_to_fit();
                return Ok(out);
            }
            out.push_str(text);
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
        // Most of a report is short plain integers: up to 18 digits
        // cannot overflow, so they are summed in place. Anything else
        // takes the general path below, which reads it as before.
        let neg = self.bytes.get(start) == Some(&b'-');
        let digits = &self.bytes[start + usize::from(neg)..];
        let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
        if (1..=18).contains(&len)
            && !matches!(digits.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            let n = digits[..len]
                .iter()
                .fold(0, |n, &d| n * 10 + i64::from(d - b'0'));
            self.pos += usize::from(neg) + len;
            return Ok(Value::Int(if neg { -n } else { n }));
        }
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

    /// The text `f` writes, finished with its line break.
    fn written(f: impl FnOnce(&mut Writer<&mut Vec<u8>>) -> io::Result<()>) -> String {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        f(&mut w).unwrap();
        w.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// One string value, written.
    fn string(s: &str) -> String {
        written(|w| {
            w.str(s)?;
            Ok(())
        })
    }

    #[test]
    fn written_strings_read_back_through_the_parser() {
        assert_eq!(string("EM3D(read)"), "\"EM3D(read)\"\n");
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
            let doc = string(s);
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        assert_eq!(
            string("q\"b\\n\nt\tr\r\u{1f}"),
            "\"q\\\"b\\\\n\\nt\\tr\\r\\u001f\"\n"
        );
        let v = parse(r#""caf\u00e9 \/ 日本""#).unwrap();
        assert_eq!(v.as_str(), Some("café / 日本"));
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse("\"日本").is_err());
    }

    #[test]
    fn the_writer_places_every_comma_at_every_depth() {
        let doc = written(|w| {
            w.obj()?.key("a")?.u64(1)?;
            w.key("b")?.arr()?.u64(2)?;
            w.arr()?.u64(3)?.u64(4)?.end_arr()?;
            w.obj()?.key("c")?.obj()?;
            w.key("d")?.u64s(&[5])?.end_obj()?;
            w.key("e")?.null()?.end_obj()?.end_arr()?;
            w.key("f")?.str("g")?.end_obj()?;
            Ok(())
        });
        assert_eq!(
            doc,
            "{\"a\":1,\"b\":[2,[3,4],{\"c\":{\"d\":[5]},\"e\":null}],\"f\":\"g\"}\n"
        );
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn empty_containers_take_no_comma_inside_or_after() {
        let doc = written(|w| {
            w.obj()?.key("o")?.obj()?.end_obj()?;
            w.key("a")?.arr()?.end_arr()?;
            w.key("n")?.u64s(&[])?;
            w.key("t")?.arr()?.arr()?.end_arr()?;
            w.obj()?.end_obj()?.end_arr()?.end_obj()?;
            Ok(())
        });
        assert_eq!(doc, "{\"o\":{},\"a\":[],\"n\":[],\"t\":[[],{}]}\n");
        assert!(parse(&doc).is_ok());
        let empty = written(|w| {
            w.arr()?.end_arr()?;
            Ok(())
        });
        assert_eq!(empty, "[]\n");
    }

    #[test]
    fn numbers_print_fixed_displayed_or_null() {
        let doc = written(|w| {
            w.arr()?.fixed(2.9, 3)?.fixed(1.33449, 4)?.fixed(7.0, 0)?;
            w.display(0.05)?.display(1.0)?.display(-1i64)?;
            w.u64(u64::MAX)?.null()?.end_arr()?;
            Ok(())
        });
        assert_eq!(
            doc,
            "[2.900,1.3345,7,0.05,1,-1,18446744073709551615,null]\n"
        );
        let v = parse("[2.900,1.3345,7,0.05,1,-1,null]").unwrap();
        assert_eq!(v.as_arr().unwrap()[3].as_f64(), Some(0.05));
        assert_eq!(v.as_arr().unwrap()[6], Value::Null);
    }

    #[test]
    fn keys_escape_like_values_and_line_breaks_keep_the_comma() {
        let key = "we\"ird\\key\n";
        let doc = written(|w| {
            w.obj()?.key(key)?.str("v\"al")?;
            w.key("rows")?.arr()?;
            for i in 0..2 {
                w.newline(2)?.u64s(&[i])?;
            }
            w.end_arr()?.newline(0)?;
            w.key("tail")?.u64(9)?.end_obj()?;
            Ok(())
        });
        assert_eq!(
            doc,
            "{\"we\\\"ird\\\\key\\n\":\"v\\\"al\",\"rows\":[\n  [0],\n  [1]],\n\"tail\":9}\n"
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get(key).and_then(Value::as_str), Some("v\"al"));
        assert_eq!(v.get("tail").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn a_failing_sink_is_an_error_not_a_panic() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writer::new(Full);
        assert!(w.obj().is_err());
        assert!(w.str("x").is_err());
        assert!(w.finish().is_err());
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
    fn a_value_is_a_tag_and_one_fat_pointer() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn integer_arrays_are_ints_and_every_other_array_is_arr() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(Box::default()));
        assert_eq!(parse("[1,-2]").unwrap(), Value::Ints(Box::new([1, -2])));
        assert_eq!(parse("[ 7 ]").unwrap(), Value::Ints(Box::new([7])));
        for mixed in ["[1,2.5]", "[1,\"x\"]", "[1,null]", "[1,[2]]"] {
            let v = parse(mixed).unwrap();
            assert!(matches!(v, Value::Arr(_)), "{mixed}: {v:?}");
            assert_eq!(v.as_arr().unwrap()[0], Value::Int(1), "{mixed}");
            assert_eq!(v.as_u64s(), None, "{mixed}");
        }
        let nested = parse("[[1,2],[]]").unwrap();
        let rows = nested.as_arr().unwrap();
        assert_eq!(
            rows,
            [Value::Ints(Box::new([1, 2])), Value::Arr(Box::default())]
        );
        // An integer array is not an array of values: read it as integers.
        assert_eq!(rows[0].as_arr(), None);
        assert_eq!(rows[0].as_u64s(), Some(vec![1, 2]));
    }

    #[test]
    fn as_u64s_reads_both_forms_and_refuses_a_negative() {
        assert_eq!(parse("[3,0,7]").unwrap().as_u64s(), Some(vec![3, 0, 7]));
        assert_eq!(parse("[]").unwrap().as_u64s(), Some(vec![]));
        let spelled_out = Value::Arr(Box::new([Value::Int(4), Value::Int(0)]));
        assert_eq!(spelled_out.as_u64s(), Some(vec![4, 0]));
        assert_eq!(parse("[1,-2]").unwrap().as_u64s(), None);
        let negative = Value::Arr(Box::new([Value::Int(4), Value::Int(-1)]));
        assert_eq!(negative.as_u64s(), None);
        let max = parse(&format!("[{}]", i64::MAX)).unwrap();
        assert_eq!(max.as_u64s(), Some(vec![i64::MAX as u64]));
        assert_eq!(Value::Int(5).as_u64s(), None);
    }

    #[test]
    fn an_integer_past_i64_is_still_a_bad_number() {
        let err = parse("[1,9223372036854775808]").unwrap_err();
        assert!(err.starts_with("bad number '9223372036854775808'"), "{err}");
        let min = parse("[-9223372036854775808]").unwrap();
        assert_eq!(min, Value::Ints(Box::new([i64::MIN])));
        // The deepest array the bound admits may be an integer array.
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
    }

    /// The in-place integer reading agrees with the general one on every
    /// shape a number can take, and leaves the rest to it.
    #[test]
    fn plain_integers_read_as_the_general_path_reads_them() {
        for text in [
            "0",
            "-0",
            "007",
            "42",
            "-42",
            "123456789012345678",
            "-123456789012345678",
            "1234567890123456789",
            "9223372036854775807",
            "-9223372036854775808",
            "+5",
        ] {
            let want = text.parse().unwrap();
            assert_eq!(parse(text), Ok(Value::Int(want)), "{text}");
            let arr = parse(&format!("[{text},{text}]")).unwrap();
            assert_eq!(arr, Value::Ints(Box::new([want, want])), "{text}");
        }
        assert_eq!(parse("1.5e2"), Ok(Value::Float(150.0)));
        assert_eq!(parse("-2E-1"), Ok(Value::Float(-0.2)));
        for bad in ["-", "1-2", "1+", "--1", "12345678901234567890"] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("bad number '{bad}'")),
                "{bad}: {err}"
            );
        }
    }

    /// Containers close in any order around each other, and each takes
    /// exactly its own elements off the shared stacks.
    #[test]
    fn interleaved_containers_keep_their_own_elements() {
        let v =
            parse(r#"{"a":[1,{"b":[2,3],"c":{}},[4],"s"],"d":{"e":[[]],"f":-5},"g":[]}"#).unwrap();
        let obj = |kv: Vec<(&str, Value)>| {
            Value::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let want = obj(vec![
            (
                "a",
                Value::Arr(Box::new([
                    Value::Int(1),
                    obj(vec![
                        ("b", Value::Ints(Box::new([2, 3]))),
                        ("c", obj(vec![])),
                    ]),
                    Value::Ints(Box::new([4])),
                    Value::Str("s".into()),
                ])),
            ),
            (
                "d",
                obj(vec![
                    ("e", Value::Arr(Box::new([Value::Arr(Box::default())]))),
                    ("f", Value::Int(-5)),
                ]),
            ),
            ("g", Value::Arr(Box::default())),
        ]);
        assert_eq!(v, want);
    }

    #[test]
    fn keys_are_read_at_their_exact_size() {
        let v = parse(r#"{"plain":1,"esc\"aped\n":2,"":3}"#).unwrap();
        let Value::Obj(members) = v else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["plain", "esc\"aped\n", ""]);
        for (k, _) in members.iter() {
            assert_eq!(k.capacity(), k.len(), "{k:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("tru").is_err());
    }
}
