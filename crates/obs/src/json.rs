//! Minimal JSON value model and recursive-descent parser.
//!
//! The workspace's vendored `serde` is an inert marker stub, so snapshots
//! are written by hand (deterministically — see `snapshot.rs`) and read
//! back through this parser for `aj obs summary` and CI validation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects use [`BTreeMap`] so re-serialization is
/// deterministic too.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as bool, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a line of a few hundred kilobytes of
/// `[` overflows the stack; every document the workspace writes nests a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry the byte offset of the failure.
/// Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`.
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Decodes a string literal in time linear in its length: each run up
    /// to the next `"`, `\` or control char is copied whole. All three are
    /// ASCII, so a run starts and ends on char boundaries of the input. A
    /// raw control char (U+0000–U+001F) is an error: JSON escapes them.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes the escape after a `\`. A `\u` high surrogate followed by a
    /// `\u` low surrogate is one char; a lone or reversed surrogate is
    /// rejected at the end of its four digits.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self
                    .hex4(self.pos)
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                if (0xD800..0xDC00).contains(&code)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    if let Some(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                }
                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    /// The four hex digits at byte `at`; `None` unless all four are ASCII
    /// hex digits (no sign, no fewer).
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.text.as_bytes().get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
    }

    /// A number as RFC 8259 spells it: an optional `-`, then `0` or a digit
    /// run that does not start with `0`, then optionally `.` and at least
    /// one digit, then optionally an exponent with at least one digit. An
    /// error names the first byte that breaks that form.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("invalid number"));
            }
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// Skips one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let first = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == first {
            return Err(self.err("invalid number"));
        }
        Ok(())
    }
}

/// Appends `s` as a JSON string literal (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` deterministically: integral values print without a
/// fractional part, others use shortest-roundtrip `{}` formatting.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{:.1}", v);
    } else if v.is_finite() {
        let _ = write!(out, "{}", v);
    } else {
        // JSON has no Inf/NaN; encode as null.
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"x": true, "y": null}, "s": "hi\n"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("x"), Some(&Value::Bool(true)));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi\n"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&nest(1_000_000)).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{0001}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{0001}"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let v = parse(r#"["\ud83d\ude00", "a\uD834\uDD1Eb", "\u00e9\u20ac"]"#).unwrap();
        let strs: Vec<_> = v.as_arr().unwrap().iter().map(Value::as_str).collect();
        assert_eq!(strs, [Some("\u{1F600}"), Some("a\u{1D11E}b"), Some("é€")]);
    }

    #[test]
    fn string_errors_name_their_offset() {
        for (doc, err) in [
            // A lone or reversed surrogate fails after its four digits.
            (r#""\ud83d""#, "bad \\u escape at byte 7"),
            (r#""\ud83dx""#, "bad \\u escape at byte 7"),
            (r#""\ud83d\u0041""#, "bad \\u escape at byte 7"),
            (r#""\ud83d\ud83d""#, "bad \\u escape at byte 7"),
            (r#""\ud83d\ude0""#, "bad \\u escape at byte 7"),
            (r#""\ud83d\n""#, "bad \\u escape at byte 7"),
            (r#""\ude00\ud83d""#, "bad \\u escape at byte 7"),
            ("\"abc", "unterminated string at byte 4"),
            ("\"é\\", "bad escape at byte 4"),
            ("\"ab\\q\"", "unknown escape at byte 5"),
            ("\"\\u12\"", "bad \\u escape at byte 3"),
            ("\"\\u12é\"", "bad \\u escape at byte 3"),
            ("\"\\u1é\"", "bad \\u escape at byte 3"),
            ("{\"k\\x\":1}", "unknown escape at byte 5"),
            // `\u` takes exactly four hex digits: no sign, no fewer.
            ("\"\\u+041\"", "bad \\u escape at byte 3"),
            ("\"\\u-041\"", "bad \\u escape at byte 3"),
            ("\"\\u 041\"", "bad \\u escape at byte 3"),
            ("\"\\ud83d\\u+c00\"", "bad \\u escape at byte 7"),
            // Control chars must be escaped.
            ("\"a\u{0}b\"", "control character in string at byte 2"),
            ("\"tab\there\"", "control character in string at byte 4"),
            ("[\"\n\"]", "control character in string at byte 2"),
            ("{\"k\u{1f}\":1}", "control character in string at byte 3"),
        ] {
            assert_eq!(parse(doc), Err(err.into()), "{doc}");
        }
        // DEL and everything above U+001F pass unescaped.
        assert_eq!(
            parse("\"\u{7f}\u{80}\"").unwrap().as_str(),
            Some("\u{7f}\u{80}")
        );
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (doc, err) in [
            ("01", "invalid number at byte 1"),
            ("-01", "invalid number at byte 2"),
            ("00", "invalid number at byte 1"),
            ("[1, 02]", "invalid number at byte 5"),
            ("1.", "invalid number at byte 2"),
            ("1.e5", "invalid number at byte 2"),
            ("[1.]", "invalid number at byte 3"),
            ("-", "invalid number at byte 1"),
            ("-.5", "invalid number at byte 1"),
            ("1e", "invalid number at byte 2"),
            ("1e+", "invalid number at byte 3"),
            ("-a", "invalid number at byte 1"),
        ] {
            assert_eq!(parse(doc), Err(err.into()), "{doc}");
        }
        for (doc, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.0e0", -0.0),
            ("10", 10.0),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("2.5e-3", 2.5e-3),
            ("0e7", 0.0),
            ("1e308", 1e308),
        ] {
            let got = parse(doc).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{doc}");
        }
    }

    #[test]
    fn f64_formatting() {
        let mut out = String::new();
        write_f64(&mut out, 3.0);
        assert_eq!(out, "3.0");
        out.clear();
        write_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
