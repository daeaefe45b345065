//! The JSON wire format, hand-rolled on `std` only.
//!
//! The workspace builds fully offline, so — mirroring the vendored-shim
//! approach of `crates/rand` — this module implements the small JSON
//! surface the server's wire protocol needs: a value type ([`Json`]), a
//! compact serializer (`Json::to_string`, via [`fmt::Display`]), and a
//! strict recursive-descent parser ([`Json::parse`]).
//!
//! Guarantees the rest of the crate relies on:
//!
//! * **Round-trip**: `Json::parse(&v.to_string()) == Ok(v)` for every value
//!   this module can produce (objects preserve key order; numbers are
//!   finite `f64`s serialized with Rust's shortest round-trip formatting).
//!   The property is enforced by `tests/wire_proptest.rs`.
//! * **Strictness**: trailing garbage, unterminated literals, bad escapes,
//!   lone surrogates, and nesting deeper than [`MAX_DEPTH`] are errors, so
//!   a malformed request cannot panic or recurse unboundedly.
//!
//! # Examples
//!
//! ```
//! use lis_server::wire::Json;
//!
//! let v = Json::parse(r#"{"netlist": "block A\n", "options": {"exact": true}}"#)?;
//! assert_eq!(v.get("netlist").and_then(Json::as_str), Some("block A\n"));
//! assert_eq!(Json::parse(&v.to_string())?, v);
//! # Ok::<(), lis_server::wire::JsonError>(())
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers are finite `f64`s: integers up to ±2⁵³ round-trip exactly, which
/// covers every count, id, and `Ratio` numerator/denominator the protocol
/// carries. Objects are order-preserving key/value lists (lookup is linear;
/// wire objects are small).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (order-preserving).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a nonnegative integer, if it is one exactly.
    ///
    /// Numbers parse as `f64`, which holds every integer below 2^53 exactly
    /// but rounds larger literals (`9007199254740993` reads as 2^53). So
    /// 2^53 and above are refused: an option is never silently read as a
    /// different integer than the one sent.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on any syntax error,
    /// non-finite number, invalid escape, or nesting beyond [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }
}

/// A JSON syntax error with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // Non-finite values are unrepresentable in JSON; the protocol never
        // produces them, but a defensive `null` beats invalid output.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write!(f, "{}", n as i64)
    } else {
        // Rust's `{}` for f64 prints the shortest decimal that parses back
        // to the same value, which is exactly the round-trip guarantee the
        // wire format needs.
        write!(f, "{n}")
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    // Emit maximal runs of unescaped text between escapes instead of going
    // character by character — every byte needing an escape is ASCII, so
    // slicing at those byte offsets always lands on UTF-8 boundaries.
    f.write_str("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            b if b < 0x20 => "",
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        if esc.is_empty() {
            write!(f, "\\u{:04x}", b)?;
        } else {
            f.write_str(esc)?;
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it is a &str) and the run stops
                // only at ASCII delimiters, so the slice is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            other => return Err(self.err(format!("invalid escape \\{}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xdc00..0xe000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u code point"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err(format!("number {text:?} overflows f64")));
        }
        Ok(Json::Num(n))
    }
}

/// Convenience constructor for object literals.
///
/// ```
/// use lis_server::wire::{obj, Json};
/// let v = obj([("ok", Json::Bool(true)), ("n", Json::num(3))]);
/// assert_eq!(v.to_string(), r#"{"ok":true,"n":3}"#);
/// ```
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kitchen_sink() {
        let v = Json::parse(
            r#" { "a": [1, -2.5, 1e3, 0.125], "b": "x\n\"\u0041\ud83d\ude00", "c": {"d": null, "e": false} } "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\n\"A😀");
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().get("e"), Some(&Json::Bool(false)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_its_own_output() {
        let v = obj([
            ("text", Json::str("line 1\nline 2\t\"quoted\" \\ \u{7} π😀")),
            ("ints", Json::Arr(vec![Json::num(0), Json::num(-7)])),
            ("frac", Json::num(0.1)),
            ("big", Json::Num(9_007_199_254_740_992.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("nested", Json::Obj(vec![("k".into(), Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integers_serialize_without_a_fraction() {
        assert_eq!(Json::num(5).to_string(), "5");
        assert_eq!(Json::num(-5).to_string(), "-5");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00x\"",
            "\"unterminated",
            "\"raw\u{1}control\"",
            "1 2",
            "truefalse",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err(), "accepted over-deep nesting");
    }

    #[test]
    fn error_carries_the_offset() {
        let e = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn accessors_on_wrong_types_return_none() {
        assert_eq!(Json::Null.as_str(), None);
        assert_eq!(Json::Bool(true).as_f64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(9_007_199_254_740_991)
        );
        // f64 rounds both to 2^53, which is refused.
        for rounded in ["9007199254740992", "9007199254740993"] {
            assert_eq!(Json::parse(rounded).unwrap().as_u64(), None, "{rounded}");
        }
        assert_eq!(Json::str("x").as_arr(), None);
        assert_eq!(Json::str("x").get("k"), None);
        assert_eq!(Json::Arr(vec![]).as_bool(), None);
    }
}
