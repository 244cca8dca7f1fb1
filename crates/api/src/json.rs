//! A minimal, std-only JSON value: parser and byte-deterministic
//! compact renderer.
//!
//! The daemon protocol is line-delimited JSON over untrusted sockets, and
//! the build environment vendors no real `serde`, so this module carries
//! the whole responsibility: parse hostile request bytes under hard depth
//! and size limits (never panic, never allocate unboundedly), and render
//! responses compactly with *stable bytes* — object insertion order is
//! preserved, floats format exactly as Rust's shortest-roundtrip `{}`, so
//! the same value always serializes to the same line. The CLI's existing
//! pretty `to_json()` reports are re-parsed through [`Json::parse`] and
//! re-rendered with [`Json::render_compact`] to become single-line daemon
//! payloads, guaranteeing both frontends speak byte-identical structures.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Generous for every
/// report the tools emit (≤ 6), tight enough that `[[[[…` cannot blow the
/// parser's stack.
const MAX_DEPTH: usize = 48;

/// A parsed JSON value. Objects keep insertion order (`Vec`, not a map):
/// rendering is deterministic and key order survives a parse→render trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has one numeric type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// A structured parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed input, nesting beyond the depth cap, or
    /// trailing non-whitespace bytes.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after the value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object field lookup (first match); `None` on non-objects.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives and values beyond 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace), preserving object key order.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&fmt_num(*n)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Formats a number the way the reports do: integers without a decimal
/// point, everything else via Rust's shortest-roundtrip float formatting,
/// in exponent form (`4.300991475928116e-16`) when `|n| < 1e-6` or
/// `|n| ≥ 1e21`, where the plain form runs to dozens of zeros. Non-finite
/// values (unrepresentable in JSON) render as `null`.
pub fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        return "null".into();
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else if n.abs() < 1e-6 || n.abs() >= 1e21 {
        format!("{n:e}")
    } else {
        format!("{n}")
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: `s` as a standalone JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::new();
    write_escaped(s, &mut out);
    out
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number `{text}` overflows f64"),
            });
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one go. All three are ASCII, so the run ends on a char
            // boundary of `src`.
            let end = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes.len(), |run| self.pos + run);
            let run = self
                .src
                .get(self.pos..end)
                .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
            out.push_str(run);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining UTF-16 surrogate
    /// pairs; the leading `\u` is already consumed.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.eat(b'u', "expected low surrogate `\\u`")?;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_compactly() {
        let src = r#"{ "a": 1, "b": [true, null, "x\ny"], "c": {"d": 1.5} }"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(
            v.render_compact(),
            r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":1.5}}"#
        );
        // Round trip is a fixpoint.
        let again = Json::parse(&v.render_compact()).unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn preserves_object_key_order() {
        let src = r#"{"z":1,"a":2,"m":3}"#;
        assert_eq!(Json::parse(src).unwrap().render_compact(), src);
    }

    #[test]
    fn rejects_hostile_shapes() {
        assert!(Json::parse(&"[".repeat(1000)).is_err()); // depth bomb
        assert!(Json::parse("{\"a\":1,}").is_err()); // trailing comma
        assert!(Json::parse("1 2").is_err()); // trailing garbage
        assert!(Json::parse("\"abc").is_err()); // unterminated
        assert!(Json::parse("1e999").is_err()); // overflow
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""A😀""#).unwrap(),
            Json::Str("A\u{1F600}".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired surrogate
    }

    #[test]
    fn number_formatting_is_stable() {
        assert_eq!(fmt_num(110.0), "110");
        assert_eq!(fmt_num(1.5), "1.5");
        assert_eq!(fmt_num(-0.25), "-0.25");
        assert_eq!(fmt_num(f64::NAN), "null");
        // Tiny and huge non-integers take the exponent form.
        assert_eq!(fmt_num(4.300991475928116e-16), "4.300991475928116e-16");
        assert_eq!(fmt_num(1e-7), "1e-7");
        assert_eq!(fmt_num(-2.5e-9), "-2.5e-9");
        assert_eq!(fmt_num(5e-324), "5e-324");
        assert_eq!(fmt_num(1e21), "1e21");
        assert_eq!(fmt_num(-1.5e300), "-1.5e300");
        // The bounds themselves, and the plain range next to them.
        assert_eq!(fmt_num(1e-6), "0.000001");
        assert_eq!(fmt_num(1.25e-5), "0.0000125");
        assert_eq!(fmt_num(1e20), "100000000000000000000");
        assert_eq!(fmt_num(0.0), "0");
        for n in [
            4.300991475928116e-16,
            1e-7,
            -2.5e-9,
            5e-324,
            f64::MIN_POSITIVE,
            f64::from_bits(1e-6f64.to_bits() - 1),
            1e-6,
            0.1,
            1.5,
            123456.789,
            1e15 + 0.5,
            1e20,
            1e21,
            f64::MAX,
            -f64::MAX,
        ] {
            assert_eq!(Json::parse(&fmt_num(n)), Ok(Json::Num(n)), "{n:e}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
