//! A minimal JSON tree and renderer.
//!
//! The workspace builds offline (no serde); the telemetry types are flat
//! structs of integers and strings, so a small value tree with correct
//! string escaping and non-finite-float handling covers everything the
//! snapshot and bench dumps need.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers render without a fraction.
    Int(i64),
    /// Unsigned integers render without a fraction (counters are u64 and
    /// may exceed `i64::MAX`).
    UInt(u64),
    /// Finite floats render via Rust's shortest round-trip formatting;
    /// NaN/±inf render as `null` (JSON has no spelling for them).
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving insertion order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of every item's JSON form.
    pub fn arr<T: ToJson>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(ToJson::to_json).collect())
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why parsing failed: a one-line message with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    pub at: usize,
    pub message: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parse a JSON document. The inverse of [`Json::render`] for the
    /// subset this crate emits: numbers without exponents parse as
    /// `Int`/`UInt` when integral, `Float` otherwise; objects preserve key
    /// order; escape sequences are the ones [`Json::render`] writes plus
    /// `\/`, `\b`, `\f`, and `\uXXXX` (surrogate pairs supported).
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            buf: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.buf.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`/`UInt`/`Float` as f64, `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// Nesting depth cap: parsing is recursive, so an input of 100k `[`s must
/// hit an error, not the thread's stack guard.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.buf.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonParseError> {
        if self.buf.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.buf[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.buf.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.buf.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.buf.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.buf.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':'")?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((k, v));
                    self.skip_ws();
                    match self.buf.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.buf.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.buf.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.buf[start..self.pos]).expect("ascii slice of utf-8 input");
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Float(v)),
            _ => Err(JsonParseError {
                at: start,
                message: "invalid number",
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected string")?;
        let mut s = String::new();
        loop {
            match self.buf.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.buf.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: require \uXXXX low half
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one full UTF-8 scalar from the input
                    let rest = std::str::from_utf8(&self.buf[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Read exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.buf.get(self.pos) {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Conversion into the [`Json`] tree; every telemetry type implements it.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn containers_render_in_order() {
        let j = Json::obj(vec![
            ("name", "q0".into()),
            ("points", Json::Arr(vec![Json::UInt(1), Json::Float(2.5)])),
        ]);
        assert_eq!(j.render(), r#"{"name":"q0","points":[1,2.5]}"#);
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let samples = [
            Json::Null,
            Json::Bool(false),
            Json::Int(-42),
            Json::Int(i64::MIN),
            Json::UInt(u64::MAX),
            Json::Float(2.5),
            Json::Str("a\"b\\c\nd\u{1}é".into()),
            Json::obj(vec![
                ("xs", Json::Arr(vec![Json::Int(1), Json::Null])),
                ("nested", Json::obj(vec![("k", Json::Float(0.125))])),
            ]),
        ];
        for v in samples {
            let text = v.render();
            assert_eq!(Json::parse(&text), Ok(v.clone()), "round-trip of {text}");
        }
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\ud83d\\ude00\" } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Int(1), Json::Int(2)]))
        );
        assert_eq!(v.get("b"), Some(&Json::Str("A😀".into())));
        assert_eq!(v.get("a").unwrap().as_f64(), None);
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1] x",
            "\"\\q\"",
            "\"\\ud800x\"",
            "1e999",
            "nul",
            "[",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // deep nesting errors out instead of blowing the stack
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
}
