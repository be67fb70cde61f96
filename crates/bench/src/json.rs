//! A minimal JSON parser and writer for the bench artifacts.
//!
//! The workspace builds offline (no serde), but CI needs to *gate* on the
//! structure of the bench artifacts — a malformed or schema-drifted artifact
//! must fail the build, not get silently uploaded.  This module implements
//! just enough of RFC 8259 for that: objects, arrays, strings with the
//! standard escapes, numbers, booleans and null.  The parser is a
//! validator's parser — strict on structure, with byte-offset error
//! reporting — and the writer ([`JsonValue`]'s `Display`) escapes every
//! control character, so whatever it writes the parser reads back unchanged.
//! It is not a general-purpose JSON library.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers the bench writer's
    /// integer and fixed-point outputs exactly).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.  On duplicate keys [`JsonValue::get`]
    /// returns the last value, as most parsers do.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with these fields, in this order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> Self {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        JsonValue::Object(fields.collect())
    }

    /// The value at an object key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for JsonValue {
            fn from($v: $t) -> Self {
                $value
            }
        }
    )*};
}
json_from!(
    &str => |s| JsonValue::String(s.to_string()),
    String => |s| JsonValue::String(s),
    bool => |b| JsonValue::Bool(b),
    f64 => |n| JsonValue::Number(n),
    u32 => |n| JsonValue::Number(n.into()),
    u64 => |n| JsonValue::Number(n as f64),
    usize => |n| JsonValue::Number(n as f64),
);

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Writes the value as JSON.  A container that holds another container
/// puts one entry per line; a container of scalars stays on one line, so an
/// artifact reads as one line per result row.  Non-finite numbers, which
/// JSON cannot carry, are written as `null`.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl JsonValue {
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let entries: Vec<(Option<&String>, &JsonValue)> = match self {
            JsonValue::Array(items) => items.iter().map(|v| (None, v)).collect(),
            JsonValue::Object(fields) => fields.iter().map(|(k, v)| (Some(k), v)).collect(),
            JsonValue::String(s) => return write_string(f, s),
            JsonValue::Number(n) if n.is_finite() => return write!(f, "{n}"),
            JsonValue::Bool(b) => return write!(f, "{b}"),
            JsonValue::Number(_) | JsonValue::Null => return f.write_str("null"),
        };
        let (open, close) = match self {
            JsonValue::Array(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let nested = entries
            .iter()
            .any(|(_, v)| matches!(v, JsonValue::Array(_) | JsonValue::Object(_)));
        let comma = if nested { "," } else { ", " };
        let pad = |depth: usize| match nested {
            true => format!("\n{}", "  ".repeat(depth)),
            false => String::new(),
        };
        f.write_char(open)?;
        for (i, (key, value)) in entries.into_iter().enumerate() {
            write!(f, "{}{}", if i == 0 { "" } else { comma }, pad(depth + 1))?;
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        write!(f, "{}{close}", pad(depth))
    }
}

/// A string literal escaped per RFC 8259: quote, backslash and every
/// control character below U+0020.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A JSON syntax error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (rejecting trailing non-whitespace).
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                byte as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected literal {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn sequence(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        let mut fields = Vec::new();
        self.sequence((b'{', b'}'), |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(fields))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.sequence((b'[', b']'), |p| p.value().map(|v| items.push(v)))?;
        Ok(JsonValue::Array(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired — the bench writer
                            // never emits them; reject rather than mangle.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(0..=0x1F) => return Err(self.err("unescaped control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_writer_shapes() {
        let doc = r#"{
          "bench": "bench_ingest",
          "schema_version": 2,
          "meta": {"quick": false, "backends": ["polynomial", "tabulation"]},
          "speedup": 5.113,
          "results": [{"name": "a/b/c", "ns_per_iter": 1.5e3, "iterations": 57}]
        }"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(
            v.get("schema_version").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            v.get("meta").and_then(|m| m.get("quick")),
            Some(&JsonValue::Bool(false))
        );
        let results = v.get("results").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            results[0].get("ns_per_iter").and_then(JsonValue::as_f64),
            Some(1500.0)
        );
        assert_eq!(
            results[0].get("name").and_then(JsonValue::as_str),
            Some("a/b/c")
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse_json(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse_json("-3.25").unwrap().as_f64(), Some(-3.25));
        assert_eq!(parse_json("2E-2").unwrap().as_f64(), Some(0.02));
        assert_eq!(
            parse_json("[null, true]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn syntax_errors_carry_offsets() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "1 2",
            "tru",
            "{\"a\": 01x}",
        ] {
            let err = parse_json(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?} must fail: {err}");
        }
    }

    #[test]
    fn written_strings_parse_back_unchanged() {
        let name = "x^2\n\t\"quoted\" back\\slash \u{1}\u{1f}";
        let doc = JsonValue::object([("functions", vec![name].into()), ("n", 2.5.into())]);
        assert_eq!(parse_json(&doc.to_string()), Ok(doc));
        // Escaping only `\` and `"` leaves raw control characters, which
        // RFC 8259 forbids inside a string.
        assert!(parse_json("\"x^2\n\"").is_err());
    }

    #[test]
    fn containers_of_containers_break_across_lines() {
        let row = JsonValue::object([("name", "a/b".into()), ("n", 3u64.into())]);
        let doc = JsonValue::object([
            ("bench", "b".into()),
            ("meta", JsonValue::object([("list", vec!["p"].into())])),
            ("results", JsonValue::Array(vec![row])),
            ("empty", JsonValue::Array(Vec::new())),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"bench\": \"b\",\n  \"meta\": {\n    \"list\": [\"p\"]\n  },\n  \
             \"results\": [\n    {\"name\": \"a/b\", \"n\": 3}\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse_json("\"Pătraşcu—Thorup\"").unwrap();
        assert_eq!(v.as_str(), Some("Pătraşcu—Thorup"));
    }
}
