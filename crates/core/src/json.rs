//! The workspace's one JSON layer: a streaming writer for every report,
//! artifact and wire message, and the hardened decoder that reads them
//! back. The build is std-only (no crates.io, so no serde).
//!
//! **Writer.** [`ToJson::write_json`] appends a value to a caller-owned
//! `String`; [`json_object!`](crate::json_object) and [`object`] append
//! an object field by field. No value tree is built on the way out: a
//! report streams straight from its struct into the output buffer, which
//! matters on the daemon's cache-hit path, where every hit re-encodes a
//! cached report. Strings escape `"`, `\`, `\n`, `\r`, `\t` and the
//! other control characters (as `\u00xx`); everything else passes
//! through as UTF-8.
//!
//! **Decoder.** [`parse`] reads one value into a [`Json`] tree, hardened
//! the way a network-facing parser must be: nesting is bounded by
//! [`MAX_DEPTH`], every error carries its byte offset, numbers follow the
//! RFC 8259 grammar exactly (`01`, `1.` and `-.5` are errors), and a
//! duplicated object key keeps its first value. Input size is bounded by
//! the caller (the daemon's frame cap).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A value that can append its JSON text to a buffer.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Serialize `value` into a fresh string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Append a JSON object, fields in the order written; each value is any
/// [`ToJson`] expression. `json_object!(out, { "k": v, .. })` appends to
/// the `&mut String` `out`; `json_object!({ "k": v, .. })` returns a new
/// `String`.
#[macro_export]
macro_rules! json_object {
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        let mut out = String::new();
        $crate::json_object!(&mut out, { $($key: $value),* });
        out
    }};
    ($out:expr, { $($key:literal : $value:expr),* $(,)? }) => {{
        let mut obj = $crate::json::object($out);
        $(obj.field($key, &$value);)*
        obj.end();
    }};
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut start = 0;
        for (i, b) in self.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1F => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is a char boundary.
            out.push_str(&self[start..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            start = i + 1;
        }
        out.push_str(&self[start..]);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Types whose `Display` text is their JSON text.
macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_to_json!(bool, u32, u64, u128, usize);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is written as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A string-keyed map is an object, fields in key order.
impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        let mut obj = object(out);
        for (k, v) in self {
            obj.field(k.as_ref(), v);
        }
        obj.end();
    }
}

/// Pre-formatted JSON text written verbatim (a float printed to a fixed
/// precision, say). The caller vouches that it is one JSON value.
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// A value written by a closure, for one-off shapes with no type of
/// their own; build it with [`from_fn`].
pub struct FromFn<F>(F);

/// Wrap `write` as a [`ToJson`] value.
pub fn from_fn<F: Fn(&mut String)>(write: F) -> FromFn<F> {
    FromFn(write)
}

impl<F: Fn(&mut String)> ToJson for FromFn<F> {
    fn write_json(&self, out: &mut String) {
        (self.0)(out);
    }
}

/// An object being appended to a caller's buffer, for fields only known
/// at run time: open it with [`object`], add fields with [`Obj::field`],
/// close it with [`Obj::end`].
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

/// Open an object at the end of `out`.
pub fn object(out: &mut String) -> Obj<'_> {
    out.push('{');
    Obj { out, empty: true }
}

impl Obj<'_> {
    /// Append `"key":value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Close the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }
}

/// Maximum nesting depth accepted before a document is rejected.
pub const MAX_DEPTH: usize = 32;

/// A decoded JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (decoded as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order. Duplicate keys are kept as-is;
    /// [`Json::get`] returns the *first* match, so a hostile duplicate
    /// key cannot shadow an already-validated field.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integer payload, when this is an integral number
    /// that fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A located decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

/// Decode one JSON value covering the whole input (trailing
/// non-whitespace is an error: a frame is exactly one value).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
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
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consume `b` when it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02X}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// The comma-separated items of an array or object, up to `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
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
                    let unescaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(unescaped);
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte: it ends at ASCII, so at a char
                    // boundary.
                    let rest = &self.src[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` consumed), joining
    /// a surrogate pair into one scalar; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let mut cp = hi;
        if (0xD800..0xDC00).contains(&hi) && self.src[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        }
        char::from_u32(cp).ok_or_else(|| self.err("lone surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.src.get(self.pos..self.pos + 4);
        let v = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// One or more ASCII digits, or an error naming what was expected.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err(format!("expected {what}")));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    /// RFC 8259: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits("a digit")?;
        }
        if self.eat(b'.') {
            self.digits("a digit after '.'")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits("an exponent digit")?;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_request_shapes() {
        let v = parse(r#"{"op":"evaluate","id":"r1","max":42,"deep":[1,2,{"x":true}]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("evaluate"));
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("missing"), None);
        match v.get("deep") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("x").and_then(Json::as_bool), Some(true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\n\"b\"\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\"b\"Aé😀"));
    }

    #[test]
    fn first_duplicate_key_wins() {
        let v = parse(r#"{"op":"ping","op":"shutdown"}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
    }

    #[test]
    fn rejects_malformed_inputs_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01x",
            "nul",
            "{}garbage",
            "\"\\u12\"",
            "\"\\ud800\"",
            "1e400",
            "\"\u{0001}\"",
            "01",
            "00",
            "-01.0",
            "1.",
            "-.5",
            "1.e5",
            "{\"op\":\"ping\",\"n\":01}",
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(e.offset <= bad.len(), "{bad}: {e}");
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn accepts_the_rfc_number_grammar() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-7.25", -7.25),
            ("0.5e2", 50.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
        ] {
            assert_eq!(parse(text), Ok(Json::Num(want)), "{text}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        parse(&ok).unwrap();
    }

    #[test]
    fn numbers_roundtrip_integrality() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn written_strings_parse_back() {
        let specials = ['"', '\\', '/', '\u{7F}', '\u{2028}', 'é', '😀'];
        for c in ('\u{0}'..='\u{1F}').chain(specials) {
            let s = format!("a{c}b");
            assert_eq!(parse(&to_string(&s)), Ok(Json::Str(s.clone())), "{c:?}");
        }
        assert_eq!(to_string("\u{1}\n"), "\"\\u0001\\n\"");
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn writer_streams_objects_arrays_and_nulls() {
        let map: BTreeMap<&str, u64> = [("b", 2), ("a", 1)].into_iter().collect();
        let none: Option<u64> = None;
        let mut out = String::new();
        object(&mut out)
            .field("s", "x")
            .field("t", &true)
            .field("n", &none)
            .field("v", &[1u32, 2][..])
            .field("m", &map)
            .field("f", &Raw("1.500"))
            .field("e", &from_fn(|out| object(out).end()))
            .end();
        assert_eq!(
            out,
            r#"{"s":"x","t":true,"n":null,"v":[1,2],"m":{"a":1,"b":2},"f":1.500,"e":{}}"#
        );
        parse(&out).unwrap();
        let inner = crate::json_object!({ "k": "v", "n": 1u64 });
        assert_eq!(inner, r#"{"k":"v","n":1}"#);
        crate::json_object!(&mut out, { "inner": Raw(&inner), "len": inner.len() });
        assert!(
            out.ends_with(r#"}{"inner":{"k":"v","n":1},"len":15}"#),
            "{out}"
        );
    }
}
