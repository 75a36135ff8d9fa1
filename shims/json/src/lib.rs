#![warn(missing_docs)]
//! Dependency-free JSON for the tulkun workspace: a [`Json`] value
//! type, a strict recursive-descent parser, compact and pretty
//! writers, and [`ToJson`]/[`FromJson`] conversion traits with an
//! [`impl_json_object!`] helper macro for plain structs.
//!
//! This replaces `serde`/`serde_json`, which cannot be fetched in the
//! offline build environment. The API mirrors the serde_json entry
//! points the repo used — [`to_string`], [`to_string_pretty`],
//! [`from_str`], [`from_slice`] — over explicit trait impls instead of
//! derives. Struct fields serialize in declaration order and objects
//! preserve insertion order, which gives deterministic bytes for equal
//! values (the cross-substrate equivalence test depends on this).
//!
//! Numbers are kept as `i64` or `f64`; every integer the workspace
//! serializes (u8..u32, small u64 counters) fits `i64` exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// A number with fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (linear; objects here are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Error for an absent required object field.
    pub fn missing_field(name: &str) -> Self {
        JsonError::new(format!("missing field `{name}`"))
    }

    /// Error for a value of the wrong JSON type.
    pub fn expected(what: &str, got: &Json) -> Self {
        JsonError::new(format!("expected {what}, got {}", got.type_name()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------- writer

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` omits ".0" for integral floats; keep it so the value
        // re-parses as a float, matching serde_json's behaviour.
        if s.contains(['.', 'e', 'E']) {
            out.push_str(&s);
        } else {
            out.push_str(&s);
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; serde_json writes null.
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(x) => write_float(out, *x),
        Json::Str(s) => write_escaped(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Json, indent: usize) {
    const STEP: usize = 2;
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(out, item, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_compact(&mut s, self);
        f.write_str(&s)
    }
}

// ---------------------------------------------------------------- parser

/// Arrays and objects may nest this deep. The parser recurses per
/// level, so without a bound one line of `[[[[…` from outside the
/// program overflows the stack; nothing the workspace serializes nests
/// past a dozen levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {word})")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // A run of ordinary characters, up to the next
                    // quote, escape or control byte. Those are ASCII,
                    // so the run ends on a character boundary of the
                    // input, which is valid UTF-8 (we only parse from
                    // &str). Taking the run whole keeps a long string
                    // linear in its length.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    if self.pos == start {
                        return Err(self.err("control character in string"));
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Parses a complete JSON document from a string.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

// ---------------------------------------------------------------- traits

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or explains why the value doesn't fit.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes to compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_compact(&mut out, &value.to_json());
    out
}

/// Serializes to human-readable, 2-space-indented JSON text.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_json(), 0);
    out
}

/// Parses a value of `T` from JSON text.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

/// Parses a value of `T` from JSON bytes (must be UTF-8).
pub fn from_slice<T: FromJson>(input: &[u8]) -> Result<T, JsonError> {
    let s =
        std::str::from_utf8(input).map_err(|e| JsonError::new(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i64::try_from(*self).expect("integer too large for JSON i64"))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| JsonError::new(format!(
                            "{} out of range for {}", i, stringify!($t)))),
                    other => Err(JsonError::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            other => Err(JsonError::expected("number", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::expected("string", other)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::expected("array", other)),
        }
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::expected("array", other)),
        }
    }
}

impl<K: ToJson + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        // Pairs, not a JSON object: keys may not be strings.
        Json::Array(
            self.iter()
                .map(|(k, v)| Json::Array(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::expected("array of pairs", v))?;
        items
            .iter()
            .map(|item| {
                let pair = item
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| JsonError::expected("[key, value] pair", item))?;
                Ok((K::from_json(&pair[0])?, V::from_json(&pair[1])?))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

macro_rules! impl_json_tuple {
    ($( ($len:literal: $($t:ident . $idx:tt),+) )*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let items = v
                    .as_array()
                    .filter(|a| a.len() == $len)
                    .ok_or_else(|| JsonError::expected(
                        concat!($len, "-element array"), v))?;
                Ok(($($t::from_json(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_json_tuple! {
    (2: A.0, B.1)
    (3: A.0, B.1, C.2)
    (4: A.0, B.1, C.2, D.3)
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct by listing
/// its fields, replacing what a serde derive used to do. Must be
/// invoked where the fields are visible. Fields serialize in the order
/// given; missing fields fail `from_json` (no defaults).
#[macro_export]
macro_rules! impl_json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::FromJson::from_json(
                        v.get(stringify!($field))
                            .ok_or_else(|| $crate::JsonError::missing_field(stringify!($field)))?,
                    )?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e3", "\"hi\""] {
            let v = parse(text).unwrap();
            let back = parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\uD83D\uDE00""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndA😀".to_string()));
        let rendered = to_string(&Json::Str("tab\there \u{1}".into()));
        assert_eq!(rendered, r#""tab\there \u0001""#);
        assert_eq!(
            parse(&rendered).unwrap(),
            Json::Str("tab\there \u{1}".into())
        );
        // Unescaped multi-byte characters pass through whole; a raw
        // control character does not.
        assert_eq!(
            parse("\"é日本😀\\n\"").unwrap(),
            Json::Str("é日本😀\n".into())
        );
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": {"d": [true, false], "e": -2.25}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "[1] x",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Unclosed and far past the bound: an error, not a stack overflow.
        let e = parse(&"[{\"a\":".repeat(100_000)).unwrap_err();
        assert!(e.to_string().contains("nesting deeper"), "{e}");
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u32,
        name: String,
        tags: Vec<(u32, String)>,
        note: Option<String>,
    }
    impl_json_object!(Demo {
        id,
        name,
        tags,
        note
    });

    #[test]
    fn object_macro_round_trips() {
        let d = Demo {
            id: 7,
            name: "x".into(),
            tags: vec![(1, "a".into()), (2, "b".into())],
            note: None,
        };
        let s = to_string(&d);
        let back: Demo = from_str(&s).unwrap();
        assert_eq!(back, d);
        let pretty = to_string_pretty(&d);
        let back2: Demo = from_slice(pretty.as_bytes()).unwrap();
        assert_eq!(back2, d);
    }

    #[test]
    fn missing_field_is_reported() {
        let err = from_str::<Demo>(r#"{"id": 1, "name": "x", "note": null}"#).unwrap_err();
        assert!(err.to_string().contains("tags"), "{err}");
    }
}
