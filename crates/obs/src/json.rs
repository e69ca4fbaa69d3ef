//! A small JSON document model with an encoder and a parser.
//!
//! The workspace builds offline, so there is no serde; this module is the
//! serialization layer for run reports and trace files. Objects preserve
//! insertion order (reports are meant to be diffed as text), integers
//! round-trip exactly through a dedicated `u64` variant, and the parser
//! accepts anything the encoder emits plus ordinary hand-written JSON.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (cycle counts, event counts). Encoded
    /// without a decimal point and parsed back exactly.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, keys not deduplicated.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key–value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup (first match) on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (also accepts an integral `F64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{}` on f64 is shortest-round-trip in Rust — exactly what a
        // machine-readable report wants. Keep integral floats visibly
        // floats (a coverage of exactly 1 encodes as "1.0").
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; reports encode them as null.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped at ASCII
                // delimiters, so this slice is valid UTF-8.
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
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
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            s.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| ParseError { offset: start, message: format!("bad number '{text}'") })
    }
}

/// A value with a JSON form. Together with [`FromJson`] and
/// [`json_record!`](crate::json_record) this is the workspace's one
/// (de)serialiser: run reports, postmortems and bench tables all go
/// through it.
pub trait ToJson {
    /// The value's JSON form.
    fn to_json(&self) -> Json;
}

/// A value that can be rebuilt from its JSON form.
pub trait FromJson: Sized {
    /// Rebuild the value; the error says what was expected instead.
    fn from_json(doc: &Json) -> Result<Self, String>;

    /// What a record field of this type reads as when its key is absent;
    /// `None` (the default) makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

/// Read member `key` of the object `doc`. Errors name the key, so a
/// failure deep in a document reads as a path (`field 'spans': [3]:
/// missing field 'depth'`).
pub fn field<T: FromJson>(doc: &Json, key: &str) -> Result<T, String> {
    match doc.get(key) {
        Some(v) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
        None => T::absent().ok_or_else(|| format!("missing field '{key}'")),
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(doc: &Json) -> Result<Self, String> {
                let v = doc.as_u64().ok_or("expected a non-negative integer")?;
                <$t>::try_from(v).map_err(|_| format!("{v} overflows {}", stringify!($t)))
            }
        }
    )*};
}
json_uint!(u64, usize, u16);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

/// Flags read leniently, as every reader in the workspace always has:
/// anything but `true` — an absent key included — is `false`.
impl FromJson for bool {
    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(matches!(doc, Json::Bool(true)))
    }

    fn absent() -> Option<Self> {
        Some(false)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(doc: &Json) -> Result<Self, String> {
        doc.as_str().map(str::to_string).ok_or_else(|| "expected a string".to_string())
    }
}

/// `None` is `null`; an absent key also reads as `None`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(doc: &Json) -> Result<Self, String> {
        match doc {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(doc: &Json) -> Result<Self, String> {
        let items = doc.as_arr().ok_or("expected an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::from_json(v).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// A fixed-size array is an array of exactly `N` items.
impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(doc: &Json) -> Result<Self, String> {
        let items = Vec::<T>::from_json(doc)?;
        let n = items.len();
        items.try_into().map_err(|_| format!("array has {n} items, expected {N}"))
    }
}

/// String-keyed pairs are an object, in insertion order.
impl<T: ToJson> ToJson for Vec<(String, T)> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for Vec<(String, T)> {
    fn from_json(doc: &Json) -> Result<Self, String> {
        let Json::Obj(members) = doc else { return Err("expected an object".to_string()) };
        members
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v).map_err(|e| format!("'{k}': {e}"))?)))
            .collect()
    }
}

/// Declare a record's JSON form **once**: the declaration yields the
/// [`ToJson`] writer and the [`FromJson`] reader, so a key cannot be
/// written under one name and read under another, and adding a field is
/// one line.
///
/// *Struct form* — declares the struct itself (or several, one after
/// another); each field's key is its name, written in declaration order,
/// required on read (subject to [`FromJson::absent`]):
///
/// ```
/// phj_obs::json_record! {
///     /// A point.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Abscissa.
///         pub x: u64,
///         /// Label.
///         pub label: String,
///     }
/// }
/// use phj_obs::json::{FromJson, ToJson};
/// let p = Point { x: 3, label: "a".into() };
/// assert_eq!(p.to_json().render(), r#"{"x":3,"label":"a"}"#);
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// ```
///
/// *Table form* — `impl Type { "key" => mode(..), .. }` for a type
/// declared elsewhere (another crate's, or one whose JSON shape is not
/// its Rust shape). Reading starts from `Type::default()`, or from
/// `seed` when written `impl Type [seed] { .. }`, and assigns entry by
/// entry. Modes:
///
/// * `rw(path)` — required field at `self.path` (`a` or `a.b`);
/// * `opt(path)` — an `Option` field whose key is omitted when `None`
///   and, when present, must hold a value (`null` is rejected);
/// * `emit(r => expr)` — a derived, write-only key (`r` is `&self`);
///   ignored on read;
/// * `with(path, put, get)` — a field with its own codec:
///   `put(&field) -> Json`, `get(doc, key) -> Result<Field, String>`.
#[macro_export]
macro_rules! json_record {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$(
                    (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),
                )*])
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(doc: &$crate::json::Json) -> Result<Self, String> {
                Ok($name { $( $field: $crate::json::field(doc, stringify!($field))?, )* })
            }
        }
    )+};
    ( impl $ty:ty { $($entries:tt)* } ) => {
        $crate::json_record! { impl $ty [<$ty>::default()] { $($entries)* } }
    };
    ( impl $ty:ty [$seed:expr] { $( $key:expr => $mode:ident ( $($arg:tt)* ) ),* $(,)? } ) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let members = [$( $crate::json_record!(@put $mode self $key, $($arg)*), )*];
                $crate::json::Json::Obj(members.into_iter().flatten().collect())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(doc: &$crate::json::Json) -> Result<Self, String> {
                let mut out: $ty = $seed;
                $( $crate::json_record!(@get $mode out doc $key, $($arg)*); )*
                Ok(out)
            }
        }
    };
    (@put rw $s:ident $key:expr, $f:ident $(. $r:ident)*) => {
        Some(($key.to_string(), $crate::json::ToJson::to_json(&$s.$f$(.$r)*)))
    };
    (@get rw $out:ident $doc:ident $key:expr, $f:ident $(. $r:ident)*) => {
        $out.$f$(.$r)* = $crate::json::field($doc, $key)?;
    };
    (@put opt $s:ident $key:expr, $f:ident $(. $r:ident)*) => {
        $s.$f$(.$r)*.as_ref().map(|v| ($key.to_string(), $crate::json::ToJson::to_json(v)))
    };
    (@get opt $out:ident $doc:ident $key:expr, $f:ident $(. $r:ident)*) => {
        $out.$f$(.$r)* = match $doc.get($key) {
            Some(v) => Some(
                $crate::json::FromJson::from_json(v)
                    .map_err(|e| format!("field '{}': {e}", $key))?,
            ),
            None => None,
        };
    };
    (@put emit $s:ident $key:expr, $r:ident => $value:expr) => {{
        let $r = $s;
        Some(($key.to_string(), $crate::json::ToJson::to_json(&$value)))
    }};
    (@get emit $out:ident $doc:ident $key:expr, $r:ident => $value:expr) => {};
    (@put with $s:ident $key:expr, $f:ident $(. $r:ident)*, $put:expr, $get:expr) => {
        Some(($key.to_string(), $put(&$s.$f$(.$r)*)))
    };
    (@get with $out:ident $doc:ident $key:expr, $f:ident $(. $r:ident)*, $put:expr, $get:expr) => {
        $out.$f$(.$r)* = $get($doc, $key)?;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_documents() {
        let doc = Json::obj(vec![
            ("name", Json::Str("probe".into())),
            ("cycles", Json::U64(1234)),
            ("rate", Json::F64(0.5)),
            ("tags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"probe","cycles":1234,"rate":0.5,"tags":[true,null]}"#
        );
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g λ 🚀";
        let rendered = Json::Str(nasty.into()).render();
        assert!(rendered.contains("\\\""));
        assert!(rendered.contains("\\\\"));
        assert!(rendered.contains("\\n"));
        assert!(rendered.contains("\\u0001"));
        assert_eq!(parse(&rendered).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""λ""#).unwrap(), Json::Str("λ".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d x""#).is_err(), "lone high surrogate rejected");
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 1;
        let doc = Json::U64(big);
        assert_eq!(parse(&doc.render()).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj(vec![
            ("spans", Json::Arr(vec![
                Json::obj(vec![("name", Json::Str("build".into())), ("n", Json::U64(0))]),
                Json::obj(vec![("name", Json::Str("probe".into())), ("n", Json::U64(7))]),
            ])),
            ("f", Json::F64(-12.25)),
        ]);
        let compact = parse(&doc.render()).unwrap();
        let pretty = parse(&doc.render_pretty()).unwrap();
        assert_eq!(compact, doc);
        assert_eq!(pretty, doc);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "12 34", "\"abc", "{'a':1}", "nulll"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate() {
        let doc = parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::F64(1.0).render(), "1.0");
        assert_eq!(Json::F64(0.0).render(), "0.0");
        assert_eq!(Json::F64(-3.0).render(), "-3.0");
    }
}
