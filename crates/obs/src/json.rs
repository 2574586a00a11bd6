//! A minimal JSON value type, encoder, and parser.
//!
//! The workspace builds offline with no external crates, so the pipeline
//! report, the CLI `--json` output and `xmltc serve`'s responses share
//! this hand-rolled encoder instead of `serde_json`. A small
//! recursive-descent parser ([`Json::parse`]) reads the same dialect back
//! — `xmltc bench-diff` uses it to read the benchmark's result files, and
//! `xmltc serve` parses every request line with it.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a single hostile line of
/// nested `[` would overflow the stack and abort the process; every
/// document this workspace writes or reads nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values encode as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a dotted path through nested objects, e.g.
    /// `route_walk.memo_hits`. A numeric segment indexes into an array, so
    /// `runs.0.spans.0.wall_ms` reaches inside a report's span
    /// list. Keys themselves must not contain dots.
    pub fn at(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = match cur {
                Json::Array(items) => items.get(key.parse::<usize>().ok()?)?,
                _ => cur.get(key)?,
            };
        }
        Some(cur)
    }

    /// The numeric value as `f64` (from any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The unsigned integer value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document. Numbers without a fraction or exponent
    /// become [`Json::U64`]/[`Json::I64`] (falling back to [`Json::F64`]
    /// on overflow); everything else numeric becomes [`Json::F64`].
    /// Nesting deeper than [`MAX_DEPTH`] is an error at the offset of the
    /// first bracket past the cap.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Encodes compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Encodes with two-space indentation.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest representation that round-trips.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    escape_into(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

/// A parse failure: a message plus the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
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
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let n = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if !fractional {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<i64>() {
                    return Ok(Json::I64(-n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonParseError {
                message: format!("invalid number `{text}`"),
                offset: start,
            })
    }
}

/// Conversion into [`Json`], implemented for the primitive types, tuples,
/// vectors and options that the experiment harness records.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_tojson_uint {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        })*
    };
}
impl_tojson_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_tojson_int {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::I64(*self as i64)
            }
        })*
    };
}
impl_tojson_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

macro_rules! impl_tojson_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
    };
}
impl_tojson_tuple!(A: 0);
impl_tojson_tuple!(A: 0, B: 1);
impl_tojson_tuple!(A: 0, B: 1, C: 2);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tojson_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.encode(), "null");
        assert_eq!(true.to_json().encode(), "true");
        assert_eq!(42u32.to_json().encode(), "42");
        assert_eq!((-7i64).to_json().encode(), "-7");
        assert_eq!(1.5f64.to_json().encode(), "1.5");
        assert_eq!(f64::NAN.to_json().encode(), "null");
        assert_eq!("a\"b\\c\n".to_json().encode(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn composites() {
        let v = vec![(1u32, "x"), (2u32, "y")];
        assert_eq!(v.to_json().encode(), r#"[[1,"x"],[2,"y"]]"#);
        let o = Json::obj(vec![("a", Json::U64(1)), ("b", Json::Array(vec![]))]);
        assert_eq!(o.encode(), r#"{"a":1,"b":[]}"#);
        assert_eq!(None::<u32>.to_json().encode(), "null");
    }

    #[test]
    fn pretty_is_valid_and_indented() {
        let o = Json::obj(vec![("k", Json::Array(vec![Json::U64(1), Json::U64(2)]))]);
        let s = o.encode_pretty();
        assert!(s.contains("\n  \"k\": [\n    1,\n    2\n  ]"));
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!("\u{1}".to_json().encode(), "\"\\u0001\"");
    }

    #[test]
    fn every_control_char_escapes_and_round_trips() {
        for c in (0u32..0x20).map(|n| char::from_u32(n).unwrap()) {
            let v = Json::Str(c.to_string());
            let enc = v.encode();
            // The encoding never contains a raw control byte...
            assert!(
                enc.bytes().all(|b| b >= 0x20),
                "raw control byte in {enc:?}"
            );
            // ...and decodes back to the original character.
            assert_eq!(
                Json::parse(&enc).unwrap(),
                v,
                "round-trip of U+{:04X}",
                c as u32
            );
        }
    }

    #[test]
    fn non_bmp_escapes_round_trip() {
        // The parser reassembles surrogate pairs into one code point.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // The encoder emits raw UTF-8 for printable non-BMP characters;
        // either spelling must round-trip through the parser.
        let v = Json::Str("\u{1F600} \u{10FFFF} π".into());
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        // Broken surrogates are rejected, with the offset pointing in.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dx""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
        assert!(Json::parse(r#""\ud83d\ud83d""#).is_err());
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(x).encode(), "null");
            assert_eq!(Json::F64(x).encode_pretty(), "null");
        }
        // Inside composites too: the document stays parseable.
        let doc = Json::obj(vec![("bad", Json::F64(f64::NAN)), ("ok", Json::F64(0.5))]);
        assert_eq!(doc.encode(), r#"{"bad":null,"ok":0.5}"#);
        assert_eq!(
            Json::parse(&doc.encode()).unwrap().at("bad"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F64(2000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        // Integer overflow falls back to floating point.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(_)
        ));
    }

    #[test]
    fn parse_rejects_garbage_with_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("nul").is_err());
        let e = Json::parse("[1] trailing").unwrap_err();
        assert!(e.message.contains("trailing"));
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("at byte 4"));
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        // Exactly at the cap parses, for arrays and objects alike.
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        let objects = "{\"k\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&objects).is_ok());
        // One level past it is an error pointing at the offending bracket.
        let e = Json::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        let mixed = "[{\"k\":".repeat(MAX_DEPTH / 2) + "[";
        assert_eq!(Json::parse(&mixed).unwrap_err().offset, mixed.len() - 1);
        // A hostile line far past the cap fails fast instead of
        // overflowing the stack, whether or not it is closed.
        let deep = "[".repeat(300_000);
        assert_eq!(Json::parse(&deep).unwrap_err().offset, MAX_DEPTH);
        assert_eq!(
            Json::parse(&nested("[", "]", 300_000)).unwrap_err().offset,
            MAX_DEPTH
        );
    }

    #[test]
    fn encode_parse_round_trips_nested_documents() {
        let doc = Json::obj(vec![
            ("schema", Json::Str("test/1".into())),
            (
                "route_walk",
                Json::obj(vec![
                    ("pairs", Json::U64(13467)),
                    ("rate", Json::F64(0.25)),
                    ("neg", Json::I64(-3)),
                ]),
            ),
            (
                "list",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::Str("x\ny".into())]),
            ),
            ("empty_obj", Json::obj(vec![])),
            ("empty_arr", Json::Array(vec![])),
        ]);
        for enc in [doc.encode(), doc.encode_pretty()] {
            assert_eq!(Json::parse(&enc).unwrap(), doc);
        }
        // Dotted-path and typed accessors walk the parsed document.
        let back = Json::parse(&doc.encode()).unwrap();
        assert_eq!(back.at("route_walk.pairs").unwrap().as_u64(), Some(13467));
        assert_eq!(back.at("route_walk.rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(back.at("route_walk.neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(back.at("schema").unwrap().as_str(), Some("test/1"));
        assert!(back.at("route_walk.missing").is_none());
        assert!(back.at("list.pairs").is_none());
    }
}
