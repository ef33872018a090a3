//! A small self-contained JSON value type with a parser and a
//! deterministic writer.
//!
//! The workspace carries no serde runtime (see `vendor/README.md`), so
//! the wire format of the API is rendered and parsed by hand through
//! this module. Two properties matter to the rest of the crate:
//!
//! * the writer is **canonical**: one space after `:` and after `,`,
//!   no newlines, object members in insertion order — the exact style
//!   the batch JSON of [`crate::batch`] has always used, so the two
//!   serializers can share bytes;
//! * `parse` ∘ `to_string` is the identity on every value this schema
//!   produces, which the round-trip tests rely on.
//!
//! Numbers are restricted to unsigned 64-bit integers — the only number
//! class the analysis schema uses; anything else is a parse error.
//!
//! # Examples
//!
//! ```
//! use twca_api::Json;
//!
//! let value = Json::parse(r#"{"k": 10, "bound": 5, "informative": true}"#).unwrap();
//! assert_eq!(value.get("bound").and_then(Json::as_u64), Some(5));
//! assert_eq!(
//!     value.to_string(),
//!     "{\"k\": 10, \"bound\": 5, \"informative\": true}"
//! );
//! ```

use std::fmt;

/// A JSON value; see the [crate docs](crate) for the wire format
/// conventions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the schema's only number class).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members keep insertion order.
    Object(Vec<(String, Json)>),
}

/// A malformed JSON document, with the byte offset of the offense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `u64` or `null` — the writer-side counterpart of optional
    /// numeric fields.
    pub fn opt_u64(value: Option<u64>) -> Json {
        value.map_or(Json::Null, Json::UInt)
    }

    /// Member lookup on an object; `None` on non-objects and missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first offense.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nesting limit of the parser. The schema never nests more than a
/// handful of levels; the cap keeps adversarial request lines (e.g.
/// 100k open brackets) from overflowing the stack of a long-lived
/// `serve` process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = self.value_inner();
        self.depth -= 1;
        value
    }

    fn value_inner(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.error("negative numbers are outside the schema")),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("non-integer numbers are outside the schema"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| self.error("integer does not fit in 64 bits"))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex4()?;
                            if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(unit)
                                        .ok_or_else(|| self.error("invalid unicode escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("unescaped control character")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte at once. All three are ASCII, so
                    // the run ends on a char boundary of `text`.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        // Exactly four hex digits: `from_str_radix` alone would also
        // accept a leading `+`, which JSON forbids.
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).expect("hex digits are ASCII");
        let value =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key `{key}`")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reprints_canonically() {
        let text = r#"{"a": null, "b": [1, 2, {"c": "x\ny"}], "d": false}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.to_string(), text);
    }

    #[test]
    fn whitespace_is_tolerated_on_input() {
        let value = Json::parse(" { \"a\" :\n[ 1 ,2 ]\t} ").unwrap();
        assert_eq!(value.to_string(), "{\"a\": [1, 2]}");
    }

    #[test]
    fn rejects_schema_foreign_numbers() {
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e9").is_err());
        assert!(Json::parse("99999999999999999999999").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(Json::parse("\"\u{1}\"").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::str("quote \" slash \\ tab \t newline \n bel \u{7}");
        let reparsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn nesting_is_bounded_but_reasonable_depth_parses() {
        let hostile = "[".repeat(100_000) + &"]".repeat(100_000);
        let error = Json::parse(&hostile).unwrap_err();
        assert!(error.message.contains("nesting"), "{error}");

        let fine = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn unicode_escapes_require_hex_digits() {
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u 041\"").is_err());
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    /// Best of five wall times of `pass`, in nanoseconds.
    fn best_of_5_ns(mut pass: impl FnMut()) -> u128 {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                pass();
                start.elapsed().as_nanos()
            })
            .min()
            .expect("five samples")
    }

    #[test]
    fn string_decode_and_escape_scale_linearly() {
        // Plain runs, escapes and multi-byte chars, so every branch of
        // both directions is on the timed path.
        let unit = "plain run é 😀 quote \" backslash \\ nl \n tab \t bel \u{7} ";
        let cost = |bytes: usize| {
            let raw = unit.repeat(bytes / unit.len());
            let doc = format!("\"{}\"", escape(&raw));
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(raw.as_str()));
            let decode = best_of_5_ns(|| {
                std::hint::black_box(Json::parse(&doc).unwrap());
            });
            let encode = best_of_5_ns(|| {
                std::hint::black_box(escape(&raw));
            });
            (decode.max(1), encode.max(1))
        };
        let (small_decode, small_encode) = cost(64 << 10);
        let (large_decode, large_encode) = cost(512 << 10);
        // 8x the input: linear code costs ~8x, quadratic code ~64x.
        assert!(
            large_decode <= 16 * small_decode,
            "decode: 512 KB took {large_decode} ns, 64 KB {small_decode} ns"
        );
        assert!(
            large_encode <= 16 * small_encode,
            "escape: 512 KB took {large_encode} ns, 64 KB {small_encode} ns"
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let value = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(value.as_str(), Some("😀"));
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }
}
