//! A minimal hand-rolled JSON reader/writer for the trace format and
//! the `ic-net` wire protocol.
//!
//! The workspace is zero-external-deps by design, so the JSONL trace
//! files (and the length-prefixed frames `ic-net` exchanges over TCP)
//! are parsed with a small recursive-descent parser. Numbers keep
//! their raw text so `u64` seeds and `f64` timestamps both round-trip
//! exactly through the shortest `Display` form Rust emits.
//! `Scanner` reads a flat object in one pass without building the
//! tree, for the trace reader's event lines.

use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`: a number, or a numeric string (large seeds
    /// are written as strings so they survive `f64` readers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Seeds are written as strings (they may exceed 2^53); plain
            // numbers are accepted too.
            Json::Num(raw) => raw.parse().ok(),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// [`Json::as_u64`], narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape `s` as a JSON string literal, quotes included (RFC 8259).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// A single-pass reader of one flat JSON object, for decoders that
/// want a few fields without building a [`Json`] tree.
///
/// The caller walks the keys with [`Scanner::next_key`] and reads each
/// value with one of the typed readers, which mirror the [`Json`]
/// accessors: a value of another type is still parsed and checked,
/// then reported as `None`. Keys and escape-free strings are borrowed
/// from the input; numbers are checked once and converted in place.
/// Every syntax error carries the same message, at the same byte, as
/// [`parse`] gives for the same text.
///
/// The scanner's methods and the parser helpers they reach are
/// `#[inline]`: the trace reader calls them once per field from
/// another codegen unit, and the calls alone cost it ~20% of its time.
pub(crate) struct Scanner<'a> {
    p: Parser<'a>,
    /// Whether a key was read since the opening brace.
    started: bool,
    /// Whether the closing brace has been read.
    closed: bool,
}

impl<'a> Scanner<'a> {
    /// A scanner over one complete document.
    #[inline]
    pub(crate) fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            p: Parser::new(text),
            started: false,
            closed: false,
        }
    }

    /// Enter the top-level object. A document that is not an object
    /// is parsed whole instead and yields `Ok(false)`.
    #[inline]
    pub(crate) fn begin_object(&mut self) -> Result<bool, String> {
        self.p.skip_ws();
        if self.p.peek() != Some(b'{') {
            self.p.value()?;
            self.closed = true;
            return Ok(false);
        }
        self.p.pos += 1;
        self.p.skip_ws();
        if self.p.peek() == Some(b'}') {
            self.p.pos += 1;
            self.closed = true;
        }
        Ok(true)
    }

    /// The next key, positioned at its value, or `None` once the
    /// object is closed. Each key's value must be read before the
    /// next call.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.closed {
            return Ok(None);
        }
        if self.started {
            self.p.skip_ws();
            match self.p.peek() {
                Some(b',') => self.p.pos += 1,
                Some(b'}') => {
                    self.p.pos += 1;
                    self.closed = true;
                    return Ok(None);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.p.pos)),
            }
        }
        self.started = true;
        self.p.skip_ws();
        let key = self.p.str_cow()?;
        self.p.skip_ws();
        self.p.expect(b':')?;
        self.p.skip_ws();
        Ok(Some(key))
    }

    /// The value as a string ([`Json::as_str`]).
    #[inline]
    pub(crate) fn str_value(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.p.peek() {
            Some(b'"') => self.p.str_cow().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// The value as `u64` ([`Json::as_u64`]): a number, or a numeric
    /// string.
    #[inline]
    pub(crate) fn u64_value(&mut self) -> Result<Option<u64>, String> {
        match self.p.peek() {
            Some(b'"') => Ok(self.p.str_cow()?.parse().ok()),
            Some(b'-' | b'0'..=b'9') => self.p.number_u64(),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// The value as `f64` ([`Json::as_f64`]): numbers only.
    #[inline]
    pub(crate) fn f64_value(&mut self) -> Result<Option<f64>, String> {
        match self.p.peek() {
            Some(b'-' | b'0'..=b'9') => self.p.number_f64().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Parse and check a value the caller does not want.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        self.p.value().map(drop)
    }

    /// Read to the end of the object, then reject trailing input.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        while self.next_key()?.is_some() {
            self.skip_value()?;
        }
        self.p.end()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    #[inline]
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Skip trailing whitespace and demand the end of the input.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A string, borrowed from the input when it holds no escape;
    /// anything else goes through [`Parser::string`].
    #[inline]
    fn str_cow(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() == Some(b'"') {
            let body = self.pos + 1;
            for (end, &b) in self.bytes.iter().enumerate().skip(body) {
                match b {
                    b'"' => {
                        self.pos = end + 1;
                        return Ok(Cow::Borrowed(&self.text[body..end]));
                    }
                    b'\\' => break,
                    _ => {}
                }
            }
        }
        self.string().map(Cow::Owned)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: combine when a low half
                            // follows, otherwise substitute U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multibyte UTF-8 character. The input
                    // is a &str, so boundaries are valid; the lead byte
                    // fixes the encoded length, and only that window is
                    // re-validated — not the whole remaining input,
                    // which would make long strings quadratic to parse.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| "invalid utf-8")?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| format!("truncated input at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(cp)
    }

    /// Scan a number token: an optional `-`, then every byte that can
    /// belong to a number. Returns its start and text.
    #[inline]
    fn number_token(&mut self) -> (usize, &'a str) {
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
        // The token is ASCII, so both ends are char boundaries.
        (start, &self.text[start..self.pos])
    }

    /// A number, checked by parsing it as `f64`.
    #[inline]
    fn number_f64(&mut self) -> Result<f64, String> {
        let (start, raw) = self.number_token();
        checked_f64(start, raw)
    }

    /// A number as `u64`, `None` when it is valid JSON but no `u64`
    /// (negative, fractional, exponent, overflow). Digits alone always
    /// parse as `f64`, so a token of digits is converted as it is
    /// scanned; any other token cannot be a `u64` and is only checked.
    #[inline]
    fn number_u64(&mut self) -> Result<Option<u64>, String> {
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return Ok(value);
        }
        self.pos = start;
        let (start, raw) = self.number_token();
        checked_f64(start, raw).map(|_| None)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.number_f64()?;
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }
}

/// The one number check: a token is valid when it parses as `f64`.
fn checked_f64(start: usize, raw: &str) -> Result<f64, String> {
    raw.parse()
        .map_err(|_| format!("invalid number '{raw}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn u64_seeds_round_trip_via_strings() {
        let seed = u64::MAX;
        let v = parse(&format!("{{\"seed\": \"{seed}\"}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn string_escaping_round_trips() {
        for s in ["plain", "with \"quotes\"", "tab\tnl\n", "uni ✓", "\u{1}"] {
            let enc = json_string(s);
            let v = parse(&enc).unwrap();
            assert_eq!(v.as_str(), Some(s), "{enc}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
