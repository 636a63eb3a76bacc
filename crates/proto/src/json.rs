//! A minimal JSON value model: one compact writer plus a
//! recursive-descent parser.
//!
//! This is the codec of the bench artifacts, the bench-trend checker
//! and the `oov-serve` wire protocol. On a served cache hit the codec
//! is most of the server's work: it decodes the request and hashes
//! the request's canonical encoding into the cache key. The reply
//! itself is bytes the server encoded once, on the miss. Both halves
//! are written to touch each byte once:
//!
//! * There is one writer, and it is generic over a [`Sink`]: the
//!   place its bytes go, one `&str` piece at a time. A `String` sink
//!   ([`Json::encode`], [`Json::encode_into`]) collects the encoding.
//!   An [`Fnv1a`] sink hashes the same bytes as they pass, so a
//!   fingerprint never materialises the encoding it hashes. The writer
//!   allocates no temporary per key, string or number: integers go
//!   through a digit loop, and a string's runs of bytes that need no
//!   escape are put whole. [`Display`](fmt::Display) and
//!   [`Json::pretty`] share the same writer.
//! * The parser slices strings without escapes from the input (one
//!   exact-size allocation each) and accumulates short integer
//!   literals without going through `str::parse::<f64>`.
//!
//! The output is byte-identical by contract, whatever the sink:
//! request fingerprints hash the encoding and the journal stores it,
//! so a changed byte would orphan every cached result. Golden literals
//! in the `oov-isa` and `oov-serve` tests pin it.
//!
//! The parser accepts full JSON minus exotica (no `\u` escapes beyond
//! the Basic Multilingual Plane's direct code points), with a depth
//! limit so untrusted wire input cannot overflow the stack. Objects
//! preserve insertion order (they are association vectors, not maps),
//! so an encode is deterministic.

use std::fmt;
use std::hash::Hasher as _;

use crate::Fnv1a;

/// Maximum nesting depth the parser accepts. Wire requests are three
/// levels deep; anything past this is hostile or corrupt.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers are exact up to 2^53, far beyond any
    /// counter this workspace produces.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: an ordered association list (no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (must consume the whole input, modulo
    /// surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with a byte offset on malformed input,
    /// including a number literal too large for an `f64`.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Compact single-line encoding: the wire format, one value per
    /// line. Keys and array items are separated by `", "` and keys
    /// from values by `": "`. [`Display`](fmt::Display) and
    /// [`Json::pretty`] go through the same writer.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding ([`Json::encode`]'s bytes) to any
    /// [`Sink`]: a `String` to build a line in a reused buffer, or an
    /// [`Fnv1a`] to hash the encoding without materialising it.
    pub fn encode_into<S: Sink>(&self, out: &mut S) {
        self.write_compact(out);
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the format of the committed `BENCH_*.json` artifacts.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact<S: Sink>(&self, out: &mut S) {
        match self {
            Json::Null => out.put("null"),
            Json::Bool(b) => out.put(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.put("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.put(", ");
                    }
                    item.write_compact(out);
                }
                out.put("]");
            }
            Json::Obj(pairs) => {
                out.put("{");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.put(", ");
                    }
                    write_escaped(out, k);
                    out.put(": ");
                    v.write_compact(out);
                }
                out.put("}");
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a quoted JSON string. Runs of bytes that need no
/// escape are copied whole; every escaped byte is ASCII, so the run
/// boundaries are always char boundaries.
fn write_escaped<S: Sink>(out: &mut S, s: &str) {
    const HEX: &str = "0123456789abcdef";
    out.put("\"");
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.put(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            _ => {
                let (hi, lo) = (usize::from(b >> 4), usize::from(b & 0xf));
                out.put("\\u00");
                out.put(&HEX[hi..=hi]);
                out.put(&HEX[lo..=lo]);
            }
        }
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// Integers below 2^53 in magnitude print as integers (no `.0`, no
/// exponent) through a digit loop; other finite numbers use the
/// shortest round-trip `{}` form; JSON has no Inf/NaN, so those print
/// as the conventional stand-in `null`.
fn write_num<S: Sink>(out: &mut S, n: f64) {
    if !n.is_finite() {
        out.put("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write_int(out, n as i64);
    } else {
        use fmt::Write as _;
        let _ = write!(Fmt(out), "{n}");
    }
}

/// Writes `n` in decimal, exactly as `n.to_string()` would.
fn write_int<S: Sink>(out: &mut S, n: i64) {
    let mut v = n.unsigned_abs();
    // 19 digits for |i64::MIN|, plus the sign.
    let mut text = [0u8; 20];
    let mut at = text.len();
    loop {
        at -= 1;
        text[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        text[at] = b'-';
    }
    // Digits and a sign are ASCII, so this never fails.
    out.put(std::str::from_utf8(&text[at..]).unwrap_or_default());
}

/// Where the writer's bytes go. Every encoding is a sequence of `put`
/// calls, so one writer serves every consumer: a `String` collects
/// the bytes, an [`Fnv1a`] hashes them as they pass.
pub trait Sink {
    /// Appends `s`.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

/// Adapts a [`Sink`] to `fmt::Write`, for the non-integral numbers
/// that go through `{}` formatting.
struct Fmt<'a, S>(&'a mut S);

impl<S: Sink> fmt::Write for Fmt<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s);
        Ok(())
    }
}

/// Compact single-line encoding, the same bytes as [`Json::encode`].
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// A parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses a string. The plain runs between escapes are sliced from
    /// the input: they start and end at ASCII bytes (a quote, an escape
    /// sequence, a control byte) or at the input's ends, so every run is
    /// valid UTF-8 by construction. A string with no escape becomes one
    /// exact-size copy of its only run.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so an empty `out`
                    // means `run` is the whole string.
                    if out.is_empty() {
                        return Ok(run.to_owned());
                    }
                    out.push_str(run);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Parses a number. An integer literal of at most 15 digits (below
    /// 10^15 < 2^53) is accumulated as a `u64` and converted once: the
    /// conversion is exact, so it equals what `str::parse::<f64>`
    /// returns, negative zero included. Every other literal goes to
    /// `str::parse::<f64>`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut int: u64 = 0;
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_start;
        if (1..=15).contains(&digits) && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            let n = int as f64;
            return Ok(Json::Num(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            // A literal past f64's range parses as infinity, which the
            // writer can only print as `null`; reject it so everything
            // the parser accepts re-encodes to the same value.
            Ok(n) if n.is_infinite() => Err(self.err("number out of range")),
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn round_trips_nested_structure() {
        let v = Json::obj(vec![
            ("name", "swm256".into()),
            ("cycles", 12750u64.into()),
            ("ratio", 5.33.into()),
            ("flags", Json::Arr(vec![true.into(), Json::Null])),
            ("inner", Json::obj(vec![("k", "v\"with\\quotes\n".into())])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn get_finds_keys_in_order() {
        let v = Json::parse(r#"{"a": 1, "b": {"c": [1, 2, 3]}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "nul",
            "\"unterminated",
            "01x",
            "[1] trailing",
            "{\"a\": \"\\q\"}",
            "1e999",
            "-1e400",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\u{1}b".into());
        assert_eq!(v.to_string(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(Json::Num(1e15).to_string(), "1000000000000000");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    /// SplitMix64, the workspace's dependency-free PRNG.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const TWO_53: u64 = 1 << 53;

    /// A random integer below 2^53, log-uniform in magnitude so short
    /// and long literals are both common.
    fn small_int(state: &mut u64) -> u64 {
        (splitmix(state) % TWO_53) >> (splitmix(state) % 53)
    }

    #[test]
    fn integer_fast_path_matches_str_parse() {
        let mut literals: Vec<String> = [
            "0",
            "-0",
            "007",
            "-007",
            "123456789012345",
            "-999999999999999",
            "1234567890123456",
            "-9999999999999999",
            "12345678901234567",
            "99999999999999999999",
            "1.0",
            "1e3",
            "-3.5e2",
            "0.1",
            "-0.0",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for n in [TWO_53 - 1, TWO_53, TWO_53 + 1] {
            literals.push(n.to_string());
            literals.push(format!("-{n}"));
        }
        for text in &literals {
            let expected = text.parse::<f64>().unwrap();
            match Json::parse(text).unwrap() {
                Json::Num(n) => assert_eq!(n.to_bits(), expected.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn digit_loop_matches_integer_formatting() {
        let mut state = 0x0123_4567_89ab_cdef;
        let max = (TWO_53 - 1) as i64;
        let mut samples: Vec<i64> = vec![0, 1, -1, 9, 10, -10, max, -max];
        for _ in 0..10_000 {
            let n = small_int(&mut state) as i64;
            samples.push(if splitmix(&mut state) & 1 == 1 { -n } else { n });
        }
        for n in samples {
            assert_eq!(Json::Num(n as f64).encode(), n.to_string());
        }
        assert_eq!(Json::Num(-0.0).encode(), "0");
    }

    #[test]
    fn numbers_round_trip_exactly_through_write_and_parse() {
        for seed in [1u64, 2, 3, 42, 0x9e37_79b9_7f4a_7c15, 0xdead_beef_cafe_f00d] {
            let mut state = seed;
            for _ in 0..2_000 {
                let int = small_int(&mut state) as f64;
                let mut float = f64::from_bits(splitmix(&mut state));
                if !float.is_finite() {
                    float = 0.5;
                }
                let scaled = (splitmix(&mut state) % 1_000_000) as f64 / 1e3;
                for n in [int, -int, float, scaled, -scaled] {
                    let text = Json::Num(n).encode();
                    match Json::parse(&text).unwrap() {
                        Json::Num(back) => assert_eq!(back, n, "{text}"),
                        other => panic!("{text} parsed as {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn strings_parse_with_and_without_escapes() {
        for (text, expected) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            ("\"caf\u{e9} \u{2192} ok\"", "caf\u{e9} \u{2192} ok"),
            (r#""\"lead""#, "\"lead"),
            (r#""trail\n""#, "trail\n"),
            (r#""a\\b\/c\td""#, "a\\b/c\td"),
        ] {
            let value = Json::Str(expected.into());
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        }
    }

    /// Values covering every writer path: escapes and control bytes,
    /// negative, non-integral and non-finite numbers, `null`, empty and
    /// nested containers.
    fn sink_corpus() -> Vec<Json> {
        let mut corpus = vec![
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(-42.0),
            Json::Num(0.5),
            Json::Num(-3.25e-7),
            Json::Num(1e300),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num((TWO_53 - 1) as f64),
            Json::Num(-((TWO_53 - 1) as f64)),
            Json::Str(String::new()),
            Json::Str("bad \"quoted\" C:\\path\nline two\u{1}\u{1b}\ttab\r é→".into()),
            Json::Str("\u{0}\u{1f}\u{7f}".into()),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
        ];
        corpus.push(Json::Arr(corpus.clone()));
        corpus.push(Json::obj(vec![
            ("name", "swm256".into()),
            ("cycles", 12750u64.into()),
            ("ratio", 5.33.into()),
            ("flags", Json::Arr(vec![true.into(), Json::Null])),
            (
                "inner",
                Json::obj(vec![("k\t", "v\"with\\quotes\n".into())]),
            ),
        ]));
        let mut state = 7;
        for _ in 0..1_000 {
            let n = small_int(&mut state) as f64;
            let float = f64::from_bits(splitmix(&mut state));
            corpus.push(Json::Arr(vec![
                Json::Num(n),
                Json::Num(-n),
                Json::Num(float),
            ]));
        }
        corpus
    }

    #[test]
    fn every_sink_sees_the_bytes_encode_returns() {
        use crate::fingerprint_bytes;
        use std::hash::Hasher as _;
        let mut reused = String::from("stale prefix ");
        for v in sink_corpus() {
            let encoded = v.encode();
            let mut out = String::new();
            v.encode_into(&mut out);
            assert_eq!(out, encoded);
            // `encode_into` appends: a reused buffer keeps what it had.
            let before = reused.len();
            v.encode_into(&mut reused);
            assert_eq!(&reused[before..], encoded);
            reused.truncate(before);
            let mut h = Fnv1a::new();
            v.encode_into(&mut h);
            assert_eq!(
                h.finish(),
                fingerprint_bytes(encoded.as_bytes()),
                "{encoded}"
            );
        }
    }
}
