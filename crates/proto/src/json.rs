//! A minimal JSON value model, one compact writer, and one parser that
//! both builds trees and serves typed decoders as a pull reader.
//!
//! This is the codec of the bench artifacts, the bench-trend checker
//! and the `oov-serve` wire protocol. On a served cache hit the codec
//! is most of the work: the client encodes the request, the server
//! decodes it and hashes its canonical encoding into the cache key,
//! and the client decodes the reply. That path is typed end to end and
//! builds no [`Json`] tree, and neither does the serve journal's
//! replay; the tree is kept for the artifacts, and as the oracle the
//! typed path is tested against.
//!
//! * There is one writer, and it is generic over a [`Sink`]: the
//!   place its bytes go, one `&str` piece at a time. A `String` sink
//!   collects the encoding; an [`Fnv1a`] sink hashes the same bytes as
//!   they pass, so a fingerprint never materialises the encoding it
//!   hashes. [`Json::encode_into`] walks a tree into it, and the typed
//!   encoders (`write_json` of each
//!   [`json_record!`](crate::json_record) type) put the same bytes
//!   with [`write_str`] and [`write_u64`]. The writer allocates no
//!   temporary per key, string or number: integers go through one
//!   digit writer, and a string's runs of bytes that need no escape are
//!   put whole. [`Display`](fmt::Display) and [`Json::pretty`] share
//!   the same writer.
//! * There is one parser, [`Parser`]. [`Json::parse`] builds a tree
//!   with it; a typed decoder pulls values out of it (a number, a
//!   string borrowed from the input, an object walked key by key) and
//!   skips what it does not read, through the same code, depth limit
//!   and error offsets.
//!
//! Unsigned integers are exact over the whole `u64` range. A plain
//! integer literal (digits only: no sign, fraction or exponent) that
//! fits a `u64` is read as that integer, never through an `f64`; the
//! tree holds it as [`Json::Num`] up to 2^53, where an `f64` is still
//! exact, and as [`Json::Int`] past it. Every other literal (`1.0`,
//! `1e0`, `-0`) is read as the nearest `f64`, and reads as a `u64` only
//! if that is a non-negative integer no larger than 2^53. The writer
//! puts a `u64` as its exact digits, and an integral `f64` past 2^53
//! in exponent form, so that no `f64` re-reads as an exact integer.
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

use std::borrow::Cow;
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
    /// Any number, as an `f64`: exact for integers up to 2^53.
    Num(f64),
    /// A non-negative integer past 2^53, held exactly: what the parser
    /// reads from a plain integer literal there, and what
    /// `Json::from(u64)` makes of such a value. Integers up to 2^53 are
    /// [`Json::Num`], so each number has one form.
    Int(u64),
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
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer: a
    /// [`Json::Int`], or a [`Json::Num`] no larger than 2^53 (see the
    /// module docs).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64_of(*n),
            Json::Int(n) => Some(*n),
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
        let mut p = Parser::new(input);
        let v = p.value()?;
        p.end()?;
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
            Json::Int(n) => write_u64(out, *n),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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
                    write_str(out, k);
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

/// Writes `s` as a quoted JSON string, the bytes [`Json::Str`]
/// encodes to. Runs of bytes that need no escape are copied whole;
/// every escaped byte is ASCII, so the run boundaries are always char
/// boundaries.
pub fn write_str<S: Sink>(out: &mut S, s: &str) {
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

/// 2^53: up to here an `f64` holds every integer exactly.
const TWO_53: u64 = 1 << 53;

/// `n` as a `u64` if it is a non-negative integer no larger than 2^53:
/// the rule of [`Json::as_u64`] and [`Parser::u64`] for a number that
/// is not a plain integer literal.
fn u64_of(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= TWO_53 as f64).then_some(n as u64)
}

/// Integers up to 2^53 in magnitude print as integers (no `.0`, no
/// exponent) through [`write_u64`]; integral values past it print in
/// the shortest round-trip exponent form (`1e300`), which re-reads as
/// the same `f64` rather than as an exact [`Json::Int`]; other finite
/// numbers use the shortest round-trip `{}` form. JSON has no Inf/NaN,
/// so those print as the conventional stand-in `null`.
fn write_num<S: Sink>(out: &mut S, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.put("null");
    } else if n.fract() != 0.0 {
        let _ = write!(Fmt(out), "{n}");
    } else if n.abs() <= TWO_53 as f64 {
        if n < 0.0 {
            out.put("-");
        }
        write_u64(out, n.abs() as u64);
    } else {
        let _ = write!(Fmt(out), "{n:e}");
    }
}

/// The two-digit strings `00` to `99`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` as its exact decimal digits, the bytes `n.to_string()`
/// returns: the one integer writer, of every unsigned field and of
/// every integral number.
pub fn write_u64<S: Sink>(out: &mut S, mut n: u64) {
    // 20 digits for `u64::MAX`, filled from the end two at a time.
    let mut text = [0u8; 20];
    let mut at = text.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        text[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        text[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        text[at] = b'0' + n as u8;
    }
    // Digits are ASCII, so this never fails.
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

/// A [`Json::Num`] up to 2^53, a [`Json::Int`] past it.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        if n > TWO_53 {
            Json::Int(n)
        } else {
            Json::Num(n as f64)
        }
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
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

/// The first byte of a value, which alone decides how it parses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    True,
    False,
    Str,
    Arr,
    Obj,
    Num,
}

/// A number literal as the parser reads it.
#[derive(Clone, Copy)]
enum Number {
    /// A plain integer literal (no sign, fraction or exponent) that
    /// fits a `u64`: its exact value.
    Unsigned(u64),
    /// Any other literal, as the nearest `f64`.
    Float(f64),
}

/// The one JSON parser: [`Json::parse`] builds a tree with it, and the
/// typed decoders pull values straight out of it.
///
/// A pull read takes the value under the cursor as the kind it
/// expects (a number, a string, an object walked key by key…) or, if
/// the value is of another kind, skips it and reports that, the way a
/// [`Json`] accessor returns `None`. Skipping parses exactly as
/// building a tree does, with the same depth limit, so the syntax
/// errors and their offsets are the same whatever is read. A decoder
/// therefore agrees with [`Json::parse`] plus the tree accessors on
/// every input, and allocates only for strings with escapes (and for
/// any [`Parser::value`] it asks for).
///
/// After an error the parser is spent: the caller reports the error.
#[derive(Debug, Clone)]
pub struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Nesting depth of the value under the cursor: 0 for the
    /// document, one more inside each array or object.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first value of `text` (leading whitespace
    /// skipped).
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// Checks that nothing but whitespace follows the document.
    ///
    /// # Errors
    ///
    /// `trailing characters after value` otherwise.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after value"))
        }
    }

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

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// The kind of the value under the cursor, or `None` past the
    /// depth limit or where no value starts.
    fn peek_kind(&self) -> Option<Kind> {
        if self.depth > MAX_DEPTH {
            return None;
        }
        Some(match self.peek()? {
            b'n' => Kind::Null,
            b't' => Kind::True,
            b'f' => Kind::False,
            b'"' => Kind::Str,
            b'[' => Kind::Arr,
            b'{' => Kind::Obj,
            c if c == b'-' || c.is_ascii_digit() => Kind::Num,
            _ => return None,
        })
    }

    /// [`Parser::peek_kind`], with the reason a value cannot start here.
    fn kind(&self) -> Result<Kind, ParseError> {
        self.peek_kind().ok_or_else(|| {
            self.err(if self.depth > MAX_DEPTH {
                "nesting too deep"
            } else if self.peek().is_some() {
                "unexpected character"
            } else {
                "unexpected end of input"
            })
        })
    }

    /// Parses the value under the cursor into a tree.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] with its byte offset.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.kind()? {
            Kind::Null => self.literal("null").map(|()| Json::Null)?,
            Kind::True => self.literal("true").map(|()| Json::Bool(true))?,
            Kind::False => self.literal("false").map(|()| Json::Bool(false))?,
            Kind::Str => Json::Str(self.string()?.into_owned()),
            Kind::Num => match self.number()? {
                Number::Unsigned(n) => Json::from(n),
                Number::Float(n) => Json::Num(n),
            },
            Kind::Arr => {
                let mut items = Vec::new();
                self.walk_array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Kind::Obj => {
                let mut pairs = Vec::new();
                self.walk_object(|p, key| {
                    pairs.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
        })
    }

    /// Parses the value under the cursor and drops it. It allocates
    /// only for strings with escapes.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Parser::value`].
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            Kind::True => self.literal("true"),
            Kind::False => self.literal("false"),
            Kind::Str => self.string().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Arr => self.walk_array(Self::skip),
            Kind::Obj => self.walk_object(|p, _| p.skip()),
        }
    }

    /// Walks an object, calling `each` with the parser at every value
    /// and that value's (unescaped) key; `each` must read or skip
    /// exactly one value. Returns `false`, having skipped the value,
    /// when it is not an object.
    ///
    /// # Errors
    ///
    /// The first syntax error, or `each`'s.
    pub fn object(
        &mut self,
        each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.peek_kind() != Some(Kind::Obj) {
            return self.skip().map(|()| false);
        }
        self.walk_object(each).map(|()| true)
    }

    /// Walks an array, calling `each` with the parser at every item;
    /// `each` must read or skip exactly one value. Returns `false`,
    /// having skipped the value, when it is not an array.
    ///
    /// # Errors
    ///
    /// The first syntax error, or `each`'s.
    pub fn array(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.peek_kind() != Some(Kind::Arr) {
            return self.skip().map(|()| false);
        }
        self.walk_array(each).map(|()| true)
    }

    /// Reads a string, or skips another value for `None`: the pull
    /// form of [`Json::as_str`]. A string without escapes is borrowed
    /// from the input.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek_kind() != Some(Kind::Str) {
            return self.skip().map(|()| None);
        }
        self.string().map(Some)
    }

    /// Reads a non-negative integral number, or skips another value
    /// for `None`: the pull form of [`Json::as_u64`], with the same
    /// rule. A plain integer literal is exact up to `u64::MAX`; `1.0`,
    /// `1e0` and `-0` are 1, 1 and 0, read through an `f64` and so
    /// only up to 2^53.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        if self.peek_kind() != Some(Kind::Num) {
            return self.skip().map(|()| None);
        }
        Ok(match self.number()? {
            Number::Unsigned(n) => Some(n),
            Number::Float(n) => u64_of(n),
        })
    }

    /// Reads `true` or `false`, or skips another value for `None`: the
    /// pull form of [`Json::as_bool`].
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        match self.peek_kind() {
            Some(Kind::True) => self.literal("true").map(|()| Some(true)),
            Some(Kind::False) => self.literal("false").map(|()| Some(false)),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads a `null` and returns `true`, or returns `false` and leaves
    /// any other value under the cursor.
    ///
    /// # Errors
    ///
    /// A malformed `null` literal.
    pub fn null(&mut self) -> Result<bool, ParseError> {
        if self.peek_kind() != Some(Kind::Null) {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Reads the value under the cursor into `slot` with `read` while
    /// `slot` is empty, and skips it once `slot` is full: the first
    /// value of a repeated key wins, as with [`Json::get`].
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<(), ParseError> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    /// Skips the value of `key`, a key that names no field of the
    /// object being read, and keeps the first such key in `first`.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn skip_unknown(
        &mut self,
        first: &mut Option<Cow<'a, str>>,
        key: Cow<'a, str>,
    ) -> Result<(), ParseError> {
        if first.is_none() {
            *first = Some(key);
        }
        self.skip()
    }

    fn walk_array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn walk_object(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses a string. The plain runs between escapes are sliced from
    /// the input: they start and end at ASCII bytes (a quote, an escape
    /// sequence, a control byte) or at the input's ends, so every run is
    /// valid UTF-8 by construction. A string with no escape is its only
    /// run, borrowed.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so an empty `out`
                    // means `run` is the whole string.
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
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

    /// Parses a number, in the grammar of RFC 8259: an optional minus,
    /// an integer part that is `0` or starts with a nonzero digit, an
    /// optional fraction of one or more digits, and an optional
    /// exponent of one or more digits. A plain integer literal that
    /// fits a `u64` is accumulated exactly; a negative one up to 2^53
    /// is converted once, exactly, so it equals what
    /// `str::parse::<f64>` returns, negative zero included. Every other
    /// literal goes to `str::parse::<f64>`.
    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        // `None` once the literal outgrows a `u64`.
        let mut int = Some(0u64);
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            int = int.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        let digits = self.pos - digits_start;
        if digits == 0 || (digits > 1 && self.bytes[digits_start] == b'0') {
            return Err(self.err("invalid number"));
        }
        if !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            match (negative, int) {
                (false, Some(n)) => return Ok(Number::Unsigned(n)),
                (true, Some(n)) if n <= TWO_53 => return Ok(Number::Float(-(n as f64))),
                _ => {}
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        match self.text[start..self.pos].parse::<f64>() {
            // A literal past f64's range parses as infinity, which the
            // writer can only print as `null`; reject it so everything
            // the parser accepts re-encodes to the same value.
            Ok(n) if n.is_infinite() => Err(self.err("number out of range")),
            Ok(n) => Ok(Number::Float(n)),
            Err(_) => Err(self.err("invalid number")),
        }
    }

    /// Skips the one or more digits a fraction or an exponent needs.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("invalid number"));
        }
        Ok(())
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
    fn numbers_follow_the_json_grammar() {
        // A leading zero before another digit, a point without a digit
        // after it, and a sign or exponent without digits.
        for (bad, offset) in [
            ("007", 3),
            ("-007", 4),
            ("00", 2),
            ("01.5", 2),
            ("-01", 3),
            ("1.", 2),
            ("1.e3", 2),
            ("-1.", 3),
            ("0.", 2),
            ("-", 1),
            ("-x", 1),
            ("1e", 2),
            ("1e+", 3),
            ("1.5E-", 5),
            ("0123456789012345678", 19),
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("invalid number", offset),
                "{bad}"
            );
            // The pull reader shares the rule.
            let err = Parser::new(bad).u64().expect_err(bad);
            assert_eq!(err.offset, offset, "{bad}");
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.5", -0.5),
            ("0e0", 0.0),
            ("0E+2", 0.0),
            ("10", 10.0),
            ("100.25", 100.25),
            ("1e3", 1000.0),
            ("1.5e-1", 0.15),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(value)), "{good}");
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
        for n in [TWO_53 - 1, TWO_53, TWO_53 + 1, TWO_53 + 2, u64::MAX] {
            literals.push(n.to_string());
            literals.push(format!("-{n}"));
        }
        literals.push("18446744073709551616".to_string());
        for text in &literals {
            let parsed = Json::parse(text).unwrap();
            // A plain literal past 2^53 that fits a `u64` is held
            // exactly; every other one is the `f64` `str::parse` reads.
            match text.parse::<u64>() {
                Ok(n) if n > TWO_53 => assert_eq!(parsed, Json::Int(n), "{text}"),
                _ => match parsed {
                    Json::Num(n) => {
                        let expected = text.parse::<f64>().unwrap();
                        assert_eq!(n.to_bits(), expected.to_bits(), "{text}");
                    }
                    other => panic!("{text} parsed as {other:?}"),
                },
            }
        }
    }

    #[test]
    fn unsigned_integers_are_exact_over_the_whole_range() {
        let mut state = 0x0bad_cafe_f00d_d00d;
        let mut samples = vec![0, 9, 10, 99, 100, TWO_53, TWO_53 + 1, TWO_53 + 2, u64::MAX];
        samples.extend((0..10_000).map(|_| splitmix(&mut state) >> (splitmix(&mut state) % 64)));
        for n in samples {
            let mut text = String::new();
            write_u64(&mut text, n);
            assert_eq!(text, n.to_string());
            let v = Json::from(n);
            assert_eq!(v.encode(), text);
            assert_eq!(Json::parse(&text), Ok(v.clone()), "{text}");
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(Parser::new(&text).u64(), Ok(Some(n)), "{text}");
        }
        // The spellings that are not plain literals keep the f64 rule.
        for (text, value) in [
            ("1.0", Some(1)),
            ("1e0", Some(1)),
            ("-0", Some(0)),
            ("9007199254740992.0", Some(TWO_53)),
            ("9007199254740994.0", None),
            ("18446744073709551616", None),
            ("-1", None),
        ] {
            assert_eq!(Parser::new(text).u64(), Ok(value), "{text}");
            assert_eq!(Json::parse(text).unwrap().as_u64(), value, "{text}");
        }
        // An integral f64 past 2^53 prints in exponent form, so it
        // re-reads as the same `Num`, never as an exact `Int`.
        for n in [TWO_53 as f64 * 2.0, 1e18, -1e18, 1e300, u64::MAX as f64] {
            let text = Json::Num(n).encode();
            assert!(text.contains('e'), "{text}");
            assert_eq!(Json::parse(&text), Ok(Json::Num(n)), "{text}");
        }
        assert_eq!(Json::Num(TWO_53 as f64).encode(), TWO_53.to_string());
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
