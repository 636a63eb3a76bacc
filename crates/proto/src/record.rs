//! Declared JSON records: one field list writes a struct's codecs.
//!
//! [`json_record!`](crate::json_record) takes a struct, a decoding
//! mode and the names of its fields in wire order, and writes the
//! codecs of an object with one key per field, each value handled by
//! the field type's [`JsonField`] impl:
//!
//! * the typed codec of the request path: `write_json` walks the
//!   fields into any [`Sink`] (a line buffer, or a fingerprint hash),
//!   and `read_json` pulls them out of a [`Parser`], with no [`Json`]
//!   tree either way;
//! * the tree codec: `to_json` builds a [`Json`] value for documents
//!   assembled as trees, and `from_json` is the oracle the tests hold
//!   `read_json` to. No production decoder reads a tree.
//!
//! `write_json` and `to_json` write the *canonical* encoding, every
//! field in list order; fingerprints hash it and the journal stores
//! it. The mode decides what the decoders accept:
//!
//! * a `strict` record (a result's counters) needs every field, and
//!   skips a key that names no field;
//! * a `packed` record is a `strict` one that also gets the
//!   [`PackedField`](crate::PackedField) codec: its fields' varints in
//!   list order, every field a `PackedField` too;
//! * a `defaulting` record (the machine configurations) takes a
//!   missing field from a *base* value and rejects a key that names no
//!   field, ``{what}: unknown field `{key}` ``, so a misspelt field cannot
//!   silently become its default. Its base is the enclosing record's
//!   value of the field, and the struct's `Default` at the top: an
//!   OOOVA config without `lat` decodes to the OOOVA's latency table,
//!   not to `LatencyModel`'s own `Default`. A defaulting record also
//!   gets `write_compact`, which leaves out every field equal to the
//!   base's, so a request line carries only what differs from the
//!   default machine.
//!
//! The field list is the only place a field's wire name is written.
//! Both decoders gather each field's first value and then run one
//! validation sequence, written once in the macro: the struct is built
//! with a literal (a field missing from the list is a compile error),
//! in list order, so the first bad field is reported whatever the
//! input's key order. A defaulting record checks for an unknown key
//! (the first in the object) before any field. Defaults stay in the
//! struct's `Default`.

use crate::{write_u64, Json, ParseError, Parser, Sink};

/// A decoded field value: `Err(None)` for one of the wrong type or
/// range, `Err(Some(message))` for a nested record's own error.
pub type Decoded<T> = Result<T, Option<String>>;

/// The error of a defaulting record, or of a request message, for a
/// key that names none of its fields.
#[must_use]
pub fn unknown_field(what: &str, key: &str) -> String {
    format!("{what}: unknown field `{key}`")
}

/// The first key of the object `v` that `is_field` does not name (none
/// when `v` is not an object): the key a typed decoder keeps with
/// [`Parser::skip_unknown`] as it walks the same object.
pub fn first_unknown_key(v: &Json, is_field: impl Fn(&str) -> bool) -> Option<&str> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(key, _)| key.as_str())
            .find(|key| !is_field(key)),
        _ => None,
    }
}

/// A type a [`json_record!`](crate::json_record) field can hold. Each
/// pair of methods (tree and typed) must agree: `write_field` writes
/// the bytes `to_field` encodes to, and `read_field` decides what
/// `from_value` decides on the same value.
///
/// The `_over` methods serve defaulting records, which decode a field
/// over a base value and write it against one. Only a defaulting
/// record (and an `Option` of one) overrides them; for any other type
/// the base changes nothing.
pub trait JsonField: Sized {
    /// The value's encoding, as a tree.
    fn to_field(&self) -> Json;

    /// Writes the value's encoding, the bytes of `to_field`.
    fn write_field<S: Sink>(&self, out: &mut S);

    /// Decodes a tree value.
    ///
    /// # Errors
    ///
    /// See [`Decoded`].
    fn from_value(v: &Json) -> Decoded<Self>;

    /// Reads the value under the parser's cursor.
    ///
    /// # Errors
    ///
    /// A syntax error; the semantic outcome is the inner [`Decoded`].
    fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError>;

    /// Writes the value for a reader that knows `base`: what
    /// `read_field_over` with that base decodes back to `self`.
    fn write_field_over<S: Sink>(&self, base: &Self, out: &mut S) {
        let _ = base;
        self.write_field(out);
    }

    /// Decodes a tree value whose absent nested fields come from
    /// `base`.
    ///
    /// # Errors
    ///
    /// See [`Decoded`].
    fn from_value_over(v: &Json, base: &Self) -> Decoded<Self> {
        let _ = base;
        Self::from_value(v)
    }

    /// Reads the value under the parser's cursor, its absent nested
    /// fields taken from `base`.
    ///
    /// # Errors
    ///
    /// A syntax error; the semantic outcome is the inner [`Decoded`].
    fn read_field_over(p: &mut Parser<'_>, base: &Self) -> Result<Decoded<Self>, ParseError> {
        let _ = base;
        Self::read_field(p)
    }

    /// Field `name` of a `what` record, from the first value of its
    /// key (`None` when the key is absent): the validation step both
    /// decoders share.
    ///
    /// # Errors
    ///
    /// A nested record's own error, or `{what}: bad or missing field
    /// `{name}`` for anything else that does not decode.
    fn from_field(v: Option<Decoded<Self>>, what: &str, name: &str) -> Result<Self, String> {
        match v {
            Some(Ok(value)) => Ok(value),
            Some(Err(Some(message))) => Err(message),
            _ => Err(format!("{what}: bad or missing field `{name}`")),
        }
    }
}

impl JsonField for bool {
    fn to_field(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_field<S: Sink>(&self, out: &mut S) {
        out.put(if *self { "true" } else { "false" });
    }

    fn from_value(v: &Json) -> Decoded<Self> {
        v.as_bool().ok_or(None)
    }

    fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError> {
        Ok(p.bool()?.ok_or(None))
    }
}

/// Unsigned integers: a non-negative integral number that fits,
/// written as its exact digits.
macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_field(&self) -> Json {
                (*self).into()
            }

            fn write_field<S: Sink>(&self, out: &mut S) {
                write_u64(out, *self as u64);
            }

            fn from_value(v: &Json) -> Decoded<Self> {
                v.as_u64().and_then(|n| <$t>::try_from(n).ok()).ok_or(None)
            }

            fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError> {
                Ok(p.u64()?.and_then(|n| <$t>::try_from(n).ok()).ok_or(None))
            }
        }
    )*};
}

unsigned_field!(u32, u64, usize);

/// `null` is `None`. In a strict record an absent key is still an
/// error; in a defaulting record it takes the base's value, so only
/// `null` turns an optional part off. A `Some` over a `Some` base is
/// written and read over the base's value; over a `None` base it is
/// written in full and read over its own type's default.
impl<T: JsonField> JsonField for Option<T> {
    fn to_field(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_field)
    }

    fn write_field<S: Sink>(&self, out: &mut S) {
        match self {
            Some(v) => v.write_field(out),
            None => out.put("null"),
        }
    }

    fn from_value(v: &Json) -> Decoded<Self> {
        match v {
            Json::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }

    fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError> {
        if p.null()? {
            return Ok(Ok(None));
        }
        Ok(T::read_field(p)?.map(Some))
    }

    fn write_field_over<S: Sink>(&self, base: &Self, out: &mut S) {
        match (self, base) {
            (Some(v), Some(base)) => v.write_field_over(base, out),
            _ => self.write_field(out),
        }
    }

    fn from_value_over(v: &Json, base: &Self) -> Decoded<Self> {
        match (v, base) {
            (Json::Null, _) => Ok(None),
            (v, Some(base)) => T::from_value_over(v, base).map(Some),
            (v, None) => T::from_value(v).map(Some),
        }
    }

    fn read_field_over(p: &mut Parser<'_>, base: &Self) -> Result<Decoded<Self>, ParseError> {
        if p.null()? {
            return Ok(Ok(None));
        }
        Ok(match base {
            Some(base) => T::read_field_over(p, base)?,
            None => T::read_field(p)?,
        }
        .map(Some))
    }
}

/// Writes the typed codec (`write_json`, `read_json`), the tree codec
/// (`to_json`, `from_json`) and the [`JsonField`] impl of a struct from
/// its decoding mode, `strict` or `defaulting`, and its field names in
/// wire order:
///
/// ```
/// use oov_proto::{json_record, Json, Parser};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u32,
///     y: Option<u64>,
/// }
/// json_record!(Point, "point", strict, [x, y]);
///
/// let p = Point { x: 1, y: None };
/// let mut line = String::new();
/// p.write_json(&mut line);
/// assert_eq!(line, r#"{"x": 1, "y": null}"#);
/// assert_eq!(p.to_json().encode(), line);
/// assert_eq!(Point::read_json(&mut Parser::new(&line)), Ok(Ok(Point { x: 1, y: None })));
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// let err = Point::from_json(&Json::parse(r#"{"x": 1}"#).unwrap());
/// assert_eq!(err, Err("point: bad or missing field `y`".to_string()));
/// ```
///
/// A `defaulting` record (which must be `Clone + Default + PartialEq`)
/// also gets `write_compact`, `read_json_over` and `from_json_over`:
///
/// ```
/// use oov_proto::{json_record, Json};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Size {
///     w: u32,
///     h: u32,
/// }
/// impl Default for Size {
///     fn default() -> Self {
///         Size { w: 4, h: 3 }
///     }
/// }
/// json_record!(Size, "size", defaulting, [w, h]);
///
/// let s = Size { w: 4, h: 9 };
/// let mut line = String::new();
/// s.write_compact(&Size::default(), &mut line);
/// assert_eq!(line, r#"{"h": 9}"#);
/// assert_eq!(Size::from_json(&Json::parse(&line).unwrap()), Ok(s));
/// let err = Size::from_json(&Json::parse(r#"{"width": 5}"#).unwrap());
/// assert_eq!(err, Err("size: unknown field `width`".to_string()));
/// ```
///
/// A trailing `validate` makes both decoders return the struct's
/// `validate(&self) -> Result<(), String>` error for a well-formed
/// value it rejects.
///
/// A `packed` record is `strict` and also implements
/// [`PackedField`](crate::PackedField), packing its fields in list
/// order:
///
/// ```
/// use oov_proto::{json_record, PackedField, Packer, Unpacker};
///
/// #[derive(Debug, PartialEq)]
/// struct Tally {
///     hits: u64,
///     misses: u64,
/// }
/// json_record!(Tally, "tally", packed, [hits, misses]);
///
/// let t = Tally { hits: 300, misses: 0 };
/// let mut buf = [0; Tally::MAX_BYTES];
/// let mut out = Packer::new(&mut buf);
/// t.pack(&mut out);
/// assert_eq!(out.bytes(), [0xac, 0x02, 0x00]);
/// let mut input = Unpacker::new(out.bytes());
/// assert_eq!(Tally::unpack(&mut input), t);
/// assert_eq!(input.end(), Ok(()));
/// ```
#[macro_export]
macro_rules! json_record {
    (
        $ty:ty,
        $what:literal,
        packed,
        [$($field:ident),+ $(,)?]
    ) => {
        $crate::json_record!($ty, $what, strict, [$($field),+]);

        impl $crate::PackedField for $ty {
            const MAX_BYTES: usize =
                0 $(+ $crate::max_packed_bytes(|record: &Self| &record.$field))+;

            fn pack(&self, out: &mut $crate::Packer<'_>) {
                $($crate::PackedField::pack(&self.$field, out);)+
            }

            fn unpack(input: &mut $crate::Unpacker<'_>) -> Self {
                // A struct literal evaluates its fields in the order
                // written: the list order.
                Self {
                    $($field: $crate::PackedField::unpack(input),)+
                }
            }
        }
    };
    (
        $ty:ty,
        $what:literal,
        strict,
        [$first:ident $(, $field:ident)* $(,)?]
        $(, $validate:ident)?
    ) => {
        $crate::json_record!(@common $ty, $what, [$first $(, $field)*]);

        impl $ty {
            #[doc = concat!("Reads the ", $what, " under the parser's cursor, deciding what `from_json` decides on the same value.")]
            ///
            /// # Errors
            ///
            /// A syntax error. The inner result names the missing or
            /// malformed field, or the bound the value breaks.
            pub fn read_json(
                p: &mut $crate::Parser<'_>,
            ) -> Result<Result<Self, String>, $crate::ParseError> {
                let mut $first = None;
                $(let mut $field = None;)*
                p.object(|p, key| match &*key {
                    stringify!($first) => p.first(&mut $first, $crate::JsonField::read_field),
                    $(stringify!($field) => p.first(&mut $field, $crate::JsonField::read_field),)*
                    _ => p.skip(),
                })?;
                Ok($crate::json_record!(@build $what, [$first $(, $field)*] $(, $validate)?))
            }

            #[doc = concat!("Decodes the ", $what, " encoding `to_json` writes.")]
            ///
            /// # Errors
            ///
            /// Names the missing or malformed field, or the bound the
            /// value breaks.
            pub fn from_json(v: &$crate::Json) -> Result<Self, String> {
                let $first = v.get(stringify!($first)).map($crate::JsonField::from_value);
                $(let $field = v.get(stringify!($field)).map($crate::JsonField::from_value);)*
                $crate::json_record!(@build $what, [$first $(, $field)*] $(, $validate)?)
            }
        }

        impl $crate::JsonField for $ty {
            $crate::json_record!(@field_common);

            fn from_value(v: &$crate::Json) -> $crate::Decoded<Self> {
                Self::from_json(v).map_err(Some)
            }

            fn read_field(
                p: &mut $crate::Parser<'_>,
            ) -> Result<$crate::Decoded<Self>, $crate::ParseError> {
                Ok(Self::read_json(p)?.map_err(Some))
            }
        }
    };
    (
        $ty:ty,
        $what:literal,
        defaulting,
        [$($field:ident),+ $(,)?]
        $(, $validate:ident)?
    ) => {
        $crate::json_record!(@common $ty, $what, [$($field),+]);

        impl $ty {
            #[doc = concat!("Writes the ", $what, " as a JSON object with only the fields that differ from `base`: what `read_json_over` with that base decodes back to `self`.")]
            #[allow(unused_assignments)]
            pub fn write_compact<S: $crate::Sink>(&self, base: &Self, out: &mut S) {
                out.put("{");
                let mut separator = "";
                $(
                    if self.$field != base.$field {
                        out.put(separator);
                        out.put(concat!("\"", stringify!($field), "\": "));
                        $crate::JsonField::write_field_over(&self.$field, &base.$field, out);
                        separator = ", ";
                    }
                )+
                out.put("}");
            }

            #[doc = concat!("Reads the ", $what, " under the parser's cursor over `Self::default()`: `read_json_over`.")]
            ///
            /// # Errors
            ///
            /// As `read_json_over`.
            pub fn read_json(
                p: &mut $crate::Parser<'_>,
            ) -> Result<Result<Self, String>, $crate::ParseError> {
                Self::read_json_over(p, &Self::default())
            }

            #[doc = concat!("Reads the ", $what, " under the parser's cursor, a missing field taken from `base`, deciding what `from_json_over` decides on the same value.")]
            ///
            /// # Errors
            ///
            /// A syntax error. The inner result names a value that is
            /// not an object, the first unknown key, the first
            /// malformed field, or the bound the value breaks.
            pub fn read_json_over(
                p: &mut $crate::Parser<'_>,
                base: &Self,
            ) -> Result<Result<Self, String>, $crate::ParseError> {
                $(let mut $field = None;)+
                let mut unknown = None;
                let is_object = p.object(|p, key| match &*key {
                    $(stringify!($field) => p.first(&mut $field, |p| {
                        $crate::JsonField::read_field_over(p, &base.$field)
                    }),)+
                    _ => p.skip_unknown(&mut unknown, key),
                })?;
                if !is_object {
                    return Ok(Err(concat!($what, ": not an object").to_string()));
                }
                if let Some(key) = unknown {
                    return Ok(Err($crate::unknown_field($what, &key)));
                }
                Ok($crate::json_record!(@build_over $what, base, [$($field),+] $(, $validate)?))
            }

            #[doc = concat!("Decodes a ", $what, " over `Self::default()`: `from_json_over`.")]
            ///
            /// # Errors
            ///
            /// As `from_json_over`.
            pub fn from_json(v: &$crate::Json) -> Result<Self, String> {
                Self::from_json_over(v, &Self::default())
            }

            #[doc = concat!("Decodes a ", $what, " object, a missing field taken from `base`.")]
            ///
            /// # Errors
            ///
            /// Names a value that is not an object, the first unknown
            /// key, the first malformed field, or the bound the value
            /// breaks.
            pub fn from_json_over(v: &$crate::Json, base: &Self) -> Result<Self, String> {
                if !matches!(v, $crate::Json::Obj(_)) {
                    return Err(concat!($what, ": not an object").to_string());
                }
                let unknown =
                    $crate::first_unknown_key(v, |key| matches!(key, $(stringify!($field))|+));
                if let Some(key) = unknown {
                    return Err($crate::unknown_field($what, key));
                }
                $(let $field = v
                    .get(stringify!($field))
                    .map(|v| $crate::JsonField::from_value_over(v, &base.$field));)+
                $crate::json_record!(@build_over $what, base, [$($field),+] $(, $validate)?)
            }
        }

        impl $crate::JsonField for $ty {
            $crate::json_record!(@field_common);

            fn from_value(v: &$crate::Json) -> $crate::Decoded<Self> {
                Self::from_json(v).map_err(Some)
            }

            fn read_field(
                p: &mut $crate::Parser<'_>,
            ) -> Result<$crate::Decoded<Self>, $crate::ParseError> {
                Ok(Self::read_json(p)?.map_err(Some))
            }

            fn write_field_over<S: $crate::Sink>(&self, base: &Self, out: &mut S) {
                self.write_compact(base, out);
            }

            fn from_value_over(v: &$crate::Json, base: &Self) -> $crate::Decoded<Self> {
                Self::from_json_over(v, base).map_err(Some)
            }

            fn read_field_over(
                p: &mut $crate::Parser<'_>,
                base: &Self,
            ) -> Result<$crate::Decoded<Self>, $crate::ParseError> {
                Ok(Self::read_json_over(p, base)?.map_err(Some))
            }
        }
    };
    // The canonical writers both modes share.
    (@common $ty:ty, $what:literal, [$first:ident $(, $field:ident)*]) => {
        impl $ty {
            #[doc = concat!("Writes the ", $what, " as a JSON object, one key per field: the canonical encoding, the bytes of `to_json`, with no tree.")]
            pub fn write_json<S: $crate::Sink>(&self, out: &mut S) {
                out.put(concat!("{\"", stringify!($first), "\": "));
                $crate::JsonField::write_field(&self.$first, out);
                $(
                    out.put(concat!(", \"", stringify!($field), "\": "));
                    $crate::JsonField::write_field(&self.$field, out);
                )*
                out.put("}");
            }

            #[doc = concat!("Encodes the ", $what, " as a JSON object tree, one key per field: the canonical encoding.")]
            #[must_use]
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    (stringify!($first).to_string(), $crate::JsonField::to_field(&self.$first)),
                    $((stringify!($field).to_string(), $crate::JsonField::to_field(&self.$field)),)*
                ])
            }
        }
    };
    (@field_common) => {
        fn to_field(&self) -> $crate::Json {
            self.to_json()
        }

        fn write_field<S: $crate::Sink>(&self, out: &mut S) {
            self.write_json(out);
        }
    };
    // The validation sequence both strict decoders run, over locals
    // named after the fields that hold each key's first decoded value.
    (@build $what:literal, [$($field:ident),+] $(, $validate:ident)?) => {
        (|| -> Result<Self, String> {
            let record = Self {
                $($field: $crate::JsonField::from_field($field, $what, stringify!($field))?,)+
            };
            $(record.$validate()?;)?
            Ok(record)
        })()
    };
    // The defaulting decoders' sequence: an absent field is the base's.
    (@build_over $what:literal, $base:ident, [$($field:ident),+] $(, $validate:ident)?) => {
        (|| -> Result<Self, String> {
            let record = Self {
                $($field: match $field {
                    None => ::core::clone::Clone::clone(&$base.$field),
                    read => $crate::JsonField::from_field(read, $what, stringify!($field))?,
                },)+
            };
            $(record.$validate()?;)?
            Ok(record)
        })()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        n: u32,
    }
    json_record!(Inner, "inner", strict, [n]);

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        flag: bool,
        count: u64,
        size: usize,
        inner: Inner,
        maybe: Option<Inner>,
    }
    json_record!(
        Outer,
        "outer",
        strict,
        [count, flag, size, inner, maybe],
        check
    );

    impl Outer {
        fn check(&self) -> Result<(), String> {
            if self.size == 0 {
                return Err("outer: size 0".into());
            }
            Ok(())
        }
    }

    fn outer() -> Outer {
        Outer {
            flag: true,
            count: 1 << 40,
            size: 3,
            inner: Inner { n: 7 },
            maybe: None,
        }
    }

    #[test]
    fn encodes_in_list_order_and_round_trips() {
        let o = outer();
        assert_eq!(
            o.to_json().encode(),
            r#"{"count": 1099511627776, "flag": true, "size": 3, "inner": {"n": 7}, "maybe": null}"#
        );
        assert_eq!(Outer::from_json(&o.to_json()), Ok(o.clone()));
        let some = Outer {
            maybe: Some(Inner { n: 1 }),
            ..o
        };
        assert_eq!(Outer::from_json(&some.to_json()), Ok(some));
    }

    fn with(key: &str, value: Option<Json>) -> Json {
        let mut v = outer().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != key);
            if let Some(value) = value {
                pairs.push((key.to_string(), value));
            }
        }
        v
    }

    #[test]
    fn errors_name_the_field_or_the_nested_record() {
        let err = |v: Json| Outer::from_json(&v).unwrap_err();
        let bad = "outer: bad or missing field";
        assert_eq!(err(with("count", None)), format!("{bad} `count`"));
        assert_eq!(err(with("maybe", None)), format!("{bad} `maybe`"));
        assert_eq!(
            err(with("flag", Some(1u64.into()))),
            format!("{bad} `flag`")
        );
        assert_eq!(
            err(with("size", Some((-1.0).into()))),
            format!("{bad} `size`")
        );
        assert_eq!(
            err(with("count", Some(1.5.into()))),
            format!("{bad} `count`")
        );
        assert_eq!(err(with("inner", None)), format!("{bad} `inner`"));
        // A nested record reports its own first bad field.
        let inner_bad = "inner: bad or missing field `n`";
        assert_eq!(err(with("inner", Some(Json::Null))), inner_bad);
        let big = Json::obj(vec![("n", (1u64 << 32).into())]);
        assert_eq!(err(with("maybe", Some(big))), inner_bad);
        assert_eq!(err(with("size", Some(0u64.into()))), "outer: size 0");
        assert_eq!(
            Outer::from_json(&Json::Null).unwrap_err(),
            format!("{bad} `count`")
        );
    }

    /// Both decoders on one line: the typed read (with its end check)
    /// and `Json::parse` + `from_json`.
    fn both(line: &str) -> (Result<Outer, String>, Result<Outer, String>) {
        let mut p = Parser::new(line);
        let typed = Outer::read_json(&mut p)
            .and_then(|r| p.end().map(|()| r))
            .unwrap_or_else(|e| Err(e.to_string()));
        let tree = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Outer::from_json(&v));
        (typed, tree)
    }

    #[test]
    fn typed_and_tree_decoders_agree() {
        let good =
            r#"{"count": 5, "flag": false, "size": 2, "inner": {"n": 1}, "maybe": {"n": 2}}"#;
        for line in [
            good,
            // Any key order; nested records too.
            r#"{"maybe": null, "inner": {"n": 9}, "size": 1, "flag": true, "count": 0}"#,
            // The first of a repeated key wins, good or bad.
            r#"{"count": 1, "count": -1, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            r#"{"count": -1, "count": 1, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            // Unknown keys are skipped, however deep.
            r#"{"x": [{"y": [1, "\u0041"]}], "count": 1, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            // Escaped keys match once unescaped.
            r#"{"c\u006funt": 3, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            // The u64 rule: 1.0, 1e0 and -0 are integers; 2^53 + 1 rounds.
            r#"{"count": 1.0, "flag": true, "size": 1e0, "inner": {"n": -0}, "maybe": null}"#,
            r#"{"count": 9007199254740993, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            r#"{"count": 9007199254740994, "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            // Wrong types, nested errors, and the validate rule.
            r#"{"count": "1", "flag": true, "size": 1, "inner": {"n": 1}, "maybe": null}"#,
            r#"{"count": 1, "flag": true, "size": 1, "inner": [], "maybe": {"n": 4294967296}}"#,
            r#"{"count": 1, "flag": true, "size": 0, "inner": {"n": 1}, "maybe": null}"#,
            r#"{"count": 1, "flag": 1, "size": 0, "inner": {"n": 1}}"#,
            "[]",
            "null",
            // A syntax error after a semantic one still wins.
            r#"{"count": "x", "flag": true} ,"#,
            r#"{"inner": 7, "x": [1, 2}"#,
            r#"{"count": 1,"#,
        ] {
            let (typed, tree) = both(line);
            assert_eq!(typed, tree, "{line}");
        }
        assert!(both(good).0.is_ok());
        // Every prefix of a good line is rejected alike.
        for end in 0..good.len() {
            let (typed, tree) = both(&good[..end]);
            assert_eq!(typed, tree, "{}", &good[..end]);
        }
    }

    #[test]
    fn write_json_writes_the_tree_encoding() {
        let two_53 = 1u64 << 53;
        for count in [0, 1, two_53 - 1, two_53, two_53 + 1, two_53 + 3, u64::MAX] {
            let o = Outer {
                count,
                maybe: Some(Inner { n: u32::MAX }),
                size: usize::MAX,
                ..outer()
            };
            let mut typed = String::new();
            o.write_json(&mut typed);
            assert_eq!(typed, o.to_json().encode());
        }
    }

    /// A defaulting record whose nested parts have defaults of their
    /// own that differ from the enclosing record's.
    #[derive(Debug, Clone, PartialEq)]
    struct Part {
        a: u32,
        b: u32,
    }
    json_record!(Part, "part", defaulting, [a, b]);

    impl Default for Part {
        fn default() -> Self {
            Part { a: 1, b: 2 }
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Cfg {
        n: u32,
        fixed: Part,
        extra: Option<Part>,
        on: bool,
    }
    json_record!(Cfg, "cfg", defaulting, [n, fixed, extra, on], check);

    impl Default for Cfg {
        fn default() -> Self {
            Cfg {
                n: 5,
                fixed: Part { a: 10, b: 20 },
                extra: Some(Part { a: 30, b: 40 }),
                on: false,
            }
        }
    }

    impl Cfg {
        fn check(&self) -> Result<(), String> {
            if self.n == 0 {
                return Err("cfg: n 0".into());
            }
            Ok(())
        }
    }

    /// Both decoders of a defaulting record on one line.
    fn both_cfg(line: &str) -> (Result<Cfg, String>, Result<Cfg, String>) {
        let mut p = Parser::new(line);
        let typed = Cfg::read_json(&mut p)
            .and_then(|r| p.end().map(|()| r))
            .unwrap_or_else(|e| Err(e.to_string()));
        let tree = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Cfg::from_json(&v));
        (typed, tree)
    }

    fn decodes_to(line: &str, expected: &Cfg) {
        let (typed, tree) = both_cfg(line);
        assert_eq!(typed.as_ref(), Ok(expected), "{line}");
        assert_eq!(tree.as_ref(), Ok(expected), "{line}");
    }

    #[test]
    fn compact_writes_only_what_differs_from_the_base() {
        let base = Cfg::default();
        for (cfg, compact) in [
            (base.clone(), "{}"),
            (
                Cfg {
                    n: 6,
                    on: true,
                    ..base.clone()
                },
                r#"{"n": 6, "on": true}"#,
            ),
            (
                Cfg {
                    fixed: Part { a: 11, b: 20 },
                    ..base.clone()
                },
                r#"{"fixed": {"a": 11}}"#,
            ),
            (
                Cfg {
                    extra: None,
                    ..base.clone()
                },
                r#"{"extra": null}"#,
            ),
            (
                Cfg {
                    extra: Some(Part { a: 30, b: 2 }),
                    ..base.clone()
                },
                r#"{"extra": {"b": 2}}"#,
            ),
        ] {
            let mut line = String::new();
            cfg.write_compact(&base, &mut line);
            assert_eq!(line, compact);
            decodes_to(&line, &cfg);
            // The canonical encoding decodes to the same value.
            let mut full = String::new();
            cfg.write_json(&mut full);
            assert_eq!(full, cfg.to_json().encode());
            decodes_to(&full, &cfg);
        }
        // Over a `None` base a `Some` is written in full.
        let none = Cfg {
            extra: None,
            ..base.clone()
        };
        let mut line = String::new();
        base.write_compact(&none, &mut line);
        assert_eq!(line, r#"{"extra": {"a": 30, "b": 40}}"#);
        let v = Json::parse(&line).unwrap();
        assert_eq!(Cfg::from_json_over(&v, &none), Ok(base.clone()));
        let read = Cfg::read_json_over(&mut Parser::new(&line), &none);
        assert_eq!(read, Ok(Ok(base)));
    }

    #[test]
    fn a_missing_field_takes_the_enclosing_records_value() {
        let base = Cfg::default();
        // Not `Part::default()`: the enclosing default's parts.
        decodes_to(r#"{"fixed": {}}"#, &base);
        decodes_to(
            r#"{"fixed": {"b": 0}, "extra": {"a": 0}}"#,
            &Cfg {
                fixed: Part { a: 10, b: 0 },
                extra: Some(Part { a: 0, b: 40 }),
                ..base.clone()
            },
        );
        // `null` turns an optional part off; only a missing key
        // defaults.
        decodes_to(
            r#"{"extra": null}"#,
            &Cfg {
                extra: None,
                ..base.clone()
            },
        );
        // An explicit base replaces `Default` at the top.
        let other = Cfg {
            n: 9,
            fixed: Part { a: 0, b: 0 },
            ..base
        };
        let v = Json::parse(r#"{"fixed": {"a": 7}}"#).unwrap();
        let expected = Cfg {
            fixed: Part { a: 7, b: 0 },
            ..other.clone()
        };
        assert_eq!(Cfg::from_json_over(&v, &other).as_ref(), Ok(&expected));
        let read = Cfg::read_json_over(&mut Parser::new(&v.encode()), &other);
        assert_eq!(read, Ok(Ok(expected)));
    }

    #[test]
    fn defaulting_decoders_reject_unknown_keys_alike() {
        for (line, error) in [
            (r#"{"m": 1}"#, "cfg: unknown field `m`"),
            // The first unknown key wins, before any bad field.
            (
                r#"{"n": 0, "x": 1, "fixed": 7, "y": 2}"#,
                "cfg: unknown field `x`",
            ),
            // Keys compare unescaped.
            (
                r#"{"n": 6, "\u006fn": true, "\u0078": 1}"#,
                "cfg: unknown field `x`",
            ),
            // A nested record names its own.
            (r#"{"fixed": {"c": 1}}"#, "part: unknown field `c`"),
            (r#"{"extra": {"a": 1, "A": 1}}"#, "part: unknown field `A`"),
            // Not an object, at the top or nested.
            ("null", "cfg: not an object"),
            ("[]", "cfg: not an object"),
            (r#"{"fixed": null}"#, "part: not an object"),
            (r#"{"extra": 3}"#, "part: not an object"),
            // Field errors and the validate rule, in list order.
            (r#"{"on": 1, "n": -1}"#, "cfg: bad or missing field `n`"),
            (r#"{"n": 0}"#, "cfg: n 0"),
        ] {
            let (typed, tree) = both_cfg(line);
            assert_eq!(typed, Err(error.to_string()), "{line}");
            assert_eq!(tree, Err(error.to_string()), "{line}");
        }
        // The first value of a repeated key wins, unknown ones too:
        // a later bad value is never read.
        decodes_to(
            r#"{"n": 6, "n": {"q": 1}}"#,
            &Cfg {
                n: 6,
                ..Cfg::default()
            },
        );
        // A syntax error anywhere still wins over an unknown key.
        let (typed, tree) = both_cfg(r#"{"x": 1, "n": }"#);
        assert_eq!(typed, tree);
        assert!(typed.unwrap_err().contains("unexpected character"));
        // Every prefix of a compact line is rejected alike.
        let good = r#"{"n": 6, "fixed": {"a": 11}, "extra": null, "on": true}"#;
        assert!(both_cfg(good).0.is_ok());
        for end in 0..good.len() {
            let (typed, tree) = both_cfg(&good[..end]);
            assert_eq!(typed, tree, "{}", &good[..end]);
        }
    }
}
