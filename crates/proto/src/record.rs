//! Declared JSON records: one field list writes a struct's codecs.
//!
//! [`json_record!`](crate::json_record) takes a struct and the names of
//! its fields in wire order and writes two codecs for an object with
//! one key per field, each value handled by the field type's
//! [`JsonField`] impl:
//!
//! * the typed codec of the request path: `write_json` walks the
//!   fields into any [`Sink`] (a line buffer, or a fingerprint hash),
//!   and `read_json` pulls them out of a [`Parser`], with no [`Json`]
//!   tree either way;
//! * the tree codec, `to_json` and `from_json`, which the artifacts
//!   and the journal use and which the tests hold the typed codec to.
//!
//! The field list is the only place a field's wire name is written.
//! Both decoders gather each field's first value and then run one
//! validation sequence, written once in the macro: the struct is built
//! with a literal (a field missing from the list is a compile error),
//! in list order, so the first bad field is reported whatever the
//! input's key order. Defaults stay in the struct's `Default`.

use crate::json::write_num;
use crate::{Json, ParseError, Parser, Sink};

/// A decoded field value: `Err(None)` for one of the wrong type or
/// range, `Err(Some(message))` for a nested record's own error.
pub type Decoded<T> = Result<T, Option<String>>;

/// A type a [`json_record!`](crate::json_record) field can hold. Each
/// pair of methods (tree and typed) must agree: `write_field` writes
/// the bytes `to_field` encodes to, and `read_field` decides what
/// `from_value` decides on the same value.
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

/// Unsigned integers: a non-negative integral number that fits.
macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_field(&self) -> Json {
                (*self).into()
            }

            fn write_field<S: Sink>(&self, out: &mut S) {
                // As `to_field`'s `Json::Num`: exact below 2^53, rounded
                // past it.
                write_num(out, *self as f64);
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

/// `null` is `None`; an absent key is still an error.
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
}

/// Writes the typed codec (`write_json`, `read_json`), the tree codec
/// (`to_json`, `from_json`) and the [`JsonField`] impl of a struct from
/// its field names in wire order:
///
/// ```
/// use oov_proto::{json_record, Json, Parser};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u32,
///     y: Option<u64>,
/// }
/// json_record!(Point, "point", [x, y]);
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
/// A trailing `validate` makes both decoders return the struct's
/// `validate(&self) -> Result<(), String>` error for a well-formed
/// value it rejects.
#[macro_export]
macro_rules! json_record {
    (
        $ty:ty,
        $what:literal,
        [$first:ident $(, $field:ident)* $(,)?]
        $(, $validate:ident)?
    ) => {
        impl $ty {
            #[doc = concat!("Writes the ", $what, " as a JSON object, one key per field: the bytes of `to_json`, with no tree.")]
            pub fn write_json<S: $crate::Sink>(&self, out: &mut S) {
                out.put(concat!("{\"", stringify!($first), "\": "));
                $crate::JsonField::write_field(&self.$first, out);
                $(
                    out.put(concat!(", \"", stringify!($field), "\": "));
                    $crate::JsonField::write_field(&self.$field, out);
                )*
                out.put("}");
            }

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

            #[doc = concat!("Encodes the ", $what, " as a JSON object tree, one key per field.")]
            #[must_use]
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    (stringify!($first).to_string(), $crate::JsonField::to_field(&self.$first)),
                    $((stringify!($field).to_string(), $crate::JsonField::to_field(&self.$field)),)*
                ])
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
            fn to_field(&self) -> $crate::Json {
                self.to_json()
            }

            fn write_field<S: $crate::Sink>(&self, out: &mut S) {
                self.write_json(out);
            }

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
    // The validation sequence both decoders run, over locals named
    // after the fields that hold each key's first decoded value.
    (@build $what:literal, [$($field:ident),+] $(, $validate:ident)?) => {
        (|| -> Result<Self, String> {
            let record = Self {
                $($field: $crate::JsonField::from_field($field, $what, stringify!($field))?,)+
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
    json_record!(Inner, "inner", [n]);

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        flag: bool,
        count: u64,
        size: usize,
        inner: Inner,
        maybe: Option<Inner>,
    }
    json_record!(Outer, "outer", [count, flag, size, inner, maybe], check);

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
}
