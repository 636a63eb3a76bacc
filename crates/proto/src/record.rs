//! Declared JSON records: one field list writes a struct's codec.
//!
//! [`json_record!`](crate::json_record) takes a struct and the names of
//! its fields in wire order and writes the struct's `to_json` and
//! `from_json`: an object with one key per field, each value encoded
//! and decoded by the field type's [`JsonField`] impl. The field list
//! is the only place a field's wire name is written. The decoder
//! builds the struct with a literal, so a field missing from the list
//! is a compile error, and defaults stay in the struct's `Default`.

use crate::Json;

/// A type a [`json_record!`](crate::json_record) field can hold.
pub trait JsonField: Sized {
    /// The value's encoding.
    fn to_field(&self) -> Json;

    /// Decodes a value: `Err(None)` for one of the wrong type or range,
    /// `Err(Some(message))` for a nested record's own error.
    ///
    /// # Errors
    ///
    /// As above.
    fn from_value(v: &Json) -> Result<Self, Option<String>>;

    /// Decodes field `name` of a `what` record, `v` being `None` when
    /// the key is absent.
    ///
    /// # Errors
    ///
    /// A nested record's own error, or `{what}: bad or missing field
    /// `{name}`` for anything else that does not decode.
    fn from_field(v: Option<&Json>, what: &str, name: &str) -> Result<Self, String> {
        match v.map(Self::from_value) {
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

    fn from_value(v: &Json) -> Result<Self, Option<String>> {
        v.as_bool().ok_or(None)
    }
}

/// Unsigned integers: a non-negative integral number that fits.
macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_field(&self) -> Json {
                (*self).into()
            }

            fn from_value(v: &Json) -> Result<Self, Option<String>> {
                v.as_u64().and_then(|n| <$t>::try_from(n).ok()).ok_or(None)
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

    fn from_value(v: &Json) -> Result<Self, Option<String>> {
        match v {
            Json::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

/// Writes `to_json`, `from_json` and the [`JsonField`] impl of a
/// struct from its field names in wire order:
///
/// ```
/// use oov_proto::{json_record, Json};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u32,
///     y: Option<u64>,
/// }
/// json_record!(Point, "point", [x, y]);
///
/// let p = Point { x: 1, y: None };
/// assert_eq!(p.to_json().encode(), r#"{"x": 1, "y": null}"#);
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// let err = Point::from_json(&Json::parse(r#"{"x": 1}"#).unwrap());
/// assert_eq!(err, Err("point: bad or missing field `y`".to_string()));
/// ```
///
/// A trailing `validate` makes `from_json` return the struct's
/// `validate(&self) -> Result<(), String>` error for a well-formed
/// value it rejects.
#[macro_export]
macro_rules! json_record {
    ($ty:ty, $what:literal, [$($field:ident),+ $(,)?] $(, $validate:ident)?) => {
        impl $ty {
            #[doc = concat!("Encodes the ", $what, " as a JSON object, one key per field.")]
            #[must_use]
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::JsonField::to_field(&self.$field),
                )),+])
            }

            #[doc = concat!("Decodes the ", $what, " encoding `to_json` writes.")]
            ///
            /// # Errors
            ///
            /// Names the missing or malformed field, or the bound the
            /// value breaks.
            pub fn from_json(v: &$crate::Json) -> Result<Self, String> {
                let record = Self {
                    $($field: $crate::JsonField::from_field(
                        v.get(stringify!($field)),
                        $what,
                        stringify!($field),
                    )?,)+
                };
                $(record.$validate()?;)?
                Ok(record)
            }
        }

        impl $crate::JsonField for $ty {
            fn to_field(&self) -> $crate::Json {
                self.to_json()
            }

            fn from_value(v: &$crate::Json) -> Result<Self, Option<String>> {
                Self::from_json(v).map_err(Some)
            }
        }
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
}
