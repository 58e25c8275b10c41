//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build container has no crates.io access, so the workspace
//! path-depends on this shim. It keeps the public *shape* of serde —
//! `Serialize`/`Deserialize` traits, `#[derive(Serialize, Deserialize)]`,
//! `serde::de::DeserializeOwned` — but replaces the visitor machinery with
//! a direct in-memory [`Value`] tree: serialising produces a `Value`,
//! deserialising consumes one. The companion `serde_json` shim renders
//! and parses that tree as JSON.
//!
//! The derive macros (re-exported from `serde_derive`) support the
//! shapes present in this workspace: named-field structs, tuple/newtype
//! structs, and enums with unit, tuple and struct variants. Field
//! attributes (`#[serde(...)]`) are *not* supported.

#![expect(
    clippy::expect_used,
    reason = "vendored stand-in for an external crate: the workspace lint policy covers this project's own code"
)]

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

pub use value::Value;

/// Deserialisation failure: what was expected and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for a `Value` of the wrong shape.
    pub fn expected(what: &str, while_parsing: &str) -> Self {
        DeError(format!(
            "expected {what} while deserialising {while_parsing}"
        ))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that can render itself as a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses a value tree produced by [`Serialize::to_value`].
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] naming the mismatched shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

pub mod de {
    //! Deserialisation traits (mirrors `serde::de`).
    pub use crate::Deserialize;
    /// In this shim every deserialisable type is owned, so
    /// `DeserializeOwned` is the same trait as [`Deserialize`].
    pub use crate::Deserialize as DeserializeOwned;
}

pub mod ser {
    //! Serialisation traits (mirrors `serde::ser`).
    pub use crate::Serialize;
}

// ---------------------------------------------------------------------
// Primitive and container implementations.
// ---------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::U64(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    _ => Err(DeError::expected("unsigned integer", stringify!($t))),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        // JSON numbers cap at u64 in this shim; larger values travel as
        // decimal strings (lossless, self-describing on the way back in).
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::Str(self.to_string()),
        }
    }
}

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::U64(n) => Ok(u128::from(*n)),
            Value::I64(n) => {
                u128::try_from(*n).map_err(|_| DeError(format!("{n} out of range for u128")))
            }
            Value::Str(s) => s
                .parse()
                .map_err(|_| DeError(format!("{s:?} is not a u128"))),
            _ => Err(DeError::expected("unsigned integer", "u128")),
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::U64(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    _ => Err(DeError::expected("integer", stringify!($t))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            Value::Null => Ok(f64::NAN),
            _ => Err(DeError::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("boolean", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for &'static str {
    /// Upstream serde deserialises `&str` by borrowing from the input;
    /// this shim's input is transient, so the string is leaked instead.
    /// Only the static experiment-registry types rely on this, and they
    /// are deserialised rarely (tests), so the leak is bounded and
    /// acceptable.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => Err(DeError::expected("string", "&str")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => Err(DeError::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected {N} elements, found {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => {
                        let mut it = items.iter();
                        let out = ($(
                            $name::from_value(
                                it.next().ok_or_else(|| DeError::expected("longer array", "tuple"))?,
                            )?,
                        )+);
                        if it.next().is_some() {
                            return Err(DeError::expected("shorter array", "tuple"));
                        }
                        Ok(out)
                    }
                    _ => Err(DeError::expected("array", "tuple")),
                }
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        // Map keys may be composite (e.g. `(u64, u64)`), which JSON
        // objects cannot express; maps therefore travel as ordered
        // `[key, value]` pair arrays.
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(<(K, V)>::from_value).collect(),
            _ => Err(DeError::expected("array of pairs", "BTreeMap")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
