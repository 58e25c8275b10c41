//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_value`], [`from_str`], and a [`Value`] with
//! `get`/`Display`. Floats round-trip exactly (Rust's shortest-decimal
//! formatting on the way out, exact parsing on the way back in), which is
//! what the upstream `float_roundtrip` feature guaranteed.

#![expect(
    clippy::expect_used,
    reason = "vendored stand-in for an external crate: the workspace lint policy covers this project's own code"
)]

pub use serde::Value;

use serde::de::DeserializeOwned;
use serde::{DeError, Serialize};

/// Serialisation/deserialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Renders `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the value model this shim supports; the `Result` shape
/// mirrors upstream `serde_json`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Converts `value` into a [`Value`] tree.
///
/// # Errors
///
/// Infallible in this shim (`Result` mirrors upstream).
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax error or shape
/// mismatch.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax error.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or ']' but found {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or '}}' but found {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
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
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error("lone surrogate".into()));
                                }
                                let low = self.hex4()?;
                                let combined = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| Error("invalid \\u escape".into()))?);
                        }
                        other => return Err(Error(format!("bad escape \\{}", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        self.pos += 4;
        let s = std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?;
        u32::from_str_radix(s, 16).map_err(|_| Error(format!("bad \\u escape {s:?}")))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number text");
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else if let Some(digits) = text.strip_prefix('-') {
            digits
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .or_else(|| text.parse::<f64>().ok().map(Value::F64))
                .ok_or_else(|| Error(format!("invalid number {text:?}")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .or_else(|_| text.parse::<f64>().map(Value::F64))
                .map_err(|_| Error(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("0.1").unwrap(), 0.1);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 42.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(f64, f64)> = vec![(1.5, 2.0), (3.0, 4.25)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1.5,2.0],[3.0,4.25]]");
        assert_eq!(from_str::<Vec<(f64, f64)>>(&s).unwrap(), v);

        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));
    }

    #[test]
    fn value_access_and_display() {
        let v = parse_value(r#"{"a": 1, "b": [true, null, "x"]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert!(v.get("missing").is_none());
        assert_eq!(v.to_string(), r#"{"a":1,"b":[true,null,"x"]}"#);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "\"", "{\"a\"}", "tru", "1e", "[}", "nullx"] {
            assert!(parse_value(bad).is_err(), "{bad:?}");
        }
    }
}
