//! A minimal, std-only JSON reader/writer for the daemon's wire protocol.
//!
//! This file parses untrusted bytes off a socket or stdin, so it is held
//! to the workspace's untrusted-parser contract: every failure is a typed
//! [`JsonError`] (never a panic), container depth and string sizes are
//! bounded, and no input-derived value is used in unchecked arithmetic or
//! indexing. Objects are `BTreeMap`s so serialization order — and
//! therefore every byte the daemon emits — is deterministic.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 32;

/// Maximum accepted input length in bytes (16 MiB); uploads of large
/// ITC'02 designs fit comfortably, runaway inputs do not.
pub const MAX_INPUT_BYTES: usize = 16 << 20;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is sorted, duplicate keys keep the last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// An integer value, saturated at `i64::MAX`.
    pub(crate) fn int(n: impl TryInto<i64>) -> Value {
        Value::Int(n.try_into().unwrap_or(i64::MAX))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen losslessly for the range the
    /// protocol uses).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            // Exact decimal widening via the float parser (correctly
            // rounded for any i64, no lossy casts involved).
            Value::Int(n) => format!("{n}").parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object field `key`, if this is an object containing it.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

/// Convenience: build an object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), v);
    }
    Value::Obj(map)
}

/// Why an input was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input longer than [`MAX_INPUT_BYTES`].
    TooLarge,
    /// More than [`MAX_DEPTH`] nested containers.
    TooDeep,
    /// Unexpected character or end of input at the given byte offset.
    Syntax {
        /// Byte offset of the failure.
        at: usize,
    },
    /// A number that fits neither `i64` nor `f64` grammar.
    BadNumber {
        /// Byte offset of the failure.
        at: usize,
    },
    /// A malformed string escape.
    BadEscape {
        /// Byte offset of the failure.
        at: usize,
    },
    /// Valid value followed by trailing non-whitespace.
    Trailing {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooLarge => f.write_str("input too large"),
            JsonError::TooDeep => f.write_str("nesting too deep"),
            JsonError::Syntax { at } => write!(f, "syntax error at byte {at}"),
            JsonError::BadNumber { at } => write!(f, "bad number at byte {at}"),
            JsonError::BadEscape { at } => write!(f, "bad string escape at byte {at}"),
            JsonError::Trailing { at } => write!(f, "trailing data at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value from `text`.
///
/// # Errors
///
/// A typed [`JsonError`]; never panics on any input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    if text.len() > MAX_INPUT_BYTES {
        return Err(JsonError::TooLarge);
    }
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        len: text.len(),
    };
    p.skip_ws();
    let value = p.value(MAX_DEPTH)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some((at, _)) => Err(JsonError::Trailing { at }),
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Option<(usize, char)> {
        self.chars.peek().copied()
    }

    fn next(&mut self) -> Option<(usize, char)> {
        self.chars.next()
    }

    fn pos(&mut self) -> usize {
        self.peek().map_or(self.len, |(i, _)| i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some((_, ' ' | '\t' | '\n' | '\r'))) {
            self.next();
        }
    }

    fn eat(&mut self, want: char) -> Result<(), JsonError> {
        match self.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((at, _)) => Err(JsonError::Syntax { at }),
            None => Err(JsonError::Syntax { at: self.len }),
        }
    }

    /// Consumes a keyword like `true` after its first char matched.
    fn keyword(&mut self, rest: &str) -> Result<(), JsonError> {
        for want in rest.chars() {
            match self.next() {
                Some((_, c)) if c == want => {}
                Some((at, _)) => return Err(JsonError::Syntax { at }),
                None => return Err(JsonError::Syntax { at: self.len }),
            }
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        let next_depth = depth.checked_sub(1).ok_or(JsonError::TooDeep)?;
        match self.peek() {
            Some((_, 'n')) => {
                self.next();
                self.keyword("ull")?;
                Ok(Value::Null)
            }
            Some((_, 't')) => {
                self.next();
                self.keyword("rue")?;
                Ok(Value::Bool(true))
            }
            Some((_, 'f')) => {
                self.next();
                self.keyword("alse")?;
                Ok(Value::Bool(false))
            }
            Some((_, '"')) => self.string().map(Value::Str),
            Some((_, '[')) => {
                self.next();
                self.skip_ws();
                let mut items = Vec::new();
                if matches!(self.peek(), Some((_, ']'))) {
                    self.next();
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(next_depth)?);
                    self.skip_ws();
                    match self.next() {
                        Some((_, ',')) => self.skip_ws(),
                        Some((_, ']')) => return Ok(Value::Arr(items)),
                        Some((at, _)) => return Err(JsonError::Syntax { at }),
                        None => return Err(JsonError::Syntax { at: self.len }),
                    }
                }
            }
            Some((_, '{')) => {
                self.next();
                self.skip_ws();
                let mut map = BTreeMap::new();
                if matches!(self.peek(), Some((_, '}'))) {
                    self.next();
                    return Ok(Value::Obj(map));
                }
                loop {
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(':')?;
                    self.skip_ws();
                    let val = self.value(next_depth)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.next() {
                        Some((_, ',')) => self.skip_ws(),
                        Some((_, '}')) => return Ok(Value::Obj(map)),
                        Some((at, _)) => return Err(JsonError::Syntax { at }),
                        None => return Err(JsonError::Syntax { at: self.len }),
                    }
                }
            }
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
            Some((at, _)) => Err(JsonError::Syntax { at }),
            None => Err(JsonError::Syntax { at: self.len }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some((_, '"')) => return Ok(out),
                Some((at, '\\')) => match self.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut hex = String::new();
                        for _ in 0..4 {
                            match self.next() {
                                Some((_, c)) if c.is_ascii_hexdigit() => hex.push(c),
                                _ => return Err(JsonError::BadEscape { at }),
                            }
                        }
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or(JsonError::BadEscape { at })?;
                        out.push(code);
                    }
                    _ => return Err(JsonError::BadEscape { at }),
                },
                Some((at, c)) if (c < ' ') => return Err(JsonError::Syntax { at }),
                Some((_, c)) => out.push(c),
                None => return Err(JsonError::Syntax { at: self.len }),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos();
        let mut text = String::new();
        let mut fractional = false;
        if matches!(self.peek(), Some((_, '-'))) {
            text.push('-');
            self.next();
        }
        while let Some((_, c)) = self.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.next();
                }
                '.' | 'e' | 'E' | '+' | '-' => {
                    fractional = true;
                    text.push(c);
                    self.next();
                }
                _ => break,
            }
        }
        if fractional {
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .map(Value::Num)
                .ok_or(JsonError::BadNumber { at: start })
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| JsonError::BadNumber { at: start })
        }
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => {
            use std::fmt::Write as _;
            let _ = write!(out, "{n}");
        }
        Value::Num(x) => {
            use std::fmt::Write as _;
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let v = obj(vec![
            ("id", Value::Int(7)),
            ("op", Value::Str("plan".into())),
            ("width", Value::Int(16)),
            ("density", Value::Num(0.5)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(v.field("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.field("density").and_then(Value::as_f64), Some(0.5));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\u{1}e".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "nul",
            "\"abc",
            "1e999",
            "--3",
            "{\"a\":1}x",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert_eq!(parse(&deep), Err(JsonError::TooDeep));
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        // Large integers widen to f64 without `as` casts.
        let big = parse("9007199254740992").unwrap();
        assert_eq!(big.as_f64(), Some(9007199254740992.0));
    }
}
