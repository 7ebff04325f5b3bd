//! The one JSON writer (and the small parser `ledger diff` and the
//! tests read reports back with) behind every file the ledger emits.
//!
//! A [`Value`] tree is built with plain constructors and serialized in
//! one place, so no emitter hand-formats a string. Objects keep
//! insertion order (a `Vec` of pairs), which makes every emitted file
//! byte-stable for a given set of values.

use std::fmt::Write as _;

/// A JSON value. Numbers are split so counts stay exact integers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Int(i64::try_from(x).expect("count fits i64"))
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::from(x as u64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Builds an object from `(key, value)` pairs, in the order given.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Value {
    /// Member `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Single-line serialization (the benchmark contract's result line).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented serialization, newline-terminated (files).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN/inf; a non-finite measurement is a bug the
            // reader should see as a missing number, not a parse error.
            Value::Num(x) if !x.is_finite() => out.push_str("null"),
            // Debug prints the shortest round-trip form, always with a `.`
            // or exponent, so a measured `2.0` never reads back as a count.
            Value::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty:
                // sample lists are long and read better that way.
                let scalar = items.iter().all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                let inner = if scalar { None } else { indent };
                write_seq(out, '[', ']', items.len(), inner, depth, |out, i| {
                    items[i].write(out, inner, depth + 1)
                });
            }
            Value::Obj(pairs) => {
                write_seq(out, '{', '}', pairs.len(), indent, depth, |out, i| {
                    write_string(out, &pairs[i].0);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    pairs[i].1.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    open: char,
    close: char,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let (Some(w), true) = (indent, len > 0) {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8")),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The writer only emits \u for control
                            // characters; surrogate pairs are not needed.
                            char::from_u32(hex).ok_or_else(|| self.err("bad \\u code point"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_variant() {
        let v = obj([
            ("null", Value::Null),
            ("flag", true.into()),
            ("count", 3_803_026_554u64.into()),
            ("time", 1.2034.into()),
            ("whole", 2.0.into()),
            ("tiny", 3.5e-9.into()),
            ("text", "a \"quoted\"\\ line\n\ttab \u{1} é".into()),
            ("samples", vec![1.5, 2.25].into()),
            ("nested", Value::Arr(vec![obj([("k", 1u64.into())]), Value::Arr(vec![])])),
            ("empty", obj([])),
        ]);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_never_read_back_as_counts() {
        assert_eq!(Value::Num(2.0).to_compact(), "2.0");
        assert_eq!(Value::Int(2).to_compact(), "2");
        assert_eq!(parse("2.0").unwrap(), Value::Num(2.0));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn compact_is_one_line_and_pretty_indents() {
        let v = obj([("a", obj([("b", vec![1u64, 2].into())]))]);
        assert_eq!(v.to_compact(), "{\"a\":{\"b\":[1,2]}}");
        assert_eq!(v.to_pretty(), "{\n  \"a\": {\n    \"b\": [1,2]\n  }\n}\n");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "tru", "{\"a\":1,}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
