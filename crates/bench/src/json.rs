//! A dependency-free JSON writer and parser.
//!
//! The bench crate must not pull serde into the workspace, so the
//! committed results documents (`BENCH_table5.json`, decoded by
//! [`Table5Doc`](crate::table5::Table5Doc), and `SECCOMP_PROFILES.json`,
//! decoded by [`seccomp_derive::from_json`](crate::seccomp_derive::from_json))
//! are written and read through this small hand-rolled subset: objects,
//! arrays, strings, finite numbers, booleans and null — round-trippable
//! by any real JSON tool.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key` read by `as_t` (`Value::as_f64`, ...), or an
    /// error naming the field when it is missing or of another type.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(as_t)
            .ok_or_else(|| format!("field {:?} missing or of the wrong type", key))
    }

    /// The array member `key`, each element decoded by `decode`; an
    /// element's error is prefixed with `key[index]`.
    pub fn items<T>(
        &self,
        key: &str,
        decode: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.field(key, Value::as_arr)?.iter().enumerate();
        items
            .map(|(i, v)| decode(v).map_err(|e| format!("{}[{}]: {}", key, i, e)))
            .collect()
    }

    /// The boolean value, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a count, if this is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64)
            .map(|n| n as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                // NaN/inf have no JSON representation; emit null so the
                // document stays parseable whatever the measurement did.
                if n.is_finite() {
                    out.push_str(&format!("{}", n));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for inclusion between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses JSON text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => Ok(Value::Arr(self.seq([b'[', b']'], Self::value)?)),
            Some(b'{') => Ok(Value::Obj(self.seq([b'{', b'}'], Self::member)?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    self.pos += 4;
                    code.and_then(char::from_u32).ok_or("bad \\u escape")?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            });
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {:?} at byte {}", text, start))
    }

    /// The comma-separated `item`s between the brackets `open` and
    /// `close`.
    fn seq<T>(
        &mut self,
        [open, close]: [u8; 2],
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    let at = self.pos;
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, at
                    ));
                }
            }
        }
    }

    /// One `"key": value` member of an object.
    fn member(&mut self) -> Result<(String, Value), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = Value::Obj(vec![
            ("s".into(), Value::Str("a\"b\\c\nd".into())),
            ("n".into(), Value::Num(-12.5)),
            (
                "a".into(),
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(3.0)]),
            ),
            ("o".into(), Value::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u0041\\n\" , null ] } ").unwrap();
        let k = vec![Value::Num(1.0), Value::Str("A\n".into()), Value::Null];
        assert_eq!(v, Value::Obj(vec![("k".into(), Value::Arr(k))]));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"abc").is_err() && parse("\"\\x\"").is_err());
        assert_eq!(parse("\"é\\u00e9\""), Ok(Value::Str("éé".into())));
    }
}
