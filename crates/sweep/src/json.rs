//! A minimal recursive-descent JSON reader shared by the sweep store and
//! the campaign manifest parser.
//!
//! The workspace builds offline, so no external JSON dependency exists;
//! this reader covers exactly the grammar the workspace's own files use.
//! Numbers keep their raw token so integers round-trip at full `u64`
//! precision and floats parse with Rust's exact shortest-roundtrip
//! grammar — the property merged-store reports rely on to be
//! byte-identical with unsharded runs.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The key/value pairs of an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Looks up a required object field.
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Looks up an optional object field (`None` when absent).
pub fn opt<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A required string field.
pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    match get(obj, key)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("field {key:?} is not a string: {other:?}")),
    }
}

/// A required `u64` field.
pub fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    match get(obj, key)? {
        Value::Num(raw) => raw
            .parse::<u64>()
            .map_err(|e| format!("field {key:?}: {e}")),
        other => Err(format!("field {key:?} is not a number: {other:?}")),
    }
}

/// A required `f64` field.
pub fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Value::Num(raw) => raw
            .parse::<f64>()
            .map_err(|e| format!("field {key:?}: {e}")),
        other => Err(format!("field {key:?} is not a number: {other:?}")),
    }
}

/// An optional `u64` field (`Ok(None)` when absent, `Err` when present
/// but not an unsigned integer).
pub fn opt_u64(obj: &[(String, Value)], key: &str) -> Result<Option<u64>, String> {
    match opt(obj, key) {
        None => Ok(None),
        Some(_) => get_u64(obj, key).map(Some),
    }
}

/// An optional `f64` field (`Ok(None)` when absent, `Err` when present
/// but not a number).
pub fn opt_f64(obj: &[(String, Value)], key: &str) -> Result<Option<f64>, String> {
    match opt(obj, key) {
        None => Ok(None),
        Some(_) => get_f64(obj, key).map(Some),
    }
}

/// An optional boolean field (`Ok(None)` when absent, `Err` when present
/// but not a boolean).
pub fn opt_bool(obj: &[(String, Value)], key: &str) -> Result<Option<bool>, String> {
    match opt(obj, key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("field {key:?} is not a boolean: {other:?}")),
    }
}

/// An optional string field (`Ok(None)` when absent, `Err` when present
/// but not a string).
pub fn opt_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<Option<&'a str>, String> {
    match opt(obj, key) {
        None => Ok(None),
        Some(_) => get_str(obj, key).map(Some),
    }
}

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// files nest a few levels; the cap turns a hostile document into an
/// error instead of a stack overflow in the recursive descent.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage and arrays or
/// objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.depth += 1;
                let value = self.object();
                self.depth -= 1;
                value
            }
            Some(b'[') => {
                self.depth += 1;
                let value = self.array();
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("unexpected {other:?} in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("unexpected {other:?} in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go: both
            // are ASCII, so the run ends on a char boundary of the input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let digits = self.pos + 1..self.pos + 5;
                    if !self
                        .bytes
                        .get(digits.clone())
                        .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit))
                    {
                        return Err("\\u escape needs four hex digits".to_string());
                    }
                    let code =
                        u32::from_str_radix(&self.text[digits], 16).map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // Validate the token parses as a float (covers integers too).
        raw.parse::<f64>()
            .map_err(|e| format!("bad number {raw:?}: {e}"))?;
        Ok(Value::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_store_grammar() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"s":"x\"\nA","b":true,"n":null}"#).expect("parse");
        let obj = v.as_object().expect("object");
        let arr = get(obj, "a").unwrap().as_array().expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(get_str(obj, "s").unwrap(), "x\"\nA");
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("").is_err());
        assert_eq!(
            get_u64(
                parse(r#"{"x":18446744073709551615}"#)
                    .unwrap()
                    .as_object()
                    .unwrap(),
                "x"
            )
            .unwrap(),
            u64::MAX,
            "u64 integers round-trip at full precision"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each unescaped character once re-validated the rest of the
        // input: 400k characters took seconds. Multi-byte characters and
        // escapes keep the run-copying path honest.
        let unit = "aé\\n\\u00e9";
        let body = unit.repeat(400_000);
        let start = std::time::Instant::now();
        let Value::Str(s) = parse(&format!("\"{body}\"")).expect("parse") else {
            panic!("not a string");
        };
        assert_eq!(s, "aé\né".repeat(400_000));
        assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        assert!(parse(r#""\ud800""#).is_err(), "a lone surrogate is no char");
    }

    #[test]
    fn optional_lookups_distinguish_absent_from_malformed() {
        let v = parse(r#"{"n":3,"f":1.5,"s":"x"}"#).expect("parse");
        let obj = v.as_object().expect("object");
        assert_eq!(opt_u64(obj, "n").unwrap(), Some(3));
        assert_eq!(opt_u64(obj, "missing").unwrap(), None);
        assert!(opt_u64(obj, "s").is_err(), "present but wrong type");
        assert_eq!(opt_f64(obj, "f").unwrap(), Some(1.5));
        assert_eq!(opt_f64(obj, "missing").unwrap(), None);
        assert_eq!(opt_str(obj, "s").unwrap(), Some("x"));
        assert_eq!(opt_str(obj, "missing").unwrap(), None);
        assert!(opt_str(obj, "n").is_err());
        assert!(opt(obj, "n").is_some());
        assert!(opt(obj, "missing").is_none());
    }
}
