//! A from-scratch recursive-descent JSON parser and serializer.
//!
//! Implements the full JSON grammar (RFC 8259): objects, arrays,
//! strings with all escape sequences including `\uXXXX` surrogate
//! pairs, numbers (integer / fraction / exponent), `true` / `false` /
//! `null`. Object key order is preserved (insertion order) because the
//! adapters emit a record's claims in key order.

use crate::error::{ParseError, MAX_NESTING};
use multirag_kg::Value;
use std::fmt;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Numbers that fit an i64 exactly.
    Int(i64),
    /// All other numbers.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index lookup on arrays.
    pub fn at(&self, index: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this node is a container (array or object).
    pub fn is_container(&self) -> bool {
        matches!(self, JsonValue::Array(_) | JsonValue::Object(_))
    }

    /// Converts the JSON scalar tree into the workspace [`Value`] model:
    /// objects flatten away (their values become a list), arrays become
    /// lists.
    pub fn to_value(&self) -> Value {
        match self {
            JsonValue::Null => Value::Null,
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Int(i) => Value::Int(*i),
            JsonValue::Float(f) => Value::Float(*f),
            JsonValue::Str(s) => Value::Str(s.clone()),
            JsonValue::Array(items) => Value::List(items.iter().map(Self::to_value).collect()),
            JsonValue::Object(members) => {
                Value::List(members.iter().map(|(_, v)| v.to_value()).collect())
            }
        }
    }

    /// Depth of the tree (scalars are depth 1).
    pub fn depth(&self) -> usize {
        match self {
            JsonValue::Array(items) => 1 + items.iter().map(Self::depth).max().unwrap_or(0),
            JsonValue::Object(members) => {
                1 + members.iter().map(|(_, v)| v.depth()).max().unwrap_or(0)
            }
            _ => 1,
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

/// Parses a JSON document, requiring the entire input be consumed.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

/// Serializes a [`JsonValue`] to compact JSON text.
pub fn to_string(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Float(f) => write_float(*f, out),
        JsonValue::Str(s) => write_escaped(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; emit null like serde_json's lossy mode.
        out.push_str("null");
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        // Keep a trailing .0 so the value round-trips as a float.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&f.to_string());
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::at("json", self.input, self.pos, message)
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Remaining input from the cursor. The scanner keeps `pos` on a
    /// char boundary; if that invariant ever broke this degrades to
    /// `""` and the caller reports a parse error — adversarial input
    /// can never panic the parser.
    fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or("")
    }

    /// Checked `input[start..end]`, degrading to `""` like [`Self::rest`].
    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.input.get(start..end).unwrap_or("")
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one container a level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, ParseError>,
    ) -> Result<JsonValue, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected '{word}'")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: must be followed by \uDC00-\uDFFF.
                                if self.rest().starts_with("\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let c = self
                        .input
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.error("broken character"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = self.slice(self.pos, self.pos + 4);
        let value = u32::from_str_radix(hex, 16)
            .map_err(|_| self.error(format!("invalid hex in \\u escape: '{hex}'")))?;
        self.pos += 4;
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self.slice(start, self.pos);
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            // Fall back to float for |n| > i64::MAX.
        }
        // An exponent such as `1e999` parses to infinity; JSON has no
        // non-finite numbers, so that is out of range, not a value.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Float(f)),
            _ => Err(self.error("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("3.25").unwrap(), JsonValue::Float(3.25));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"k":"#.repeat(n) + "1" + &"}".repeat(n);
        // The default stack of a spawned thread holds the deepest
        // accepted document, its depth walk and its drop.
        std::thread::spawn(move || {
            assert_eq!(parse(&arrays(MAX_NESTING)).unwrap().depth(), MAX_NESTING);
            assert_eq!(
                parse(&objects(MAX_NESTING)).unwrap().depth(),
                MAX_NESTING + 1
            );
            let err = parse(&arrays(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.offset, MAX_NESTING, "{err}");
            assert!(err.message.starts_with("nesting deeper than"), "{err}");
            assert!(parse(&objects(MAX_NESTING + 1)).is_err());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn overflowing_numbers_are_out_of_range() {
        for text in ["1e999", "-1e999", "[1.5e400]", &"9".repeat(400)] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.message, "number out of range", "{text}");
        }
        // Underflow is finite: it rounds to zero, as before.
        assert_eq!(parse("1e-999").unwrap(), JsonValue::Float(0.0));
    }

    #[test]
    fn parses_nested_containers() {
        let doc = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("a").unwrap().at(0).unwrap().as_i64(), Some(1));
        assert_eq!(
            doc.get("a").unwrap().at(1).unwrap().get("b"),
            Some(&JsonValue::Null)
        );
        // object → array → object → scalar = depth 4.
        assert_eq!(doc.depth(), 4);
    }

    #[test]
    fn preserves_key_order() {
        let doc = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn handles_all_escapes() {
        let doc = parse(r#""a\"b\\c\/d\b\f\n\r\te""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c/d\u{08}\u{0C}\n\r\te"));
    }

    #[test]
    fn handles_unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        // U+1F600 as a surrogate pair.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "[1] extra",
            "{\"a\":1,}",
            "\"bad \\x escape\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_position() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("true"));
    }

    #[test]
    fn huge_integers_fall_back_to_float() {
        let doc = parse("99999999999999999999").unwrap();
        assert!(matches!(doc, JsonValue::Float(_)));
    }

    #[test]
    fn round_trips_documents() {
        let source = r#"{"name":"CA981","legs":[{"from":"PEK","to":"JFK"}],"delay":14.5,"codes":[1,2,3],"active":true,"note":null}"#;
        let doc = parse(source).unwrap();
        let text = to_string(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn serializer_escapes_strings() {
        let doc = JsonValue::Str("a\"b\n\u{01}".into());
        let text = to_string(&doc);
        assert_eq!(text, "\"a\\\"b\\n\\u0001\"");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn float_serialization_round_trips_integral_floats() {
        let doc = JsonValue::Float(3.0);
        let text = to_string(&doc);
        assert_eq!(text, "3.0");
        assert_eq!(parse(&text).unwrap(), JsonValue::Float(3.0));
    }

    #[test]
    fn to_value_flattens_containers() {
        let doc = parse(r#"{"a": 1, "b": ["x", "y"]}"#).unwrap();
        let value = doc.to_value();
        let list = value.as_list().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], Value::Int(1));
        assert_eq!(list[1].as_list().unwrap().len(), 2);
    }

    #[test]
    fn whitespace_everywhere_is_fine() {
        let doc = parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn nan_and_infinity_serialize_as_null() {
        assert_eq!(to_string(&JsonValue::Float(f64::NAN)), "null");
        assert_eq!(to_string(&JsonValue::Float(f64::INFINITY)), "null");
    }
}
