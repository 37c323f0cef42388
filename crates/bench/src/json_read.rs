//! A minimal JSON reader for the workspace's own artifacts.
//!
//! The build environment has no serde; journals, frontier documents,
//! and the serving protocol are written by this workspace's fixed-order
//! serializer ([`crate::json`]), but readers must survive *any*
//! well-formed reordering plus truncated trailing lines from a killed
//! process, so reading them back deserves a real (if small)
//! recursive-descent parser rather than substring scans. Shared by the
//! explore journal, the `minnow-serve` wire protocol, and the schema
//! tests.
//!
//! An object is its field list in document order,
//! `Vec<(String, Json)>`: the documents read here have a few dozen
//! fields at most, so a backwards scan finds a key faster than a tree
//! is built. A repeated key keeps every occurrence; lookups return its
//! last value. Equality is derived, so two objects are equal when
//! they hold the same fields in the same order. Parsing is linear in
//! the input.
//!
//! Nesting is bounded at [`MAX_DEPTH`] levels, so a line of a million
//! `[` is an error, not a stack overflow. `tests/json_props.rs` keeps
//! the previous, map-based reader as an oracle and checks that both
//! accept and refuse the same documents with the same messages.
//!
//! Unsigned integer tokens parse to [`Json::Int`] and stay **exact**
//! over the full `u64` range — derived point seeds are genuine 64-bit
//! values, and routing them through an `f64` would silently round
//! everything above 2^53. Every other number is an [`Json::Number`]
//! `f64`.

/// The deepest nesting of arrays and objects a document may have. The
/// workspace writes four levels at most.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object: its fields in document order. A repeated key keeps every
    /// occurrence; [`Json::get`] returns the last one's value.
    Object(Vec<(String, Json)>),
    /// Array.
    Array(Vec<Json>),
    /// String.
    String(String),
    /// Unsigned integer token (no sign, fraction, or exponent): exact
    /// over the full `u64` range.
    Int(u64),
    /// Any other number (all remaining JSON numbers are f64 here).
    Number(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset error message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after JSON value at {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup: the last value of `key`; `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (integers convert, with
    /// the usual precision loss above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`: exact for [`Json::Int`] tokens, lossy-safe
    /// for integral [`Json::Number`]s (e.g. `3.0`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Required typed field accessors for record parsing; errors name
    /// the missing/mistyped key.
    ///
    /// # Errors
    ///
    /// Returns an error naming `key` when absent or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }

    /// See [`Json::str_field`].
    ///
    /// # Errors
    ///
    /// Returns an error naming `key` when absent or not a u64.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// See [`Json::str_field`].
    ///
    /// # Errors
    ///
    /// Returns an error naming `key` when absent or not a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-number field `{key}`"))
    }

    /// See [`Json::str_field`].
    ///
    /// # Errors
    ///
    /// Returns an error naming `key` when absent or not a boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing or non-boolean field `{key}`"))
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    // The error texts are built out of line, off the path every byte
    // takes.
    #[inline]
    fn peek(&self) -> Result<u8, String> {
        match self.bytes.get(self.pos) {
            Some(&b) => Ok(b),
            None => Err(self.end_of_input()),
        }
    }

    #[cold]
    fn end_of_input(&self) -> String {
        format!("unexpected end of input at {}", self.pos)
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(self.unexpected(b));
        }
        self.pos += 1;
        Ok(())
    }

    #[cold]
    fn unexpected(&self, b: u8) -> String {
        format!(
            "expected {:?} at byte {}, got {:?}",
            b as char, self.pos, self.bytes[self.pos] as char
        )
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(Vec::new()));
        }
        // Room for most objects the workspace writes, so a request or
        // reply reallocates few lists. Eight fields take 448 bytes, less
        // than one `BTreeMap` leaf, so small objects cost less memory
        // than they did as maps.
        let mut fields = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']', got {:?}", other as char)),
            }
        }
    }

    /// Advances to the next `"` or `\` (or the end of input).
    fn skip_plain(&mut self) {
        self.pos += self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - self.pos);
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Most strings have no escape: one scan, one exact allocation.
        let start = self.pos;
        self.skip_plain();
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(self.text[start..self.pos - 1].to_owned());
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| format!("\\u: {e}"))?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Both run delimiters are ASCII, so a run slices
                    // `text` on char boundaries.
                    let start = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        // Fast path: a plain unsigned integer token that fits a u64.
        let mut n: Option<u64> = Some(0);
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        let ends_token = !matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E')
        );
        if self.pos > start && ends_token {
            if let Some(n) = n {
                return Ok(Json::Int(n));
            }
        }
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map(Json::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_explorers_own_output_shapes() {
        let doc = Json::parse(
            "{\"schema\":\"minnow-explore-journal/v1\",\"seq\":3,\"scale\":0.010000,\
             \"timed_out\":false,\"rungs\":[0.01,0.08],\"note\":null}",
        )
        .unwrap();
        assert_eq!(doc.str_field("schema").unwrap(), "minnow-explore-journal/v1");
        assert_eq!(doc.u64_field("seq").unwrap(), 3);
        assert_eq!(doc.f64_field("scale").unwrap(), 0.01);
        assert!(!doc.bool_field("timed_out").unwrap());
        assert_eq!(doc.get("rungs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("note"), Some(&Json::Null));
        assert!(doc.u64_field("scale").is_err(), "fractional is not u64");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,", "\"unterminated", "{\"a\":1}x", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn integer_tokens_stay_exact_over_the_full_u64_range() {
        // A derived point seed: well above 2^53, where f64 rounds.
        let doc = Json::parse("{\"seed\":18446744073709551615,\"neg\":-3,\"f\":2.5}").unwrap();
        assert_eq!(doc.u64_field("seed").unwrap(), u64::MAX);
        assert_eq!(doc.get("seed"), Some(&Json::Int(u64::MAX)));
        assert_eq!(doc.get("neg"), Some(&Json::Number(-3.0)));
        assert_eq!(doc.f64_field("f").unwrap(), 2.5);
        // Integers still read as f64 when asked.
        assert_eq!(doc.f64_field("neg").unwrap(), -3.0);
        assert!(doc.u64_field("neg").is_err());
        // One past u64::MAX, and far past it: numbers, not wrapped ints.
        for big in ["18446744073709551616", "99999999999999999999"] {
            let n = big.parse::<f64>().unwrap();
            assert_eq!(Json::parse(big), Ok(Json::Number(n)), "{big}");
        }
    }

    #[test]
    fn strings_unescape() {
        let doc = Json::parse("{\"s\":\"a\\n\\\"b\\\"\\u0041\"}").unwrap();
        assert_eq!(doc.str_field("s").unwrap(), "a\n\"b\"A");
    }

    #[test]
    fn repeated_keys_read_their_last_value() {
        let doc = Json::parse("{\"a\":1,\"b\":[true],\"a\":2}").unwrap();
        assert_eq!(doc.u64_field("a").unwrap(), 2);
        let Json::Object(fields) = &doc else {
            panic!("{doc:?}")
        };
        assert_eq!(fields.len(), 3, "every occurrence is kept");
        assert_eq!(fields[0], ("a".to_string(), Json::Int(1)));
        assert_eq!(Json::parse("{}"), Ok(Json::Object(Vec::new())));
    }

    #[test]
    fn nesting_is_bounded_without_recursing_into_the_rest() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .starts_with("nesting deeper"));
        // A megabyte of `[` on a small stack: an error, not an abort.
        let handle = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| Json::parse(&"[".repeat(1 << 20)))
            .unwrap();
        assert!(handle.join().unwrap().is_err());
    }
}
