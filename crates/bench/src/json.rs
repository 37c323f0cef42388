//! Minimal deterministic JSON serialization.
//!
//! The build environment is offline (no serde), and the sweep runner's
//! core guarantee — byte-identical artifacts regardless of worker-thread
//! count — only needs a writer with *stable field order and number
//! formatting*, which this hand-rolled builder provides. Floats are
//! emitted with fixed six-decimal precision so output never depends on
//! shortest-round-trip formatting subtleties.

use std::fmt::Write as _;

/// Appends `s` to `out` escaped for a JSON string (without quotes).
/// Runs of bytes that need no escape are copied as one slice.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `run..i` ends on a char
        // boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends an `f64` as a JSON value: fixed precision, `null` when not
/// finite.
fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

/// Appends the decimal digits of `v`.
fn u64_into(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Renders an `f64` as a JSON value: fixed precision, `null` when not
/// finite.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

/// A JSON object under construction; fields appear in insertion order.
/// The whole object, braces and nested objects included, is built in
/// one buffer.
#[derive(Debug)]
pub struct JsonObject {
    out: String,
    /// No field written yet in the innermost open object.
    empty: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::with_capacity(64)
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Starts an empty object in a buffer of `bytes` capacity, for a
    /// caller that knows its size (and may append to the finished text).
    pub fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push('{');
        JsonObject { out, empty: true }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        u64_into(&mut self.out, value);
        self
    }

    /// Adds an array-of-unsigned-integers field.
    pub fn u64s(mut self, key: &str, values: &[u64]) -> Self {
        self.key(key);
        self.out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            u64_into(&mut self.out, v);
        }
        self.out.push(']');
        self
    }

    /// Adds a float field (fixed six-decimal formatting).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        number_into(&mut self.out, value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an optional unsigned integer field (`null` when absent).
    pub fn opt_u64(mut self, key: &str, value: Option<u64>) -> Self {
        self.key(key);
        match value {
            Some(v) => u64_into(&mut self.out, v),
            None => self.out.push_str("null"),
        }
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Adds a nested object field whose fields `fill` writes into this
    /// object's buffer.
    pub fn object(mut self, key: &str, fill: impl FnOnce(JsonObject) -> JsonObject) -> Self {
        self.key(key);
        self.out.push('{');
        self.empty = true;
        let mut obj = fill(self);
        obj.out.push('}');
        obj.empty = false;
        obj
    }

    /// Finishes the object, returning its JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders pre-serialized values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_field_order_and_escape() {
        let inner = JsonObject::new().u64("x", 1).finish();
        let s = JsonObject::new()
            .str("name", "a \"quoted\"\nline")
            .u64("count", 42)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .opt_u64("missing", None)
            .raw("nested", &inner)
            .finish();
        assert_eq!(
            s,
            "{\"name\":\"a \\\"quoted\\\"\\nline\",\"count\":42,\"ratio\":0.500000,\
             \"ok\":true,\"missing\":null,\"nested\":{\"x\":1}}"
        );
    }

    #[test]
    fn nested_objects_and_integer_arrays_share_the_buffer() {
        let s = JsonObject::with_capacity(8)
            .object("empty", |o| o)
            .object("inner", |o| {
                o.u64("x", 0).object("deeper", |o| o.bool("y", false))
            })
            .u64s("none", &[])
            .u64s("ns", &[0, 7, u64::MAX])
            .finish();
        assert_eq!(
            s,
            "{\"empty\":{},\"inner\":{\"x\":0,\"deeper\":{\"y\":false}},\"none\":[],\
             \"ns\":[0,7,18446744073709551615]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.25), "1.250000");
    }

    #[test]
    fn arrays_join_values() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(std::iter::empty::<String>()), "[]");
    }
}
