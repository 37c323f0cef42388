//! Properties of the workspace's JSON writer and reader:
//!
//! * **Same bytes** — [`JsonObject`], [`escape`] and [`number`] emit
//!   exactly what the original allocate-per-call writer (kept below as
//!   the oracle) emitted, for keys and strings full of quotes,
//!   backslashes, control characters and non-ASCII text, and for every
//!   float class and the whole `u64` range.
//! * **Round trip** — every generated object reads back through
//!   [`Json::parse`] to the values that were written.
//! * **Truncation** — every proper prefix of a real `eval` reply is an
//!   error, never a panic.
//! * **Same reading** — [`Json::parse`], whose objects are field lists,
//!   agrees with the map-based reader it replaced (kept below as the
//!   reader oracle) on random documents with repeated keys, and on every
//!   truncation and on random one-byte mutations of real protocol lines:
//!   both accept or both refuse, with the same message, and what they
//!   accept reads as the same maps.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

use minnow::algos::WorkloadKind;
use minnow::bench::eval::{run_to_json, EvalReport};
use minnow::bench::json::{array, escape, number, JsonObject};
use minnow::bench::json_read::Json;
use minnow::bench::runner::BenchRun;
use minnow::bench::sweep::{Sweep, SweepParams};
use minnow::explore::{EvalRecord, FrontierDoc, FrontierRow, Rung};
use minnow::serve::{Daemon, ServeConfig};
use proptest::prelude::*;

/// The writer as it was before it appended into one buffer: one
/// `String` per escape and number, and a copy of the body on finish.
mod oracle {
    use std::fmt::Write as _;

    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.6}")
        } else {
            "null".to_string()
        }
    }

    #[derive(Default)]
    pub struct JsonObject {
        fields: String,
    }

    impl JsonObject {
        fn key(&mut self, key: &str) {
            if !self.fields.is_empty() {
                self.fields.push(',');
            }
            let _ = write!(self.fields, "\"{}\":", escape(key));
        }

        pub fn str(mut self, key: &str, value: &str) -> Self {
            self.key(key);
            let _ = write!(self.fields, "\"{}\"", escape(value));
            self
        }

        pub fn u64(mut self, key: &str, value: u64) -> Self {
            self.key(key);
            let _ = write!(self.fields, "{value}");
            self
        }

        pub fn f64(mut self, key: &str, value: f64) -> Self {
            self.key(key);
            self.fields.push_str(&number(value));
            self
        }

        pub fn bool(mut self, key: &str, value: bool) -> Self {
            self.key(key);
            self.fields.push_str(if value { "true" } else { "false" });
            self
        }

        pub fn opt_u64(mut self, key: &str, value: Option<u64>) -> Self {
            self.key(key);
            match value {
                Some(v) => {
                    let _ = write!(self.fields, "{v}");
                }
                None => self.fields.push_str("null"),
            }
            self
        }

        pub fn raw(mut self, key: &str, value: &str) -> Self {
            self.key(key);
            self.fields.push_str(value);
            self
        }

        pub fn finish(self) -> String {
            format!("{{{}}}", self.fields)
        }
    }

    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let body: Vec<String> = items.into_iter().collect();
        format!("[{}]", body.join(","))
    }
}

/// The reader as it was when objects were `BTreeMap`s: its type and
/// parser, unchanged.
mod reader_oracle {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// Object; insertion order preserved, lookups by key.
        Object(BTreeMap<String, Json>),
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
            };
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(format!("trailing bytes after JSON value at {}", p.pos));
            }
            Ok(v)
        }
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Result<u8, String> {
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| format!("unexpected end of input at {}", self.pos))
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? != b {
                return Err(format!(
                    "expected {:?} at byte {}, got {:?}",
                    b as char, self.pos, self.bytes[self.pos] as char
                ));
            }
            self.pos += 1;
            Ok(())
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
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
            let mut fields = BTreeMap::new();
            self.skip_ws();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                fields.insert(key, self.value()?);
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
            let mut out = String::new();
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
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|e| format!("\\u: {e}"))?;
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
                && matches!(
                    self.bytes[self.pos],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.pos += 1;
            }
            let text = &self.text[start..self.pos];
            text.parse()
                .map(Json::Number)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

/// One field value of a generated object.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
    OptU64(Option<u64>),
    /// A nested object of scalar fields, added with `raw`.
    Nested(Vec<(String, Value)>),
    /// An array of integers, added with `raw`.
    Ints(Vec<u64>),
}

/// Characters that stress the escaper: both escaped quotes, every
/// control character class, and one- to four-byte UTF-8.
const CHARS: [char; 16] = [
    'a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '∑', '😀',
    '/', ' ',
];

fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..1000,
        Just(0),
        Just(u64::MAX),
        Just(1 << 53),
    ]
}

fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1_000_000).prop_map(|n| n as f64 / 64.0 - 5000.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(1e300),
        Just(1e-300),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

fn any_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any_text().prop_map(Value::Str),
        any_u64().prop_map(Value::U64),
        any_f64().prop_map(Value::F64),
        any::<bool>().prop_map(Value::Bool),
        (any::<bool>(), any_u64()).prop_map(|(some, v)| Value::OptU64(some.then_some(v))),
        prop::collection::vec(any_u64(), 0..5).prop_map(Value::Ints),
    ]
}

fn any_fields() -> impl Strategy<Value = Vec<(String, Value)>> {
    prop::collection::vec((any_text(), any_scalar()), 0..8)
}

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![any_scalar(), any_fields().prop_map(Value::Nested)]
}

/// Writes `fields` with the in-place writers: nested objects through
/// [`JsonObject::object`] and integer arrays through [`JsonObject::u64s`].
fn fill(obj: JsonObject, fields: &[(String, Value)]) -> JsonObject {
    fields.iter().fold(obj, |obj, (k, v)| match v {
        Value::Str(s) => obj.str(k, s),
        Value::U64(n) => obj.u64(k, *n),
        Value::F64(x) => obj.f64(k, *x),
        Value::Bool(b) => obj.bool(k, *b),
        Value::OptU64(o) => obj.opt_u64(k, *o),
        Value::Nested(inner) => obj.object(k, |o| fill(o, inner)),
        Value::Ints(ns) => obj.u64s(k, ns),
    })
}

fn write_new(fields: &[(String, Value)]) -> String {
    fill(JsonObject::new(), fields).finish()
}

/// The same object through `raw` and `array`, the pre-rendered paths.
fn write_raw(fields: &[(String, Value)]) -> String {
    fields
        .iter()
        .fold(JsonObject::new(), |obj, (k, v)| match v {
            Value::Str(s) => obj.str(k, s),
            Value::U64(n) => obj.u64(k, *n),
            Value::F64(x) => obj.f64(k, *x),
            Value::Bool(b) => obj.bool(k, *b),
            Value::OptU64(o) => obj.opt_u64(k, *o),
            Value::Nested(inner) => obj.raw(k, &write_raw(inner)),
            Value::Ints(ns) => obj.raw(k, &array(ns.iter().map(u64::to_string))),
        })
        .finish()
}

fn write_oracle(fields: &[(String, Value)]) -> String {
    fields
        .iter()
        .fold(oracle::JsonObject::default(), |obj, (k, v)| match v {
            Value::Str(s) => obj.str(k, s),
            Value::U64(n) => obj.u64(k, *n),
            Value::F64(x) => obj.f64(k, *x),
            Value::Bool(b) => obj.bool(k, *b),
            Value::OptU64(o) => obj.opt_u64(k, *o),
            Value::Nested(inner) => obj.raw(k, &write_oracle(inner)),
            Value::Ints(ns) => obj.raw(k, &oracle::array(ns.iter().map(u64::to_string))),
        })
        .finish()
}

/// What the reader must return for a written object, as the reader
/// oracle's map: later duplicate keys win, integers stay exact, floats
/// read back as the six-decimal text denotes, and non-finite floats as
/// `null`.
fn expected(fields: &[(String, Value)]) -> reader_oracle::Json {
    use reader_oracle::Json;
    let mut map = BTreeMap::new();
    for (k, v) in fields {
        let json = match v {
            Value::Str(s) => Json::String(s.clone()),
            Value::U64(n) | Value::OptU64(Some(n)) => Json::Int(*n),
            Value::OptU64(None) => Json::Null,
            Value::F64(x) if x.is_finite() => Json::Number(number(*x).parse().unwrap()),
            Value::F64(_) => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Nested(inner) => expected(inner),
            Value::Ints(ns) => Json::Array(ns.iter().map(|&n| Json::Int(n)).collect()),
        };
        map.insert(k.clone(), json);
    }
    Json::Object(map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The writer emits the oracle's bytes for every field kind, nested
    /// in place or pre-rendered.
    #[test]
    fn writer_matches_the_oracle(fields in prop::collection::vec((any_text(), any_value()), 0..10)) {
        prop_assert_eq!(write_new(&fields), write_oracle(&fields));
        prop_assert_eq!(write_raw(&fields), write_oracle(&fields));
    }

    /// `escape` and `number` alone match the oracle too.
    #[test]
    fn escape_and_number_match_the_oracle(s in any_text(), x in any_f64()) {
        prop_assert_eq!(escape(&s), oracle::escape(&s));
        prop_assert_eq!(number(x), oracle::number(x));
    }

    /// Every written object reads back to the values written.
    #[test]
    fn written_objects_round_trip(fields in prop::collection::vec((any_text(), any_value()), 0..10)) {
        let text = write_new(&fields);
        prop_assert_eq!(Json::parse(&text).map(to_oracle), Ok(expected(&fields)));
    }
}

#[test]
fn the_named_edge_values_match_the_oracle() {
    for x in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e300,
        1e-300,
    ] {
        assert_eq!(number(x), oracle::number(x), "{x}");
    }
    let fields = vec![
        ("q\"\\\u{1}é".to_string(), Value::Str("\u{0}\t😀\"".into())),
        ("max".to_string(), Value::U64(u64::MAX)),
        ("neg0".to_string(), Value::F64(-0.0)),
    ];
    assert_eq!(write_new(&fields), write_oracle(&fields));
    assert_eq!(
        Json::parse(&write_new(&fields)).map(to_oracle),
        Ok(expected(&fields))
    );
}

/// An `eval` request and its reply, and a `sweep` reply: real lines
/// from a daemon answering one small run and a one-point sweep.
struct DaemonLines {
    eval_request: String,
    eval_reply: String,
    sweep_reply: String,
}

fn daemon_lines(name: &str) -> DaemonLines {
    let dir = std::env::temp_dir().join(format!("minnow-json-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 1;
    cfg.out_dir = dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let mut run = BenchRun::minnow(WorkloadKind::Bfs, 2);
    run.scale = 0.05;
    let eval_request = format!(
        "{{\"op\":\"eval\",\"id\":\"p\",\"run\":{}}}",
        run_to_json(&run)
    );
    let params = SweepParams {
        scale: 0.02,
        ..SweepParams::DEFAULT
    };
    let point = &Sweep::named("smoke", &params).unwrap().points[0].id;
    let sweep_request = JsonObject::new()
        .str("op", "sweep")
        .str("sweep", "smoke")
        .f64("scale", params.scale)
        .str("filter", point)
        .finish();
    let mut sock = UnixStream::connect(daemon.socket()).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut ask = |request: &str| {
        writeln!(sock, "{request}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let eval_reply = ask(&eval_request);
    let sweep_reply = ask(&sweep_request);
    drop(sock);
    daemon.trigger_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
    DaemonLines {
        eval_request,
        eval_reply,
        sweep_reply,
    }
}

#[test]
fn every_truncation_of_an_eval_reply_is_an_error() {
    let reply = daemon_lines("cut").eval_reply;
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert!(doc.get("report").is_some(), "{reply}");
    for cut in 0..reply.len() {
        if let Some(prefix) = reply.get(..cut) {
            assert!(Json::parse(prefix).is_err(), "prefix of {cut} bytes parsed");
        }
    }
}

/// A document as the reader oracle's type: fields inserted in order, so
/// a repeated key's last value wins.
fn to_oracle(doc: Json) -> reader_oracle::Json {
    use reader_oracle::Json as O;
    match doc {
        Json::Object(fields) => {
            O::Object(fields.into_iter().map(|(k, v)| (k, to_oracle(v))).collect())
        }
        Json::Array(items) => O::Array(items.into_iter().map(to_oracle).collect()),
        Json::String(s) => O::String(s),
        Json::Int(n) => O::Int(n),
        Json::Number(x) => O::Number(x),
        Json::Bool(b) => O::Bool(b),
        Json::Null => O::Null,
    }
}

/// Both readers accept `text` as equal maps, or both refuse it with the
/// same message.
fn readers_agree(text: &str) -> Result<(), String> {
    let new = Json::parse(text);
    let old = reader_oracle::Json::parse(text);
    if new.clone().map(to_oracle) != old {
        return Err(format!("{text:?}: reader {new:?}, oracle {old:?}"));
    }
    Ok(())
}

/// Builds a document from a stream of choices: nested objects whose
/// keys repeat, arrays, escaped strings, numbers of every token shape,
/// literals, stray whitespace, and now and then a malformed token.
fn doc_from(choices: &[u64]) -> String {
    fn pick(c: &mut std::slice::Iter<'_, u64>, n: u64) -> u64 {
        c.next().map_or(0, |x| x % n)
    }
    fn value(c: &mut std::slice::Iter<'_, u64>, depth: usize, out: &mut String) {
        const SPACE: [&str; 4] = ["", " ", "\n\t", "\r\n "];
        const KEYS: [&str; 5] = ["a", "op", "a", "report", "\\u0041"];
        const STRINGS: [&str; 8] = [
            "plain",
            "",
            "q\\\"uote",
            "\\n\\t\\r\\/\\\\",
            "\\u00e9\\u0041",
            "é∑😀",
            "\\ud83d",
            "\\x",
        ];
        const NUMBERS: [&str; 12] = [
            "0",
            "7",
            "18446744073709551615",
            "18446744073709551616",
            "-3",
            "2.5",
            "1e3",
            "-0.0",
            "1e400",
            "01",
            "1.2.3",
            "-",
        ];
        const LITERALS: [&str; 5] = ["true", "false", "null", "tru", "nul"];
        out.push_str(SPACE[pick(c, 4) as usize]);
        let kinds = if depth < 4 { 6 } else { 4 };
        match pick(c, kinds) {
            0 => out.push_str(LITERALS[pick(c, 5) as usize]),
            1 => out.push_str(NUMBERS[pick(c, 12) as usize]),
            2 => {
                out.push('"');
                out.push_str(STRINGS[pick(c, 8) as usize]);
                out.push('"');
            }
            3 => out.push_str(&pick(c, u64::MAX).to_string()),
            4 => {
                out.push('[');
                for i in 0..pick(c, 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    value(c, depth + 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..pick(c, 5) {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(SPACE[pick(c, 4) as usize]);
                    out.push('"');
                    out.push_str(KEYS[pick(c, 5) as usize]);
                    out.push_str("\":");
                    value(c, depth + 1, out);
                }
                out.push('}');
            }
        }
        out.push_str(SPACE[pick(c, 4) as usize]);
    }
    let mut out = String::new();
    value(&mut choices.iter(), 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random documents, repeated keys included, read the same through
    /// both readers, as do prefixes of them.
    #[test]
    fn the_reader_agrees_with_the_oracle_on_random_documents(
        choices in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        let doc = doc_from(&choices);
        for cut in (0..=16).map(|i| doc.len() * i / 16).filter(|&cut| doc.is_char_boundary(cut)) {
            let verdict = readers_agree(&doc[..cut]);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

/// SplitMix64: the mutation stream of the protocol-line check.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The protocol's line kinds, each as its writer renders it.
fn protocol_lines() -> Vec<(&'static str, String)> {
    let daemon = daemon_lines("agree");
    let record = EvalRecord {
        seq: 3,
        id: "credits-bfs/BFS/c32@r1".into(),
        rung: 1,
        scale: 0.08,
        seed: u64::MAX - 1,
        makespan: 123_456,
        tasks: 789,
        instructions: 1 << 40,
        l2_misses: 0,
        mem_accesses: 42,
        timed_out: true,
        wall_us: 17,
    };
    let row = |id: &str, baseline: bool| FrontierRow {
        id: id.into(),
        workload: "BFS".into(),
        threads: 4,
        baseline,
        credits: (!baseline).then_some(32),
        l2_kb: (!baseline).then_some(256),
        local_queue: None,
        refill: (!baseline).then_some(8),
        rung: 1,
        scale: 0.08,
        makespan: 5000,
        tasks: 700,
        speedup: if baseline { 1.0 } else { 1.25 },
        area_mm2: if baseline { 0.0 } else { 0.011 },
        pareto: true,
    };
    let frontier = FrontierDoc {
        space: "credits-bfs".into(),
        strategy: "halving(eta=2)".into(),
        seed: 42,
        rungs: vec![
            Rung::Scale(0.01),
            Rung::Input("graphs/road \"a\".mcsr".into()),
        ],
        configs: 9,
        evaluated: 2,
        evals: 14,
        sim_tasks: 12_345,
        rows: vec![
            row("credits-bfs/BFS/base", true),
            row("credits-bfs/BFS/c32", false),
        ],
    };
    let report = EvalReport {
        makespan: 10,
        bins: [1, 2, 3, 4, 0, 0, u64::MAX],
        ..EvalReport::default()
    };
    let mut lines = vec![
        ("eval request", daemon.eval_request),
        ("eval reply", daemon.eval_reply),
        ("sweep reply", daemon.sweep_reply),
        ("journal line", record.to_json()),
        ("report", report.fields(JsonObject::new()).finish()),
    ];
    // The frontier document is JSON lines: its header, then its rows.
    lines.extend(
        frontier
            .to_jsonl()
            .lines()
            .map(|l| ("frontier document", l.to_string())),
    );
    lines
}

#[test]
fn the_reader_agrees_with_the_oracle_on_cut_and_mutated_protocol_lines() {
    /// Bytes a mutation writes: the grammar's punctuation, digits,
    /// letters of the literals and escapes, whitespace and a control.
    const BYTES: &[u8] = b"{}[]:,\"\\0123456789-+.eEtfnrulxa \n\t\x01";
    let mut rng = Rng(42);
    for (kind, line) in protocol_lines() {
        assert!(Json::parse(&line).is_ok(), "{kind}: {line}");
        for cut in (0..=line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            readers_agree(&line[..cut]).unwrap_or_else(|e| panic!("{kind} cut at {cut}: {e}"));
        }
        for _ in 0..500 {
            let mut bytes = line.clone().into_bytes();
            let at = rng.below(bytes.len());
            bytes[at] = BYTES[rng.below(BYTES.len())];
            // Only mutations that leave valid UTF-8 reach a `&str` reader.
            if let Ok(text) = String::from_utf8(bytes) {
                readers_agree(&text).unwrap_or_else(|e| panic!("{kind} byte {at}: {e}"));
            }
        }
    }
}
