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

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

use minnow::algos::WorkloadKind;
use minnow::bench::eval::run_to_json;
use minnow::bench::json::{array, escape, number, JsonObject};
use minnow::bench::json_read::Json;
use minnow::bench::runner::BenchRun;
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

fn write_new(fields: &[(String, Value)]) -> String {
    fields
        .iter()
        .fold(JsonObject::new(), |obj, (k, v)| match v {
            Value::Str(s) => obj.str(k, s),
            Value::U64(n) => obj.u64(k, *n),
            Value::F64(x) => obj.f64(k, *x),
            Value::Bool(b) => obj.bool(k, *b),
            Value::OptU64(o) => obj.opt_u64(k, *o),
            Value::Nested(inner) => obj.raw(k, &write_new(inner)),
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

/// What the reader must return for a written object: later duplicate
/// keys win, integers stay exact, floats read back as the six-decimal
/// text denotes, and non-finite floats as `null`.
fn expected(fields: &[(String, Value)]) -> Json {
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

    /// The writer emits the oracle's bytes for every field kind.
    #[test]
    fn writer_matches_the_oracle(fields in prop::collection::vec((any_text(), any_value()), 0..10)) {
        prop_assert_eq!(write_new(&fields), write_oracle(&fields));
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
        prop_assert_eq!(Json::parse(&text), Ok(expected(&fields)));
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
    assert_eq!(Json::parse(&write_new(&fields)), Ok(expected(&fields)));
}

/// A real `eval` reply line, from a daemon answering one small run.
fn eval_reply() -> String {
    let dir = std::env::temp_dir().join(format!("minnow-json-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 1;
    cfg.out_dir = dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let mut run = BenchRun::minnow(WorkloadKind::Bfs, 2);
    run.scale = 0.05;
    let mut sock = UnixStream::connect(daemon.socket()).unwrap();
    writeln!(
        sock,
        "{{\"op\":\"eval\",\"id\":\"p\",\"run\":{}}}",
        run_to_json(&run)
    )
    .unwrap();
    let mut reply = String::new();
    BufReader::new(&sock).read_line(&mut reply).unwrap();
    drop(sock);
    daemon.trigger_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
    reply.trim_end().to_string()
}

#[test]
fn every_truncation_of_an_eval_reply_is_an_error() {
    let reply = eval_reply();
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert!(doc.get("report").is_some(), "{reply}");
    for cut in 0..reply.len() {
        if let Some(prefix) = reply.get(..cut) {
            assert!(Json::parse(prefix).is_err(), "prefix of {cut} bytes parsed");
        }
    }
}
