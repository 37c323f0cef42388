//! Result lines. A run prints a human-readable table, then a record line
//! (everything measured, the host fingerprint and the check results; what
//! `--compare` reads), then the result line: exactly `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` declares for
//! the run's mode.

use minnow_bench::json::{escape, JsonObject};

use crate::host::Host;
use crate::spec::{MetricSpec, Spec};
use crate::{Options, Outcome};

/// Schema identifier of record lines.
pub const RECORD_SCHEMA: &str = "minnow-benchmark/v1";

/// Failure messages copied into a record line.
const MAX_REPORTED_FAILURES: usize = 10;

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The declared metrics of the run's mode with their values. Per-layer
/// metrics of a layer the workload never enters read 0.
///
/// # Errors
///
/// Names an end-to-end metric the workload did not produce.
pub fn select<'a>(
    spec: &'a Spec,
    trace: bool,
    out: &Outcome,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    spec.metrics(trace)
        .iter()
        .map(|m| match out.values.get(&m.name) {
            Some(&v) => Ok((m, v)),
            None if trace => Ok((m, 0.0)),
            None => Err(format!("the run produced no `{}`", m.name)),
        })
        .collect()
}

/// One aligned line per metric.
pub fn table(workload: &str, metrics: &[(&MetricSpec, f64)]) -> String {
    metrics
        .iter()
        .map(|(m, v)| format!("{workload:<7} {:<38} {v:>16.4} {}\n", m.name, m.unit))
        .collect()
}

fn metric_object(metrics: &[(&MetricSpec, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(&m.name),
                num(*v),
                escape(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line: the last line a run prints.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    JsonObject::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metric_object(metrics))
        .finish()
}

/// The record line: the run's settings, host fingerprint, checks, declared
/// metrics and every other measured value.
pub fn record_line(
    opts: &Options,
    host: &Host,
    out: &Outcome,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let host_doc = JsonObject::new()
        .u64("available_parallelism", host.parallelism as u64)
        .str("cpu_model", &host.cpu_model)
        .str("git_head", &host.git_head)
        .raw("calib_ms_start", &num(out.calib.start_ms))
        .raw("calib_ms_end", &num(out.calib.end_ms))
        .raw("calib_ms_median", &num(out.calib.median_ms))
        .u64("calib_samples", out.calib.samples as u64)
        .finish();
    let values: Vec<String> = out
        .values
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), num(*v)))
        .collect();
    let failures = minnow_bench::json::array(
        out.tally
            .failures
            .iter()
            .take(MAX_REPORTED_FAILURES)
            .map(|f| format!("\"{}\"", escape(f))),
    );
    let attempted = out.tally.attempted;
    let failed = out.tally.failed();
    JsonObject::new()
        .str("schema", RECORD_SCHEMA)
        .str("workload", opts.workload.name())
        .u64("seed", opts.seed)
        .bool("trace", opts.trace)
        .raw("seconds", &num(opts.seconds.as_secs_f64()))
        .str("sizes", opts.sizes.name)
        .raw("host", &host_doc)
        .bool("correct", failed == 0)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("error_rate", &num(failed as f64 / attempted.max(1) as f64))
        .raw(
            "digest",
            &out.digest
                .map_or("null".into(), |d| format!("\"{d:016x}\"")),
        )
        .raw("metrics", &metric_object(metrics))
        .raw("values", &format!("{{{}}}", values.join(",")))
        .raw("failures", &failures)
        .finish()
}

/// The all-workloads summary line: each workload's `metrics` object under
/// its name, with attempts and failures summed.
pub fn summary_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    per_workload: &[(String, String)],
) -> String {
    let fields: Vec<String> = per_workload
        .iter()
        .map(|(w, metrics)| format!("\"{}\":{metrics}", escape(w)))
        .collect();
    JsonObject::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("workloads", &format!("{{{}}}", fields.join(",")))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(num(0.1234567891234), "0.1234567891234");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.25),
        };
        let line = result_line(true, 3, 0, &[(&m, 0.5)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
