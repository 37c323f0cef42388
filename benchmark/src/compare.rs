//! `--compare A.jsonl B.jsonl`: two sets of runs side by side.
//!
//! Each file holds record lines (any other line is skipped), typically the
//! stdout of repeated runs of one commit. For every workload and metric
//! the table gives each side's median and quartiles and a verdict against
//! the metric's bound: `regressed` when B's median is worse than A's by
//! more than the bound, `unresolved` when either side's spread exceeds the
//! bound (unless every B run beats, or loses to, every A run), `ok`
//! otherwise. Per-layer metrics have no bound and get no verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use minnow_bench::json_read::Json;

use crate::output::RECORD_SCHEMA;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, spread};

/// Samples of one file: `(workload, traced)` → metric → values.
type Samples = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

/// Host fingerprints and calibration readings seen in one file.
#[derive(Default)]
struct Hosts {
    machines: Vec<String>,
    calib: Vec<f64>,
}

fn read(path: &Path) -> Result<(Samples, Hosts), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

fn parse(text: &str) -> Result<(Samples, Hosts), String> {
    let mut samples = Samples::new();
    let mut hosts = Hosts::default();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        if doc.get("schema").and_then(Json::as_str) != Some(RECORD_SCHEMA) {
            continue;
        }
        let workload = doc.str_field("workload")?.to_string();
        let traced = doc.bool_field("trace")?;
        if let Some(Json::Object(metrics)) = doc.get("metrics") {
            let slot = samples.entry((workload, traced)).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    slot.entry(name.clone()).or_default().push(v);
                }
            }
        }
        if let Some(host) = doc.get("host") {
            let machine = format!(
                "{} x{}",
                host.str_field("cpu_model").unwrap_or("?"),
                host.get("available_parallelism")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            );
            if !hosts.machines.contains(&machine) {
                hosts.machines.push(machine);
            }
            for key in ["calib_ms_start", "calib_ms_end"] {
                if let Some(v) = host.get(key).and_then(Json::as_f64) {
                    hosts.calib.push(v);
                }
            }
        }
    }
    Ok((samples, hosts))
}

fn describe(label: &str, path: &Path, hosts: &Hosts) -> String {
    let (lo, hi) = hosts
        .calib
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    format!(
        "{label}: {} on {}; calibration loop {lo:.1}-{hi:.1} ms\n",
        path.display(),
        hosts.machines.join(" / ")
    )
}

/// The verdict for one end-to-end metric.
fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let Some(bound) = m.bound else { return "" };
    let (am, bm) = (median(a), median(b));
    let worse_by = if m.higher_is_better {
        (am - bm) / am
    } else {
        (bm - am) / am
    };
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    if spread(a) > bound || spread(b) > bound {
        if b.iter().all(|&x| a.iter().all(|&y| better(x, y))) {
            "better (every run)"
        } else if b.iter().all(|&x| a.iter().all(|&y| better(y, x))) {
            "worse (every run)"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Renders the comparison table.
///
/// # Errors
///
/// Returns a message when either file cannot be read.
pub fn run(a_path: &Path, b_path: &Path, spec: &Spec) -> Result<String, String> {
    let (a, a_hosts) = read(a_path)?;
    let (b, b_hosts) = read(b_path)?;
    let mut text = describe("A", a_path, &a_hosts) + &describe("B", b_path, &b_hosts);
    let _ = writeln!(
        text,
        "{:<8} {:<38} {:>24} {:>24} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    let cell = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:.4} [{q1:.4}, {q3:.4}] {}", v.len())
    };
    for workload in &spec.workloads {
        for traced in [false, true] {
            let key = (workload.clone(), traced);
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            for m in spec.metrics(traced) {
                let (Some(va), Some(vb)) = (sa.get(&m.name), sb.get(&m.name)) else {
                    continue;
                };
                let change = 100.0 * (median(vb) / median(va) - 1.0);
                let _ = writeln!(
                    text,
                    "{workload:<8} {:<38} {:>24} {:>24} {change:>+7.1}%  {}",
                    format!("{} ({})", m.name, m.unit),
                    cell(va),
                    cell(vb),
                    verdict(m, va, vb)
                );
            }
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "x".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&metric(false), &steady, &steady), "ok");
        assert_eq!(verdict(&metric(false), &steady, &slower), "regressed");
        assert_eq!(verdict(&metric(true), &steady, &slower), "ok");
        assert_eq!(verdict(&metric(false), &noisy, &steady), "unresolved");
        let far = [10.0, 11.0, 12.0];
        assert_eq!(verdict(&metric(false), &noisy, &far), "better (every run)");
    }

    #[test]
    fn reads_only_record_lines() {
        let (samples, hosts) = parse(
            "fig16   setup_s 0.1 s\n\
             {\"schema\":\"minnow-benchmark/v1\",\"workload\":\"fig16\",\"trace\":false,\
             \"host\":{\"cpu_model\":\"cpu\",\"available_parallelism\":2,\"calib_ms_start\":30,\"calib_ms_end\":31},\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\
             {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n",
        )
        .unwrap();
        assert_eq!(samples[&("fig16".to_string(), false)]["setup_s"], vec![0.5]);
        assert_eq!(hosts.machines, vec!["cpu x2".to_string()]);
        assert_eq!(hosts.calib, vec![30.0, 31.0]);
    }
}
