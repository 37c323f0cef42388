//! The benchmark's own checks: the timing delegates are transparent, a
//! wrong golden digest is caught, and the quick mode runs every workload
//! end to end.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use minnow_bench::eval::EvalReport;
use minnow_bench::json_read::Json;
use minnow_bench::sweep::{Sweep, SweepParams};
use minnow_benchmark::golden::Golden;
use minnow_benchmark::spec::Spec;
use minnow_benchmark::trace::{execute_traced, Family};
use minnow_benchmark::{Options, Sizes, Workload};

#[test]
fn traced_points_reproduce_untraced_reports() {
    let params = SweepParams {
        scale: 0.03,
        seed: 7,
        headline_threads: 4,
        max_threads: 4,
    };
    let mut families = Vec::new();
    for point in Sweep::smoke(&params).points {
        let untraced = EvalReport::from_report(&point.run.execute());
        let traced = execute_traced(&point.run);
        assert_eq!(
            EvalReport::from_report(&traced.report),
            untraced,
            "{}: the delegates changed the simulation",
            point.id
        );
        assert!(traced.execute > Duration::ZERO && traced.charge > Duration::ZERO);
        assert_eq!(traced.tasks.len() as u64, untraced.tasks);
        families.push(traced.family);
    }
    for family in [Family::Software, Family::Minnow, Family::Wdp] {
        assert!(families.contains(&family), "smoke covers {family:?}");
    }
}

fn work_dir(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_wrong_golden_digest_is_a_failed_operation() {
    let opts = Options {
        workload: Workload::Fig16,
        seed: 42,
        seconds: Duration::ZERO,
        trace: false,
        sizes: Sizes::quick(),
        work_dir: work_dir("golden"),
    };
    let good = minnow_benchmark::run(&opts, &Golden::embedded()).unwrap();
    assert_eq!(good.tally.failures, Vec::<String>::new());
    let digest = good.digest.expect("a sweep pins its JSONL");

    let mut corrupted = Golden::embedded();
    corrupted.set(&opts.golden_case(), opts.seed, digest ^ 1);
    let bad = minnow_benchmark::run(&opts, &corrupted).unwrap();
    assert_eq!(bad.tally.failed(), 1, "{:?}", bad.tally.failures);
    assert!(bad.tally.failed() as f64 / bad.tally.attempted as f64 > 0.0);
    std::fs::remove_dir_all(&opts.work_dir).unwrap();
}

/// Runs the binary over all four workloads; returns its stdout.
fn run_quick(name: &str, extra: &[&str]) -> String {
    let work = work_dir(name);
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_minnow-benchmark"))
        .args(["--quick", "--seed", "42"])
        .args(extra)
        .env("CARGO_TARGET_DIR", &work)
        .output()
        .unwrap();
    let elapsed = t0.elapsed();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "quick run took {elapsed:?}"
    );
    std::fs::remove_dir_all(&work).unwrap();
    stdout
}

/// Every workload's metrics object in the summary line, checked against
/// the metrics `BENCHMARK.json` declares for the mode.
fn check_summary(stdout: &str, trace: bool) {
    let summary = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    let spec = Spec::embedded();
    for workload in Workload::ALL {
        let metrics = summary
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .unwrap_or_else(|| panic!("no {} in the summary", workload.name()));
        for m in spec.metrics(trace) {
            let v = metrics
                .get(&m.name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{} lacks {}", workload.name(), m.name));
            if !trace {
                assert!(v > 0.0, "{} {} = {v}", workload.name(), m.name);
            }
        }
    }
}

#[test]
fn quick_mode_runs_all_four_workloads() {
    check_summary(&run_quick("quick", &[]), false);
}

#[test]
fn quick_traced_mode_reports_every_layer() {
    check_summary(&run_quick("quick-trace", &["--trace"]), true);
}
