//! `minnow-benchmark`: runs one workload, all four (each in its own child
//! process), or compares two sets of result lines. See
//! `benchmark/README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use minnow_bench::json_read::Json;
use minnow_benchmark::golden::Golden;
use minnow_benchmark::spec::Spec;
use minnow_benchmark::{compare, host, output, Options, Sizes, Workload};

const USAGE: &str = "\
usage: minnow-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       minnow-benchmark --compare A.jsonl B.jsonl

  --workload NAME  fig16 | fig15 | ingest | serve; without it all four run,
                   each in its own child process
  --seed N         seed of every generated input (default 42)
  --seconds S      measurement budget per workload (default: run_seconds
                   from BENCHMARK.json, 1 with --quick); each workload
                   completes at least one full pass
  --trace [0|1]    1 (or bare --trace): the traced pass, per-layer metrics
  --quick          tiny inputs: all four workloads in seconds
  --compare A B    compare the record lines of two files of runs

Exit status: 0 when every output checked out, 1 when any was wrong, 2 when
a workload could not run.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds `{v}`"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where a run keeps its files and socket: under the cargo target
/// directory, so everything stays inside the checkout and out of git.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join(format!("minnow-benchmark-work-{}", std::process::id()))
}

fn run_one(workload: Workload, args: &Args, spec: &Spec) -> ExitCode {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let default_seconds = if args.quick {
        1.0
    } else {
        spec.run_seconds as f64
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds.unwrap_or(default_seconds)),
        trace: args.trace,
        sizes,
        work_dir: work_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("error: {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    let host = host::fingerprint();
    let result = minnow_benchmark::run(&opts, &Golden::embedded());
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let selected = result.and_then(|out| output::select(spec, opts.trace, &out).map(|m| (out, m)));
    let (out, metrics) = match selected {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for f in &out.tally.failures {
        eprintln!("FAILED {}: {f}", workload.name());
    }
    let failed = out.tally.failed();
    print!("{}", output::table(workload.name(), &metrics));
    println!("{}", output::record_line(&opts, &host, &out, &metrics));
    println!(
        "{}",
        output::result_line(failed == 0, out.tally.attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process (isolating peak RSS),
/// forwards their output, and ends with a summary line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut per_workload = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let child = match cmd.stderr(Stdio::inherit()).output() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: running {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .and_then(|l| Json::parse(l).ok().map(|doc| (l, doc)));
        for line in lines {
            println!("{line}");
        }
        match last {
            Some((line, doc)) if child.status.success() || child.status.code() == Some(1) => {
                attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
                correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
                let metrics = line
                    .split_once("\"metrics\":")
                    .and_then(|(_, rest)| rest.strip_suffix('}'))
                    .unwrap_or("{}");
                per_workload.push((workload.name().to_string(), metrics.to_string()));
            }
            _ => {
                eprintln!("error: {} exited with {}", workload.name(), child.status);
                correct = false;
            }
        }
    }
    println!(
        "{}",
        output::summary_line(correct, attempted, failed, &per_workload)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Inputs must come from the seed and stay inside the checkout: never
    // from (or into) an image cache the environment points elsewhere.
    std::env::remove_var(minnow_algos::suite::IMAGE_CACHE_ENV);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::embedded();
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b, &spec) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload {
        Some(w) => run_one(w, &args, &spec),
        None => run_all(&args),
    }
}
