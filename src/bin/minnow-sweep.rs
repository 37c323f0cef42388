//! `minnow-sweep` — parallel sweep driver for the evaluation figures.
//!
//! Enumerates a named sweep (a figure's full set of simulation points),
//! fans the points across a thread pool, and writes
//! machine-readable artifacts: one JSON object per point
//! (`<sweep>.jsonl`) plus a summary (`<sweep>.summary.json`).
//!
//! ```sh
//! minnow-sweep --list
//! minnow-sweep fig16 --threads 8
//! minnow-sweep fig15 --filter /SSSP/ --out results/
//! minnow-sweep smoke --scale 0.05 --stdout
//! minnow-sweep credits --dry-run      # enumerate, don't simulate
//! ```
//!
//! Output is deterministic: for a fixed sweep, filter, scale, and seed,
//! the JSON-lines artifact is byte-identical regardless of `--threads`
//! (the across-point pool).

use std::process::ExitCode;

use minnow_bench::cli::{write_with_parents, ArgStream, InputFlags};
use minnow_bench::runner::InputSpec;
use minnow_bench::sweep::{run_sweep, IngestStats, Sweep, SweepConfig, SweepParams};

#[derive(Debug)]
struct Args {
    sweep: Option<String>,
    list: bool,
    dry_run: bool,
    threads: Option<usize>,
    filter: Option<String>,
    out: String,
    scale: Option<f64>,
    seed: Option<u64>,
    stdout: bool,
    input: Option<InputSpec>,
    trace_out: Option<String>,
    bench_out: Option<String>,
}

fn usage() -> String {
    format!(
        "\
usage: minnow-sweep <sweep> [options]
       minnow-sweep --list

sweeps: fig15 | fig16 | credits | channels | smoke

options:
  --threads N     sweep-pool worker threads (default: MINNOW_SWEEP_THREADS
                  or the machine's available parallelism)
  --filter STR    run only points whose id contains STR
  --out DIR       artifact directory (default target/minnow-sweep)
  --scale X       input scale factor (default: MINNOW_BENCH_SCALE or 0.3)
  --seed N        sweep seed; point seeds are derived from it
                  (default: MINNOW_BENCH_SEED or 42)
  --stdout        print the JSON-lines records instead of writing files
{}                  every point runs on the --input graph; the same graph
                  via text, image, or mmap yields byte-identical artifacts
  --dry-run       print the selected points (id, workload, scheduler,
                  threads, scale, seed) without simulating anything
  --trace-out F   capture structured traces and write a Chrome
                  trace_event JSON (Perfetto-loadable) to F; simulation
                  results and the JSONL artifact are unchanged
  --bench-out F   write a host wall-clock benchmark document to F
                  (host fingerprint, scale, seed, per-point wall time,
                  tasks/sec, accesses/sec);
                  simulation results and the JSONL artifact are unchanged
  --list          list sweep names and point counts, then exit
",
        InputFlags::USAGE
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sweep: None,
        list: false,
        dry_run: false,
        threads: None,
        filter: None,
        out: "target/minnow-sweep".into(),
        scale: None,
        seed: None,
        stdout: false,
        input: None,
        trace_out: None,
        bench_out: None,
    };
    let mut argv = ArgStream::from_env();
    let mut input = InputFlags::default();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--list" => args.list = true,
            "--dry-run" => args.dry_run = true,
            "--threads" => args.threads = Some(argv.parse_at_least("--threads", 1)? as usize),
            "--filter" => args.filter = Some(argv.value("--filter")?),
            "--out" => args.out = argv.value("--out")?,
            "--scale" => args.scale = Some(argv.parse("--scale")?),
            "--seed" => args.seed = Some(argv.parse("--seed")?),
            "--stdout" => args.stdout = true,
            "--trace-out" => args.trace_out = Some(argv.value("--trace-out")?),
            "--bench-out" => args.bench_out = Some(argv.value("--bench-out")?),
            _ if input.accept(&flag, &mut argv)? => {}
            other if !other.starts_with('-') && args.sweep.is_none() => {
                args.sweep = Some(other.to_string())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.list && args.sweep.is_none() {
        return Err("missing sweep name".into());
    }
    args.input = input.finish()?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let mut params = SweepParams::from_env();
    if let Some(scale) = args.scale {
        params.scale = scale;
    }
    if let Some(seed) = args.seed {
        params.seed = seed;
    }

    if args.list {
        println!("{:<10} {:>7}  axes", "sweep", "points");
        for name in Sweep::NAMES {
            let sweep = Sweep::named(name, &params).expect("every listed name enumerates");
            println!("{:<10} {:>7}  {}", name, sweep.points.len(), sweep_axes(name));
        }
        return ExitCode::SUCCESS;
    }

    let name = args.sweep.as_deref().expect("checked in parse_args");
    let Some(sweep) = Sweep::named(name, &params) else {
        eprintln!("error: unknown sweep `{name}`\n\n{}", usage());
        return ExitCode::FAILURE;
    };

    let mut cfg = SweepConfig::from_env();
    if let Some(threads) = args.threads {
        cfg.threads = threads;
    }
    cfg.filter = args.filter.clone();
    cfg.trace = args.trace_out.is_some();

    // Pre-load any external input before fanning points out: a bad file
    // fails fast with one clear message, the load is timed once for the
    // bench document, and the process-wide cache is warm for every worker.
    let mut ingest_stats = None;
    if let Some(spec) = args.input {
        let path = spec.path.display().to_string();
        let bytes = std::fs::metadata(&spec.path).map(|m| m.len()).unwrap_or(0);
        let t0 = std::time::Instant::now();
        let g = match minnow_algos::suite::file_input(&spec.path, spec.format, spec.mode, false) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: input {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wall = t0.elapsed();
        eprintln!(
            "input {path}: {} nodes, {} edges ({bytes} bytes, loaded in {:.1} ms)",
            g.nodes(),
            g.edges(),
            wall.as_secs_f64() * 1e3
        );
        ingest_stats = Some(IngestStats {
            path,
            mode: spec.mode.label().into(),
            nodes: g.nodes() as u64,
            edges: g.edges() as u64,
            bytes,
            wall_us: wall.as_micros() as u64,
        });
        cfg.input = Some(spec);
    }

    let selected = sweep.selected(&cfg);
    if selected.is_empty() {
        eprintln!(
            "error: filter `{}` matches none of {}'s {} points",
            args.filter.as_deref().unwrap_or(""),
            sweep.name,
            sweep.points.len()
        );
        return ExitCode::FAILURE;
    }

    if args.dry_run {
        let id_width = selected
            .iter()
            .map(|p| p.id.len())
            .max()
            .unwrap_or(2)
            .max("id".len());
        println!(
            "{:<id_width$} {:<8} {:<10} {:>7} {:>7} {:>20}",
            "id", "workload", "sched", "threads", "scale", "seed"
        );
        for point in &selected {
            println!(
                "{:<id_width$} {:<8} {:<10} {:>7} {:>7} {:>20}",
                point.id,
                point.run.kind.name(),
                point.run.sched.label(),
                point.run.threads,
                point.run.scale,
                point.run.seed
            );
        }
        eprintln!(
            "dry run: {}/{} points selected, nothing simulated",
            selected.len(),
            sweep.points.len()
        );
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "sweep {}: {}/{} points, pool of {} thread(s), scale {}, seed {}",
        sweep.name,
        selected.len(),
        sweep.points.len(),
        cfg.threads.max(1).min(selected.len()),
        params.scale,
        params.seed
    );

    let mut result = run_sweep(&sweep, &cfg);
    result.ingest = ingest_stats;
    let timed_out = result.points.iter().filter(|p| p.report.timed_out).count();

    if let Some(path) = &args.trace_out {
        let doc = result
            .chrome_trace_json()
            .expect("tracing was enabled, every point captured a trace");
        if let Err(e) = write_with_parents(path, &doc) {
            eprintln!("error: writing trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote trace to {path} (load in https://ui.perfetto.dev)");
    }

    if let Some(path) = &args.bench_out {
        let doc = result.bench_json(&params) + "\n";
        if let Err(e) = write_with_parents(path, &doc) {
            eprintln!("error: writing benchmark document to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote wall-clock benchmark document to {path}");
    }

    if args.stdout {
        print!("{}", result.jsonl());
        eprintln!("{}", result.summary_json());
    } else {
        match result.write_artifacts(std::path::Path::new(&args.out)) {
            Ok((jsonl, summary)) => {
                eprintln!("wrote {} and {}", jsonl.display(), summary.display());
            }
            Err(e) => {
                eprintln!("error: writing artifacts under {}: {e}", args.out);
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "done: {} points in {:.1}s{}",
        result.points.len(),
        result.wall.as_secs_f64(),
        if timed_out > 0 {
            format!(" ({timed_out} timed out)")
        } else {
            String::new()
        }
    );
    ExitCode::SUCCESS
}

fn sweep_axes(name: &str) -> &'static str {
    match name {
        "fig15" => "scalability: workload x {serial,galois,minnow} x threads",
        "fig16" => "overall speedup: workload x {software,minnow,wdp}",
        "credits" => "figs 18-20: workload x {nopf,c1..c256,imp}",
        "channels" => "fig 21: workload x {nopf,wdp} x DRAM channels",
        "smoke" => "tiny end-to-end check: 2 workloads x 3 schedulers",
        _ => "",
    }
}
