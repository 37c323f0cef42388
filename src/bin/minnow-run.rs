//! `minnow-run` — run one simulation point and check its result.
//!
//! Runs any paper workload under any scheduler configuration, on its
//! generated input analogue or on a graph file, through the same
//! [`BenchRun`] evaluation as `minnow-sweep` and `minnow-serve`, then
//! checks the result against the workload's serial reference:
//!
//! ```sh
//! minnow-run sssp --threads 16 --sched wdp
//! minnow-run pr --scale 0.5 --sched software --policy fifo
//! minnow-run bfs --input my-graph.gr --sched minnow
//! minnow-run cc --sched wdp --credits 64 --json
//! ```
//!
//! `--json` prints the point as the per-point JSONL record a sweep writes
//! (sweep `run`, id `run/<workload>/<sched>`). The exit status is 1 when
//! the result is wrong, as well as for bad flags or an unreadable input.

use std::process::ExitCode;

use minnow::algos::WorkloadKind;
use minnow::bench::cli::{ArgStream, InputFlags, PointFlags};
use minnow::bench::eval::{point_record_json, EvalReport};
use minnow::bench::runner::BenchRun;

fn usage() -> String {
    format!(
        "usage: minnow-run <sssp|bfs|g500|cc|pr|tc|bc> [options]\n\n\
         options:\n{}{}  --json           print the sweep's per-point JSON record\n\n\
         defaults: --threads 8 --scale 0.5 --seed 42 --sched wdp\n",
        PointFlags::USAGE,
        InputFlags::USAGE,
    )
}

/// The configured point and whether to print it as JSON.
fn parse_args() -> Result<(BenchRun, bool), String> {
    let mut argv = ArgStream::from_env();
    let name = argv.next().ok_or("missing workload")?;
    let kind = WorkloadKind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (mut point, mut input, mut json) = (PointFlags::default(), InputFlags::default(), false);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => json = true,
            _ if point.accept(&flag, &mut argv)? || input.accept(&flag, &mut argv)? => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mut run = BenchRun::minnow_wdp(kind, 8);
    run.scale = 0.5;
    run.seed = 42;
    point.apply(&mut run)?;
    run.input = input.finish()?;
    Ok((run, json))
}

fn main() -> ExitCode {
    let (run, json) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let graph = match run.try_input() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (report, check) = run.execute_checked_on(graph.clone());
    let verdict = match check {
        Ok(()) => "verified".to_string(),
        Err(e) if report.timed_out => format!("not verified (timed out): {e}"),
        Err(e) => format!("WRONG: {e}"),
    };

    let label = run.sched.label();
    if json {
        let id = format!("run/{}/{label}", run.kind);
        println!("{}", point_record_json("run", &id, &run, &EvalReport::from_report(&report)));
        eprintln!("result: {verdict}");
    } else {
        println!(
            "{} on {} nodes / {} edges, {} threads, scheduler `{label}`",
            run.kind,
            graph.nodes(),
            graph.edges(),
            run.threads
        );
        println!("  cycles:       {}", report.makespan);
        println!("  tasks:        {}", report.tasks);
        println!("  instructions: {}", report.instructions);
        println!("  L2 MPKI:      {:.2}", report.mpki());
        if report.prefetch_fills > 0 {
            println!(
                "  prefetching:  {} fills, {:.1}% used before eviction",
                report.prefetch_fills,
                report.prefetch_efficiency() * 100.0
            );
        }
        println!("  result:       {verdict}");
    }
    if verdict.starts_with("WRONG") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
