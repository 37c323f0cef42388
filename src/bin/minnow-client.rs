//! `minnow-client` — talk to a running `minnow-serve` daemon.
//!
//! The round-trip example for the serve protocol: build a request,
//! send it over the daemon's Unix socket, and print the deterministic
//! report that comes back (in microseconds when the daemon has seen
//! the point before).
//!
//! ```sh
//! minnow-client ping
//! minnow-client eval --workload SSSP --sched wdp --threads 8 --scale 0.1
//! minnow-client sweep smoke --scale 0.1 --seed 7 --out smoke.jsonl
//! minnow-client explore smoke --strategy halving
//! minnow-client stats
//! minnow-client shutdown
//! ```

use std::process::ExitCode;

use minnow::algos::WorkloadKind;
use minnow::bench::cli::{write_with_parents, ArgStream, PointFlags};
use minnow::bench::eval::run_to_json;
use minnow::bench::json::JsonObject;
use minnow::bench::runner::BenchRun;
use minnow::bench::sweep::SweepParams;
use minnow::serve::client::{request_ok, wait_ready};
use minnow::serve::ServeAddr;

fn usage() -> String {
    format!(
        "\
usage: minnow-client [--socket ADDR] <command> [options]

commands:
  ping                      check the daemon is up
  eval [flags]              evaluate one configuration, print the report
  sweep NAME [options]      run a named sweep through the daemon
  explore SPACE [options]   run a design-space search through the daemon
  stats                     print daemon statistics
  shutdown                  stop the daemon

common:
  --socket ADDR    daemon address: socket path or host:port
                   (default target/minnow-serve/serve.sock)
  --wait SECS      wait up to SECS for the daemon to come up (default 0)

eval flags:
  --workload W     sssp|bfs|g500|cc|pr|tc|bc, any case (default BFS)
  --space NS       store namespace (default adhoc)
{}  defaults: --threads 4 --scale 0.1 --seed 42 --sched minnow

sweep options:
  --scale F --seed N --headline-threads N --max-threads N
                   defaults as in minnow-sweep; all four are sent
  --filter S       only points whose id contains S
  --out FILE       write the per-point JSONL artifact
  --breakdown FILE write the cycle-accounting JSONL artifact
  --require-cached fail unless every point was served from the store

explore options:
  --strategy KIND  grid | random | halving (default halving)
  --samples N --eta N --seed N --max-fresh N
  --out FILE       write the frontier JSONL artifact
",
        PointFlags::USAGE
    )
}

fn fail(e: &str) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut argv = ArgStream::from_env();
    let mut addr = ServeAddr::parse("target/minnow-serve/serve.sock");
    let mut wait_secs = 0u64;
    let mut command: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" if command.is_none() => match argv.value("--socket") {
                Ok(v) => addr = ServeAddr::parse(&v),
                Err(e) => return fail(&e),
            },
            "--wait" if command.is_none() => match argv.parse::<u64>("--wait") {
                Ok(v) => wait_secs = v,
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if command.is_none() => command = Some(arg),
            _ => rest.push(arg),
        }
    }
    let Some(command) = command else {
        eprintln!("error: missing command\n\n{}", usage());
        return ExitCode::FAILURE;
    };
    if wait_secs > 0 {
        if let Err(e) = wait_ready(&addr, std::time::Duration::from_secs(wait_secs)) {
            return fail(&e);
        }
    }
    let mut argv = ArgStream::from_vec(rest);
    let outcome = match command.as_str() {
        "ping" => cmd_simple(&addr, "ping"),
        "stats" => cmd_stats(&addr),
        "shutdown" => cmd_simple(&addr, "shutdown"),
        "eval" => cmd_eval(&addr, &mut argv),
        "sweep" => cmd_sweep(&addr, &mut argv),
        "explore" => cmd_explore(&addr, &mut argv),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}

fn cmd_simple(addr: &ServeAddr, op: &str) -> Result<ExitCode, String> {
    request_ok(addr, &JsonObject::new().str("op", op).finish())?;
    eprintln!("{op}: ok");
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(addr: &ServeAddr) -> Result<ExitCode, String> {
    let doc = request_ok(addr, "{\"op\":\"stats\"}")?;
    let stats = doc.get("serve_stats").ok_or("missing serve_stats")?;
    let store = doc.get("store").ok_or("missing store")?;
    let queue = doc.get("queue").ok_or("missing queue")?;
    println!(
        "requests {}  hits {}  misses {}  coalesced {}  rejected {}",
        stats.u64_field("requests")?,
        stats.u64_field("hits")?,
        stats.u64_field("misses")?,
        stats.u64_field("coalesced")?,
        stats.u64_field("rejected")?,
    );
    println!(
        "sims: {} local, {} via workers ({} requeued); {} evicted",
        stats.u64_field("sim_invocations")?,
        stats.u64_field("worker_results")?,
        stats.u64_field("requeues")?,
        stats.u64_field("evictions")?,
    );
    println!(
        "store: {} entries, {} / {} bytes{}",
        store.u64_field("entries")?,
        store.u64_field("bytes")?,
        store.u64_field("cap_bytes")?,
        if store.bool_field("persistent")? {
            " (persistent)"
        } else {
            " (memory-only)"
        },
    );
    println!(
        "queue: {} pending, {} open (cap {}); {} workers, {} local executors",
        queue.u64_field("pending")?,
        queue.u64_field("open")?,
        queue.u64_field("cap")?,
        doc.u64_field("workers")?,
        doc.u64_field("local_executors")?,
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_eval(addr: &ServeAddr, argv: &mut ArgStream) -> Result<ExitCode, String> {
    let mut kind = WorkloadKind::Bfs;
    let mut space = "adhoc".to_string();
    let mut point = PointFlags::default();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                let name = argv.value("--workload")?;
                kind = WorkloadKind::parse(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
            }
            "--space" => space = argv.value("--space")?,
            _ if point.accept(&flag, argv)? => {}
            other => return Err(format!("unknown eval flag `{other}`")),
        }
    }
    let mut run = BenchRun::minnow(kind, 4);
    run.scale = 0.1;
    run.seed = 42;
    point.apply(&mut run)?;
    let line = JsonObject::new()
        .str("op", "eval")
        .str("space", &space)
        .str("id", &format!("client/{}/{}", kind.name(), run.sched.label()))
        .raw("run", &run_to_json(&run))
        .finish();
    let doc = request_ok(addr, &line)?;
    let report = doc.get("report").ok_or("missing report")?;
    let cached = doc.bool_field("cached")?;
    println!(
        "{} {} t{} scale {} seed {}: makespan {} cycles, {} tasks, \
         {} instructions, {} L2 misses{}",
        kind.name(),
        run.sched.label(),
        run.threads,
        run.scale,
        run.seed,
        report.u64_field("makespan")?,
        report.u64_field("tasks")?,
        report.u64_field("instructions")?,
        report.u64_field("l2_misses")?,
        if report.bool_field("timed_out")? {
            " (timed out)"
        } else {
            ""
        },
    );
    println!(
        "served in {} us ({})",
        doc.u64_field("wall_us")?,
        if cached { "store hit" } else { "fresh simulation" },
    );
    Ok(ExitCode::SUCCESS)
}

fn str_opt(obj: JsonObject, key: &str, v: &Option<String>) -> JsonObject {
    match v {
        Some(s) => obj.str(key, s),
        None => obj,
    }
}

fn cmd_sweep(addr: &ServeAddr, argv: &mut ArgStream) -> Result<ExitCode, String> {
    let mut name: Option<String> = None;
    // Resolved as `minnow-sweep` resolves them, and all sent: the same
    // command line names the same points direct or served.
    let mut params = SweepParams::from_env();
    let mut filter: Option<String> = None;
    let mut out: Option<String> = None;
    let mut breakdown: Option<String> = None;
    let mut require_cached = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scale" => params.scale = argv.parse("--scale")?,
            "--seed" => params.seed = argv.parse("--seed")?,
            "--headline-threads" => {
                params.headline_threads = argv.parse_at_least("--headline-threads", 1)? as usize
            }
            "--max-threads" => {
                params.max_threads = argv.parse_at_least("--max-threads", 1)? as usize
            }
            "--filter" => filter = Some(argv.value("--filter")?),
            "--out" => out = Some(argv.value("--out")?),
            "--breakdown" => breakdown = Some(argv.value("--breakdown")?),
            "--require-cached" => require_cached = true,
            other if !other.starts_with('-') && name.is_none() => name = Some(flag),
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
    }
    let name = name.ok_or("missing sweep name")?;
    let obj = JsonObject::new()
        .str("op", "sweep")
        .str("sweep", &name)
        .raw("scale", &format!("{}", params.scale))
        .u64("seed", params.seed)
        .u64("headline_threads", params.headline_threads as u64)
        .u64("max_threads", params.max_threads as u64);
    let obj = str_opt(obj, "filter", &filter);
    let doc = request_ok(addr, &obj.finish())?;
    let (points, cached, fresh) = (
        doc.u64_field("points")?,
        doc.u64_field("cached")?,
        doc.u64_field("fresh")?,
    );
    eprintln!(
        "sweep {name}: {points} points, {cached} cached, {fresh} fresh, {} us",
        doc.u64_field("wall_us")?,
    );
    if let Some(path) = out {
        write_with_parents(&path, doc.str_field("jsonl")?)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = breakdown {
        write_with_parents(&path, doc.str_field("breakdown")?)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if require_cached && fresh > 0 {
        return Err(format!(
            "--require-cached: {fresh} of {points} points missed the store"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explore(addr: &ServeAddr, argv: &mut ArgStream) -> Result<ExitCode, String> {
    let mut space: Option<String> = None;
    let mut strategy: Option<String> = None;
    let mut samples: Option<u64> = None;
    let mut eta: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut max_fresh: Option<u64> = None;
    let mut out: Option<String> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--strategy" => strategy = Some(argv.value("--strategy")?),
            "--samples" => samples = Some(argv.parse_at_least("--samples", 1)?),
            "--eta" => eta = Some(argv.parse_at_least("--eta", 2)?),
            "--seed" => seed = Some(argv.parse("--seed")?),
            "--max-fresh" => max_fresh = Some(argv.parse("--max-fresh")?),
            "--out" => out = Some(argv.value("--out")?),
            other if !other.starts_with('-') && space.is_none() => space = Some(flag),
            other => return Err(format!("unknown explore flag `{other}`")),
        }
    }
    let space = space.ok_or("missing space name")?;
    let mut obj = JsonObject::new().str("op", "explore").str("space", &space);
    obj = str_opt(obj, "strategy", &strategy);
    if let Some(v) = samples {
        obj = obj.u64("samples", v);
    }
    if let Some(v) = eta {
        obj = obj.u64("eta", v);
    }
    if let Some(v) = seed {
        obj = obj.u64("seed", v);
    }
    if let Some(v) = max_fresh {
        obj = obj.u64("max_fresh", v);
    }
    let doc = request_ok(addr, &obj.finish())?;
    match doc.str_field("status")? {
        "complete" => {
            eprintln!(
                "explore {space}: complete, {} fresh, {} resumed, {} evaluated",
                doc.u64_field("fresh")?,
                doc.u64_field("resumed")?,
                doc.u64_field("evaluated")?,
            );
            print!("{}", doc.str_field("table")?);
            if let Some(path) = out {
                write_with_parents(&path, doc.str_field("frontier_jsonl")?)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "paused" => {
            eprintln!(
                "explore {space}: paused in wave {} ({} fresh this pass); \
                 re-run to resume",
                doc.u64_field("wave")?,
                doc.u64_field("fresh")?,
            );
            Ok(ExitCode::from(3))
        }
        other => Err(format!("unexpected explore status `{other}`")),
    }
}
