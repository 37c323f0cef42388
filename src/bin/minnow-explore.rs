//! `minnow-explore` — checkpointed design-space exploration.
//!
//! Searches a declared parameter space (prefetch credits, L2 geometry,
//! engine queue sizing, thread counts, workloads) for configurations
//! that buy the most simulated speedup per mm² of engine silicon
//! (§5.4 area model). Every simulated evaluation is journaled before
//! the search advances, so a killed run resumes exactly where it
//! stopped and produces a byte-identical frontier.
//!
//! ```sh
//! minnow-explore --list
//! minnow-explore smoke --strategy grid
//! minnow-explore golden-fig16 --strategy halving --eta 2
//! minnow-explore --space-file my.space --strategy random --samples 16
//! minnow-explore credits-bfs --max-evals 10     # budgeted slice; exit 3 = paused
//! minnow-explore credits-bfs                    # ...and this resumes it
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use minnow::bench::cli::ArgStream;
use minnow::explore::{
    explore, write_frontier_artifacts, ExploreConfig, ExploreOutcome, Space, Strategy,
};

/// Exit code for a budget pause: the search is consistent on disk and a
/// re-invocation continues it (distinct from failure's 1).
const EXIT_PAUSED: u8 = 3;

#[derive(Debug)]
struct Args {
    space: Option<String>,
    space_file: Option<String>,
    list: bool,
    dry_run: bool,
    fresh: bool,
    verbose: bool,
    strategy: String,
    samples: usize,
    eta: usize,
    seed: u64,
    threads: Option<usize>,
    out: String,
    max_evals: Option<usize>,
}

const USAGE: &str = "\
usage: minnow-explore <space> [options]
       minnow-explore --space-file FILE [options]
       minnow-explore --list

spaces: smoke | golden-fig16 | credits-bfs | --space-file FILE

options:
  --strategy KIND  grid | random | halving  (default halving)
  --samples N      candidates for --strategy random (default 8)
  --eta N          halving reduction factor (default 2): the top
                   ceil(n/eta) of each area class survive a rung
  --seed N         search seed: graphs and random sampling (default 42)
  --threads N      sweep-pool worker threads (default:
                   MINNOW_SWEEP_THREADS or available parallelism)
  --out DIR        artifact + journal directory
                   (default target/minnow-explore)
  --max-evals N    run at most N fresh simulations, then checkpoint and
                   exit with code 3; re-invoking resumes (the final
                   frontier is byte-identical to an uninterrupted run)
  --fresh          delete any existing journal for this search first
  --dry-run        print the space's configurations without simulating
  --verbose        narrate waves and per-point results to stderr
  --list           list built-in spaces and their sizes, then exit

exit codes: 0 complete, 1 error, 3 paused (budget exhausted)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        space: None,
        space_file: None,
        list: false,
        dry_run: false,
        fresh: false,
        verbose: false,
        strategy: "halving".into(),
        samples: 8,
        eta: 2,
        seed: 42,
        threads: None,
        out: "target/minnow-explore".into(),
        max_evals: None,
    };
    let mut argv = ArgStream::from_env();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--list" => args.list = true,
            "--dry-run" => args.dry_run = true,
            "--fresh" => args.fresh = true,
            "--verbose" => args.verbose = true,
            "--space-file" => args.space_file = Some(argv.value("--space-file")?),
            "--strategy" => args.strategy = argv.value("--strategy")?,
            "--samples" => args.samples = argv.parse_at_least("--samples", 1)? as usize,
            "--eta" => args.eta = argv.parse_at_least("--eta", 2)? as usize,
            "--seed" => args.seed = argv.parse("--seed")?,
            "--threads" => args.threads = Some(argv.parse_at_least("--threads", 1)? as usize),
            "--out" => args.out = argv.value("--out")?,
            "--max-evals" => args.max_evals = Some(argv.parse::<u64>("--max-evals")? as usize),
            other if !other.starts_with('-') && args.space.is_none() => {
                args.space = Some(other.to_string())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.list && args.space.is_none() && args.space_file.is_none() {
        return Err("missing space name (or --space-file)".into());
    }
    if args.space.is_some() && args.space_file.is_some() {
        return Err("give either a space name or --space-file, not both".into());
    }
    Ok(args)
}

fn load_space(args: &Args) -> Result<Space, String> {
    if let Some(path) = &args.space_file {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return Space::parse(&text).map_err(|e| format!("{path}: {e}"));
    }
    let name = args.space.as_deref().expect("checked in parse_args");
    Space::named(name)
        .ok_or_else(|| format!("unknown space `{name}` (try --list or --space-file)"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        println!("{:<14} {:>8} {:>7}  rungs", "space", "configs", "rungs");
        for name in Space::NAMES {
            let space = Space::named(name).expect("every listed name resolves");
            let rungs: Vec<String> = space.rungs.iter().map(|r| format!("{r}")).collect();
            println!(
                "{:<14} {:>8} {:>7}  {}",
                name,
                space.configs().len(),
                space.rungs.len(),
                rungs.join(" -> ")
            );
        }
        return ExitCode::SUCCESS;
    }

    let space = match load_space(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let strategy = match Strategy::from_flags(&args.strategy, args.samples, args.eta) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.dry_run {
        let configs = space.configs();
        let id_width = configs.iter().map(|c| c.id.len()).max().unwrap_or(2).max(2);
        println!("{:<id_width$} {:>10}", "id", "area mm2");
        for c in &configs {
            println!("{:<id_width$} {:>10.4}", c.id, c.area_mm2());
        }
        eprintln!(
            "dry run: space {} has {} configurations over {} rungs, nothing simulated",
            space.name,
            configs.len(),
            space.rungs.len()
        );
        return ExitCode::SUCCESS;
    }

    let out = PathBuf::from(&args.out);
    let journal_path = out.join(format!(
        "{}.{}.s{}.journal.jsonl",
        space.name,
        strategy.label(),
        args.seed
    ));
    if args.fresh {
        match std::fs::remove_file(&journal_path) {
            Ok(()) => eprintln!("removed journal {}", journal_path.display()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("error: removing {}: {e}", journal_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = ExploreConfig {
        space,
        strategy,
        seed: args.seed,
        pool_threads: args.threads.unwrap_or_else(minnow::bench::sweep_threads),
        max_fresh_evals: args.max_evals,
        journal_path,
        verbose: args.verbose,
    };
    eprintln!(
        "explore {}: strategy {}, seed {}, {} configurations, journal {}",
        cfg.space.name,
        cfg.strategy.label(),
        cfg.seed,
        cfg.space.configs().len(),
        cfg.journal_path.display()
    );

    match explore(&cfg) {
        Ok(ExploreOutcome::Complete {
            frontier,
            fresh,
            resumed,
        }) => {
            match write_frontier_artifacts(&out, &frontier) {
                Ok((jsonl, table)) => {
                    eprintln!("wrote {} and {}", jsonl.display(), table.display());
                }
                Err(e) => {
                    eprintln!("error: writing frontier under {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
            print!("{}", frontier.table());
            eprintln!(
                "done: {} fresh simulations, {} from the journal, {} sim tasks, \
                 {} Pareto-optimal of {} evaluated",
                fresh,
                resumed,
                frontier.sim_tasks,
                frontier.pareto_ids().len(),
                frontier.evaluated
            );
            ExitCode::SUCCESS
        }
        Ok(ExploreOutcome::Paused {
            fresh,
            resumed,
            wave,
            remaining_in_wave,
        }) => {
            eprintln!(
                "paused: budget of {} fresh simulations exhausted in wave {wave} \
                 ({remaining_in_wave} evaluations still pending there; {resumed} were \
                 already journaled). Re-run the same command to resume.",
                fresh
            );
            ExitCode::from(EXIT_PAUSED)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
