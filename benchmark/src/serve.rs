//! The `serve` workload: an in-process `minnow-serve` daemon (memory-only
//! store, one local executor) driven by a closed loop over one Unix
//! socket, the way `minnow-client` and the explore drivers use it: every
//! request waits for its reply.
//!
//! Set-up starts the daemon, answers one warm-up evaluation and generates
//! the graphs of the evaluated points (distinct BFS Minnow+WDP runs). The
//! timed pass runs rounds until the budget ends: every point once (cold: a
//! store miss, so the daemon simulates and inserts), then repeats of them
//! in a seeded shuffle (warm: each a store hit). Each round asks under its
//! own store namespace, so its cold requests miss again. Every cold answer
//! must equal the first round's, every warm answer its cold answer, the
//! daemon must simulate exactly once per cold request, and a sample of
//! answers must equal a direct `BenchRun::execute`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minnow_algos::WorkloadKind;
use minnow_bench::eval::{run_to_json, EvalReport};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::runner::BenchRun;
use minnow_bench::sweep::derive_seed;
use minnow_serve::client::{self, Client};
use minnow_serve::store::StoredEval;
use minnow_serve::{store_key, Daemon, ServeAddr, ServeConfig, ServeStats, Store};

use crate::host::Calibration;
use crate::stats::{geomean, median, percentile, tail};
use crate::{ms, pct, Options, Outcome, SETUP_REPS};

/// Simulated cores of every served evaluation.
const SERVE_THREADS: usize = 4;

/// Cold answers re-run directly to check the daemon.
const DIRECT_CHECKS: usize = 10;

/// Unix socket paths are limited to about 100 bytes; fall back to a path
/// relative to the working directory when the absolute one is longer.
fn socket_path(work_dir: &Path) -> PathBuf {
    let full = work_dir.join("serve.sock");
    if full.as_os_str().len() < 100 {
        return full;
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| full.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(full)
}

fn config(socket: &Path, work_dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(socket);
    cfg.local_executors = 1;
    cfg.point_threads = 1;
    cfg.out_dir = work_dir.join("serve-out");
    cfg
}

/// The served configuration: BFS under Minnow with WDP.
fn evaluation(opts: &Options, key: &str) -> BenchRun {
    let mut run = BenchRun::minnow_wdp(WorkloadKind::Bfs, SERVE_THREADS);
    run.scale = opts.sizes.serve_scale;
    run.seed = derive_seed(opts.seed, key);
    run
}

fn eval_line(space: &str, id: &str, run: &BenchRun) -> String {
    JsonObject::new()
        .str("op", "eval")
        .str("space", space)
        .str("id", id)
        .raw("run", &run_to_json(run))
        .finish()
}

/// One decoded `eval` reply.
struct Answer {
    latency: Duration,
    wall_us: u64,
    cached: bool,
    report: EvalReport,
}

fn ask(client: &mut Client, line: &str) -> Result<Answer, String> {
    let t0 = Instant::now();
    let doc = client.request(line)?;
    let latency = t0.elapsed();
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc.str_field("error").unwrap_or("refused").to_string());
    }
    Ok(Answer {
        latency,
        wall_us: doc.u64_field("wall_us")?,
        cached: doc.bool_field("cached")?,
        report: EvalReport::from_json(doc.get("report").ok_or("reply has no report")?)?,
    })
}

/// SplitMix64: a seeded stream for the warm order and the direct sample.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn stop(daemon: Daemon, client: Client) {
    drop(client);
    daemon.trigger_shutdown();
    daemon.join();
}

/// One answered request, its report already checked and dropped: the
/// round it belongs to (each round evaluates the same points under its own
/// store namespace), the point, and its timings.
struct Served {
    round: usize,
    point: usize,
    latency: Duration,
    wall_us: u64,
}

fn space(round: usize) -> String {
    format!("round-{round}")
}

/// Runs the serve workload.
///
/// # Errors
///
/// Returns a message when the daemon cannot start or stops answering.
pub fn run(opts: &Options, cal: &Calibration) -> Result<Outcome, String> {
    let socket = socket_path(&opts.work_dir);
    let addr = ServeAddr::Unix(socket.clone());
    let mut out = Outcome::default();
    let points: Vec<BenchRun> = (0..opts.sizes.serve_cold)
        .map(|i| evaluation(opts, &format!("serve/{i}")))
        .collect();

    // Set-up: the daemon up and answering, and the points' graphs
    // generated. The last round leaves the graphs in the process-wide
    // input cache the daemon's executor reads, so a cold request times
    // simulation and store insertion, not graph generation.
    let mut rounds = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((daemon, client)) = live.take() {
            stop(daemon, client);
        }
        let t0 = Instant::now();
        let daemon = Daemon::start(config(&socket, &opts.work_dir))?;
        client::wait_ready(&addr, Duration::from_secs(10))?;
        let mut client = Client::connect(&addr)?;
        let warm_up = evaluation(opts, &format!("serve/warm-up/{rep}"));
        ask(&mut client, &eval_line("warm-up", "warm-up", &warm_up))?;
        for p in &points {
            if rep + 1 == SETUP_REPS {
                p.input();
            } else {
                black_box(p.kind.generate_input(p.scale, p.seed));
            }
        }
        rounds.push(t0.elapsed().as_secs_f64());
        live = Some((daemon, client));
    }
    out.put("setup_s", median(&rounds));
    let (daemon, mut client) = live.expect("at least one set-up round");

    // Rounds of every point cold, then repeats of them warm, until the
    // budget ends (at least one round). Each round uses a fresh store
    // namespace, so its cold requests miss and simulate again.
    let mut rng = Rng(derive_seed(opts.seed, "serve/order"));
    let mut first: Vec<Option<EvalReport>> = vec![None; points.len()];
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut sent_cold = 0u64;
    let start = Instant::now();
    for round in 0.. {
        let round_start = Instant::now();
        let lines: Vec<String> = points
            .iter()
            .enumerate()
            .map(|(i, p)| eval_line(&space(round), &format!("p{i}"), p))
            .collect();
        let mut answered: Vec<Option<EvalReport>> = vec![None; points.len()];
        for (i, line) in lines.iter().enumerate() {
            sent_cold += 1;
            cal.tick();
            match ask(&mut client, line) {
                Ok(a) => {
                    let same = *first[i].get_or_insert_with(|| a.report.clone()) == a.report;
                    out.tally.check(!a.cached && same, || {
                        format!(
                            "round {round} cold p{i}: cached={}, equal to round 0: {same}",
                            a.cached
                        )
                    });
                    cold.push(Served {
                        round,
                        point: i,
                        latency: a.latency,
                        wall_us: a.wall_us,
                    });
                    answered[i] = Some(a.report);
                }
                Err(e) => out
                    .tally
                    .check(false, || format!("round {round} cold p{i}: {e}")),
            }
        }
        let keys: Vec<usize> = (0..points.len())
            .filter(|&i| answered[i].is_some())
            .collect();
        let warm_requests = if keys.is_empty() {
            0
        } else {
            opts.sizes.serve_warm
        };
        let mut order = Vec::new();
        for _ in 0..warm_requests {
            if order.is_empty() {
                order = keys.clone();
                rng.shuffle(&mut order);
            }
            cal.tick();
            let i = order.pop().expect("refilled above");
            match ask(&mut client, &lines[i]) {
                Ok(a) => {
                    let same = answered[i].as_ref() == Some(&a.report);
                    out.tally.check(a.cached && same, || {
                        format!(
                            "round {round} warm p{i}: cached={}, equal to cold: {same}",
                            a.cached
                        )
                    });
                    warm.push(Served {
                        round,
                        point: i,
                        latency: a.latency,
                        wall_us: a.wall_us,
                    });
                }
                Err(e) => out
                    .tally
                    .check(false, || format!("round {round} warm p{i}: {e}")),
            }
        }
        // Start another round only if one more fits in the budget.
        if start.elapsed() + round_start.elapsed() > opts.seconds {
            break;
        }
    }
    let wall = start.elapsed();

    let invocations = daemon.stats().sim_invocations.load(Ordering::Relaxed);
    out.tally.check(invocations == sent_cold + 1, || {
        format!("daemon simulated {invocations} times for {sent_cold} cold requests and a warm-up")
    });
    stop(daemon, client);

    if cold.is_empty() || warm.is_empty() {
        return Err(format!(
            "the daemon answered no {} request",
            if cold.is_empty() { "cold" } else { "warm" }
        ));
    }
    let answered: Vec<usize> = (0..points.len()).filter(|&i| first[i].is_some()).collect();
    for _ in 0..DIRECT_CHECKS.min(answered.len()) {
        let i = answered[rng.below(answered.len())];
        let direct = EvalReport::from_report(&points[i].execute());
        out.tally.check(Some(&direct) == first[i].as_ref(), || {
            format!("p{i}: served report differs from a direct execution")
        });
    }

    let cold_ms: Vec<f64> = cold.iter().map(|s| ms(s.latency)).collect();
    let warm_us: Vec<f64> = warm.iter().map(|s| ms(s.latency) * 1e3).collect();
    let (cold_p50, warm_p50) = (median(&cold_ms), median(&warm_us));
    let (tail_p, tail_us) = tail(&warm_us);
    out.put("op_geomean_ms", geomean(&[cold_p50, warm_p50 / 1e3]));
    out.put("wall_s", wall.as_secs_f64());
    out.put("cold_p50_ms", cold_p50);
    out.put("cold_p90_ms", percentile(&cold_ms, 90.0));
    out.put("cold_n", cold_ms.len() as f64);
    out.put("warm_p50_us", warm_p50);
    out.put("warm_tail_percentile", tail_p);
    out.put("warm_tail_us", tail_us);
    out.put("warm_n", warm_us.len() as f64);
    out.put("serve.sim_invocations", invocations as f64);

    if opts.trace {
        let total_ms: f64 = cold_ms.iter().sum::<f64>() + warm_us.iter().sum::<f64>() / 1e3;
        let daemon_ms = |v: &[Served]| v.iter().map(|s| s.wall_us as f64 / 1e3).sum::<f64>();
        let (sim_ms, lookup_ms) = (daemon_ms(&cold), daemon_ms(&warm));
        let store_ms = replay_store(&points, &first, &cold, &warm)?;
        let spans = [
            ("serve.sim", sim_ms),
            ("serve.lookup", lookup_ms),
            ("serve.transport", total_ms - sim_ms - lookup_ms),
            ("serve.store", store_ms),
        ];
        for (name, v) in spans {
            out.put(&format!("{name}_ms"), v);
            out.put(&format!("{name}_pct"), pct(v, total_ms));
        }
        let cold_overhead: Vec<f64> = cold
            .iter()
            .map(|s| ms(s.latency) - s.wall_us as f64 / 1e3)
            .collect();
        out.put("serve.cold_overhead_ms", median(&cold_overhead));
        out.put("serve.warm_tail_ratio", tail_us / warm_p50);
        // The layer split comes from the daemon's own `wall_us` and a
        // replay outside the timed loop; nothing is added inside it.
        out.put("trace.overhead_pct", 0.0);
    }
    Ok(out)
}

/// Replays the run's store traffic into a standalone [`Store`]: every cold
/// answer inserted (each round's reports equal the first round's, which
/// the run checked), then every warm lookup in the order it was served.
/// Returns the host milliseconds spent in the store.
fn replay_store(
    points: &[BenchRun],
    reports: &[Option<EvalReport>],
    cold: &[Served],
    warm: &[Served],
) -> Result<f64, String> {
    let store = Store::open(None, 64 << 20, Arc::new(ServeStats::new()))?;
    let rounds = cold.iter().map(|s| s.round + 1).max().unwrap_or(0);
    let keys: Vec<String> = (0..rounds * points.len())
        .map(|k| store_key(&space(k / points.len()), &points[k % points.len()]))
        .collect::<Result<_, _>>()?;
    let key = |s: &Served| &keys[s.round * points.len() + s.point];
    let t0 = Instant::now();
    for s in cold {
        if let Some(report) = &reports[s.point] {
            let eval = StoredEval {
                report: report.clone(),
                sim_wall_us: s.wall_us,
            };
            store.insert(key(s), &eval);
        }
    }
    for s in warm {
        black_box(store.get(key(s)));
    }
    Ok(ms(t0.elapsed()))
}
