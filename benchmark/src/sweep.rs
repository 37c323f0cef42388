//! The `fig16` and `fig15` workloads: the paper's sweeps on the serial
//! oracle (one point at a time, one host thread per point).
//!
//! A run covers several input sets: the sweep at the run's seed, plus the
//! same sweep at seeds derived from it. One seed's graphs can be unusual
//! (PageRank's task count swings by 2x between seeds), and averaging over
//! graph instances keeps that from moving the result. Set-up generates
//! every set's graphs. The timed pass cycles through the sets until the
//! budget ends and reports the geometric mean over points of each point's
//! median host time: medians absorb host noise, and the geometric mean
//! keeps the small points visible next to PageRank, which takes most of
//! the wall time. The traced pass runs the seed's own set, every point
//! untraced and then traced.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use minnow_bench::eval::{point_record_json, EvalReport};
use minnow_bench::sweep::{
    derive_seed, run_sweep_observed, PointResult, Sweep, SweepConfig, SweepHooks, SweepParams,
};
use minnow_serve::store::fnv64;

use crate::golden::Golden;
use crate::host::Calibration;
use crate::stats::{geomean, median};
use crate::trace::{execute_traced, replay_hierarchy, replay_program_lines, Family};
use crate::{ms, pct, ratio, Options, Outcome, Workload, SETUP_REPS};

/// Headline simulated core count of Fig. 16.
const HEADLINE_THREADS: usize = 16;

/// The run's input sets: set 0 is the sweep at the run's seed (what the
/// golden table pins), the others at seeds derived from it. Fig. 16 gets
/// more sets because each of its passes is half as long as Fig. 15's.
fn sweeps_for(opts: &Options) -> Vec<Sweep> {
    let (name, scale, sets) = match opts.workload {
        Workload::Fig16 => ("fig16", opts.sizes.fig16_scale, 4),
        Workload::Fig15 => ("fig15", opts.sizes.fig15_scale, 2),
        other => unreachable!("{} is not a sweep", other.name()),
    };
    (0..sets)
        .map(|set| {
            let params = SweepParams {
                scale,
                seed: if set == 0 {
                    opts.seed
                } else {
                    derive_seed(opts.seed, &format!("input-set/{set}"))
                },
                headline_threads: HEADLINE_THREADS,
                max_threads: opts.sizes.fig15_max_threads,
            };
            Sweep::named(name, &params).expect("fig15 and fig16 are named sweeps")
        })
        .collect()
}

/// Runs the sweep workload selected by `opts`.
///
/// # Errors
///
/// Never fails to run; wrong outputs land in the tally.
pub fn run(opts: &Options, golden: &Golden, cal: &Calibration) -> Result<Outcome, String> {
    let sweeps = sweeps_for(opts);
    let mut out = Outcome::default();
    out.put("setup_s", setup(&sweeps));
    if opts.trace {
        traced(&sweeps[0], opts, golden, cal, &mut out);
    } else {
        timed(&sweeps, opts, golden, cal, &mut out);
    }
    Ok(out)
}

/// Generates every set's graphs [`SETUP_REPS`] times; the last round
/// fills the process-wide input cache the points then read. Returns the
/// median round in seconds.
fn setup(sweeps: &[Sweep]) -> f64 {
    let mut inputs = Vec::new();
    for p in sweeps.iter().flat_map(|s| &s.points) {
        let key = (p.run.kind, p.run.scale, p.run.seed);
        if !inputs.contains(&key) {
            inputs.push(key);
        }
    }
    let mut rounds = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        for &(kind, scale, seed) in &inputs {
            if rep + 1 == SETUP_REPS {
                kind.input(scale, seed);
            } else {
                black_box(kind.generate_input(scale, seed));
            }
        }
        rounds.push(t0.elapsed().as_secs_f64());
    }
    median(&rounds)
}

fn record(sweep: &str, p: &PointResult) -> String {
    point_record_json(sweep, &p.id, &p.run, &EvalReport::from_report(&p.report))
}

/// Cycles through the input sets until the budget ends. Each set's first
/// pass always completes (set 0's is the one the golden digest pins);
/// later passes stop at the deadline between points, and every point they
/// do run must reproduce its set's first record byte for byte.
fn timed(sweeps: &[Sweep], opts: &Options, golden: &Golden, cal: &Calibration, out: &mut Outcome) {
    let deadline = Instant::now() + opts.seconds;
    // Samples by point, pooled over the input sets: every set enumerates
    // the same points in the same order.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); sweeps[0].points.len()];
    let mut reference: Vec<Vec<String>> = vec![Vec::new(); sweeps.len()];
    let mut pass_walls = Vec::new();
    for pass in 0.. {
        let set = pass % sweeps.len();
        let sweep = &sweeps[set];
        let first = pass < sweeps.len();
        let cancel = AtomicBool::new(false);
        let watch = |_: &PointResult| {
            cal.tick();
            if !first && Instant::now() >= deadline {
                cancel.store(true, Ordering::Release);
            }
        };
        let hooks = SweepHooks {
            cancel: Some(&cancel),
            on_point: Some(&watch),
        };
        let res = run_sweep_observed(sweep, &SweepConfig::serial(), &hooks);
        for (i, p) in res.points.iter().enumerate() {
            samples[i].push(ms(p.wall));
            let rec = record(&sweep.name, p);
            out.tally
                .check(!p.report.timed_out, || format!("{}: timed out", p.id));
            if first {
                reference[set].push(rec);
            } else {
                out.tally.check(rec == reference[set][i], || {
                    format!(
                        "{} set {set} pass {pass}: record differs from the set's first",
                        p.id
                    )
                });
            }
        }
        if pass == 0 {
            let digest = fnv64(res.jsonl().as_bytes());
            out.digest = Some(digest);
            out.tally
                .golden(golden, &opts.golden_case(), opts.seed, digest);
        }
        if res.skipped == 0 {
            pass_walls.push(res.wall.as_secs_f64());
        }
        if pass + 1 >= sweeps.len() && Instant::now() >= deadline {
            break;
        }
    }
    let point_medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    for (p, m) in sweeps[0].points.iter().zip(&point_medians) {
        out.put(&format!("point.{}_ms", p.id), *m);
    }
    out.put("op_geomean_ms", geomean(&point_medians));
    out.put("wall_s", median(&pass_walls));
    out.put("passes", pass_walls.len() as f64);
    out.put("input_sets", sweeps.len() as f64);
    out.put("points", sweeps[0].points.len() as f64);
    out.put(
        "samples",
        samples.iter().map(Vec::len).sum::<usize>() as f64,
    );
}

/// Host time of each layer summed over traced points, plus the counts
/// the per-layer ratios need.
#[derive(Debug, Default)]
struct Layers {
    wall: Duration,
    untraced: Duration,
    execute: Duration,
    sched_enqueue: Duration,
    sched_dequeue: Duration,
    offload_enqueue: Duration,
    offload_dequeue: Duration,
    offload_tick: Duration,
    charge: Duration,
    program_lines: Duration,
    replay: Duration,
    replay_accesses: u64,
    tasks: u64,
    accesses: u64,
    wdp_tasks: u64,
    wdp_lines: u64,
    prefetch_fills: u64,
    prefetch_used: u64,
    l2_misses: u64,
    instructions: u64,
    sw_dequeues: u64,
    sw_empty_dequeues: u64,
}

/// Runs every point untraced, then traced, until the budget ends (at least
/// one full round). Each traced report must equal its untraced twin; the
/// untraced records are checked against the golden digest.
fn traced(sweep: &Sweep, opts: &Options, golden: &Golden, cal: &Calibration, out: &mut Outcome) {
    let start = Instant::now();
    let mut l = Layers::default();
    for round in 0.. {
        let round_start = Instant::now();
        let mut jsonl = String::new();
        for point in &sweep.points {
            cal.tick();
            let t0 = Instant::now();
            let plain = point.run.execute();
            l.untraced += t0.elapsed();
            let t = execute_traced(&point.run);
            let (want, got) = (
                EvalReport::from_report(&plain),
                EvalReport::from_report(&t.report),
            );
            out.tally.check(want == got, || {
                format!("{}: traced report differs from untraced", point.id)
            });
            out.tally
                .check(!plain.timed_out, || format!("{}: timed out", point.id));
            jsonl.push_str(&point_record_json(
                &sweep.name,
                &point.id,
                &point.run,
                &want,
            ));
            jsonl.push('\n');

            l.wall += t.wall;
            l.execute += t.execute;
            l.charge += t.charge;
            l.tasks += t.report.tasks;
            l.accesses += t.accesses;
            l.l2_misses += t.report.l2_misses;
            l.instructions += t.report.instructions;
            match t.family {
                Family::Software => {
                    l.sched_enqueue += t.enqueue;
                    l.sched_dequeue += t.dequeue;
                    l.sw_dequeues += t.report.sched.dequeues;
                    l.sw_empty_dequeues += t.report.sched.empty_dequeues;
                }
                Family::Minnow | Family::Wdp => {
                    l.offload_enqueue += t.enqueue;
                    l.offload_dequeue += t.dequeue;
                    l.offload_tick += t.tick;
                }
            }
            if t.family == Family::Wdp {
                let (time, lines) = replay_program_lines(&t);
                l.program_lines += time;
                l.wdp_tasks += t.tasks.len() as u64;
                l.wdp_lines += lines;
                l.prefetch_fills += t.report.prefetch_fills;
                l.prefetch_used += t.report.prefetch_used;
            }
            l.replay += replay_hierarchy(&t);
            l.replay_accesses += t.first_touches.len() as u64;
        }
        if round == 0 {
            let digest = fnv64(jsonl.as_bytes());
            out.digest = Some(digest);
            out.tally
                .golden(golden, &opts.golden_case(), opts.seed, digest);
        }
        // Start another round only if it fits in what is left.
        if start.elapsed() + round_start.elapsed() >= opts.seconds {
            break;
        }
    }
    put_layers(&l, out);
}

fn put_layers(l: &Layers, out: &mut Outcome) {
    let wall = ms(l.wall);
    let busy = l.execute
        + l.sched_enqueue
        + l.sched_dequeue
        + l.offload_enqueue
        + l.offload_dequeue
        + l.offload_tick
        + l.charge;
    let self_ms = wall - ms(busy);
    let spans = [
        ("algos.execute", ms(l.execute)),
        ("runtime.sched.enqueue", ms(l.sched_enqueue)),
        ("runtime.sched.dequeue", ms(l.sched_dequeue)),
        ("core.offload.enqueue", ms(l.offload_enqueue)),
        ("core.offload.dequeue", ms(l.offload_dequeue)),
        ("core.offload.tick", ms(l.offload_tick)),
        ("core.wdp.program_lines", ms(l.program_lines)),
        ("runtime.charge", ms(l.charge)),
        ("runtime.sim_exec.self", self_ms),
    ];
    for (name, v) in spans {
        out.put(&format!("{name}_ms"), v);
        out.put(&format!("{name}_pct"), pct(v, wall));
    }
    out.put("trace.wall_ms", wall);
    out.put("trace.untraced_ms", ms(l.untraced));
    out.put(
        "trace.overhead_pct",
        pct(wall - ms(l.untraced), ms(l.untraced)),
    );
    out.put(
        "algos.accesses_per_task",
        ratio(l.accesses as f64, l.tasks as f64),
    );
    out.put(
        "runtime.sched.empty_dequeue_ratio",
        ratio(
            l.sw_empty_dequeues as f64,
            (l.sw_dequeues + l.sw_empty_dequeues) as f64,
        ),
    );
    out.put(
        "core.wdp.lines_per_task",
        ratio(l.wdp_lines as f64, l.wdp_tasks as f64),
    );
    out.put(
        "core.wdp.prefetch_efficiency",
        ratio(l.prefetch_used as f64, l.prefetch_fills as f64),
    );
    out.put(
        "runtime.charge_accesses_per_us",
        ratio(l.accesses as f64, ms(l.charge) * 1e3),
    );
    out.put(
        "sim.hierarchy.replay_accesses_per_us",
        ratio(l.replay_accesses as f64, ms(l.replay) * 1e3),
    );
    out.put(
        "sim.l2_mpki",
        ratio(l.l2_misses as f64 * 1000.0, l.instructions as f64),
    );
}
