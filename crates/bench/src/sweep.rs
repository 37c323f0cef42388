//! Parallel sweep execution engine.
//!
//! A figure in the paper is a *sweep*: an enumerable set of independent
//! simulation points (workload × scheduler × machine configuration).
//! Points share nothing but their immutable input graphs, so they
//! parallelize perfectly across OS threads. This module provides:
//!
//! * named sweep enumerations mirroring the evaluation figures
//!   ([`Sweep::named`]),
//! * a thread pool ([`run_sweep`]) whose workers claim points through one
//!   shared counter and slot each result by its enumeration index,
//! * deterministic per-point seeding ([`derive_seed`]) with no global
//!   RNG state, and
//! * machine-readable artifacts: a JSON-lines record per point
//!   ([`SweepResult::jsonl`]) plus a summary document
//!   ([`SweepResult::summary_json`]).
//!
//! # Determinism contract
//!
//! For a fixed sweep, filter, scale, and seed, [`SweepResult::jsonl`] is
//! **byte-identical** no matter how many pool threads executed the sweep
//! or in what order points finished:
//!
//! * results are emitted in enumeration order, not completion order;
//! * every point's input seed is derived from `(sweep seed, workload)` —
//!   all configurations of one workload run the *same* graph (figures
//!   compare schedulers on a common input), and the derivation does not
//!   depend on enumeration position;
//! * wall-clock measurements never appear in per-point records; they are
//!   confined to the summary's `volatile` section.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use minnow_algos::WorkloadKind;
use minnow_runtime::sim_exec::RunReport;
use minnow_sim::stats::CycleBin;
use minnow_sim::trace::{TraceEvent, Tracer};

use crate::json::{escape, JsonObject};
use crate::runner::{BenchRun, HwKind, InputSpec, SchedSpec};

/// Derives a point-input seed from the sweep seed and a stable key
/// (FNV-1a over the key, finalized with a SplitMix64 mix).
///
/// The derivation is pure: it depends only on its arguments, never on
/// enumeration order or thread identity, so adding or filtering points
/// cannot change any other point's input.
pub fn derive_seed(sweep_seed: u64, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64 finalizer over the combined state.
    let mut z = sweep_seed ^ h;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Knobs shared by every named sweep (defaults from the harness
/// environment variables, see the crate docs).
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Input scale factor.
    pub scale: f64,
    /// Sweep seed; per-point seeds are derived from it.
    pub seed: u64,
    /// Headline thread count (Fig. 16 and the credit sweeps).
    pub headline_threads: usize,
    /// Scalability-sweep maximum thread count.
    pub max_threads: usize,
}

impl SweepParams {
    /// The fixed defaults: what [`SweepParams::from_env`] falls back to
    /// for an unset variable, and what a served sweep request gets for a
    /// field it omits.
    pub const DEFAULT: SweepParams = SweepParams {
        scale: 0.3,
        seed: 42,
        headline_threads: 16,
        max_threads: 64,
    };

    /// Reads the harness environment knobs.
    pub fn from_env() -> Self {
        SweepParams {
            scale: crate::scale(),
            seed: crate::seed(),
            headline_threads: crate::headline_threads(),
            max_threads: crate::max_threads(),
        }
    }
}

/// One independent simulation point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Stable identifier, e.g. `fig15/SSSP/minnow/t4`.
    pub id: String,
    /// The full configuration to execute.
    pub run: BenchRun,
}

/// An enumerated sweep: a name plus its points in presentation order.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep name (`fig15`, `credits`, ...).
    pub name: String,
    /// Points in enumeration (= output) order.
    pub points: Vec<SweepPoint>,
}

/// Schema identifier stamped into [`SweepResult::bench_json`] documents.
pub const BENCH_SCHEMA: &str = "minnow-bench-wallclock/v2";

/// The host a wall-clock figure was measured on, as a JSON object: the
/// parallelism the process sees and the CPU model from `/proc/cpuinfo`
/// (`unknown` where that file is missing).
pub fn host_fingerprint() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    JsonObject::new()
        .u64(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .str("cpu_model", &cpu_model)
        .finish()
}

/// Prefetch-credit axis shared by the Fig. 18-20 sweeps (union of the
/// figures' individual axes).
pub const CREDIT_AXIS: [u32; 7] = [1, 8, 16, 32, 64, 128, 256];

/// DRAM-channel axis of Fig. 21.
pub const CHANNEL_AXIS: [usize; 4] = [1, 2, 4, 12];

impl Sweep {
    /// Every named sweep this module can enumerate.
    pub const NAMES: [&'static str; 5] = ["fig15", "fig16", "credits", "channels", "smoke"];

    /// Enumerates a sweep by name; `None` for unknown names.
    pub fn named(name: &str, p: &SweepParams) -> Option<Sweep> {
        match name {
            "fig15" => Some(Sweep::fig15(p)),
            "fig16" => Some(Sweep::fig16(p)),
            "credits" => Some(Sweep::credits(p)),
            "channels" => Some(Sweep::channels(p)),
            "smoke" => Some(Sweep::smoke(p)),
            _ => None,
        }
    }

    fn point(id: String, mut run: BenchRun, p: &SweepParams) -> SweepPoint {
        run.scale = p.scale;
        run.seed = derive_seed(p.seed, run.kind.name());
        SweepPoint { id, run }
    }

    /// Fig. 15 — scalability: serial baseline plus software/Minnow at
    /// 1..=`max_threads` (powers of two).
    pub fn fig15(p: &SweepParams) -> Sweep {
        let mut threads = vec![1usize, 2, 4, 8, 16, 32, 64];
        threads.retain(|&t| t <= p.max_threads);
        let mut points = Vec::new();
        for kind in WorkloadKind::ALL {
            let mut serial = BenchRun::software_default(kind, 1);
            serial.serial_baseline = true;
            points.push(Sweep::point(
                format!("fig15/{kind}/serial/t1"),
                serial,
                p,
            ));
            for &th in &threads {
                points.push(Sweep::point(
                    format!("fig15/{kind}/galois/t{th}"),
                    BenchRun::software_default(kind, th),
                    p,
                ));
                points.push(Sweep::point(
                    format!("fig15/{kind}/minnow/t{th}"),
                    BenchRun::minnow(kind, th),
                    p,
                ));
            }
        }
        Sweep {
            name: "fig15".into(),
            points,
        }
    }

    /// Fig. 16 — overall speedup at the headline thread count: software
    /// baseline, offload alone, offload + WDP.
    pub fn fig16(p: &SweepParams) -> Sweep {
        let th = p.headline_threads;
        let mut points = Vec::new();
        for kind in WorkloadKind::ALL {
            points.push(Sweep::point(
                format!("fig16/{kind}/software"),
                BenchRun::software_default(kind, th),
                p,
            ));
            points.push(Sweep::point(
                format!("fig16/{kind}/minnow"),
                BenchRun::minnow(kind, th),
                p,
            ));
            points.push(Sweep::point(
                format!("fig16/{kind}/wdp"),
                BenchRun::minnow_wdp(kind, th),
                p,
            ));
        }
        Sweep {
            name: "fig16".into(),
            points,
        }
    }

    /// Figs. 18-20 — the shared prefetch-credit sweep: Minnow without
    /// prefetching, WDP across [`CREDIT_AXIS`], and IMP for comparison.
    pub fn credits(p: &SweepParams) -> Sweep {
        let th = p.headline_threads.min(16); // credit sweeps are per-core effects
        let mut points = Vec::new();
        for kind in WorkloadKind::ALL {
            points.push(Sweep::point(
                format!("credits/{kind}/nopf"),
                BenchRun::minnow(kind, th),
                p,
            ));
            for c in CREDIT_AXIS {
                points.push(Sweep::point(
                    format!("credits/{kind}/c{c}"),
                    BenchRun::new(
                        kind,
                        th,
                        SchedSpec::Minnow {
                            wdp_credits: Some(c),
                        },
                    ),
                    p,
                ));
            }
            points.push(Sweep::point(
                format!("credits/{kind}/imp"),
                BenchRun::new(kind, th, SchedSpec::MinnowWithHw(HwKind::Imp)),
                p,
            ));
        }
        Sweep {
            name: "credits".into(),
            points,
        }
    }

    /// Fig. 21 — DRAM-channel sensitivity with and without WDP.
    pub fn channels(p: &SweepParams) -> Sweep {
        let th = p.max_threads.min(32);
        let mut points = Vec::new();
        for kind in WorkloadKind::ALL {
            for (label, wdp) in [("nopf", false), ("wdp", true)] {
                for ch in CHANNEL_AXIS {
                    let mut run = if wdp {
                        BenchRun::minnow_wdp(kind, th)
                    } else {
                        BenchRun::minnow(kind, th)
                    };
                    run.channels = Some(ch);
                    points.push(Sweep::point(
                        format!("channels/{kind}/{label}/ch{ch}"),
                        run,
                        p,
                    ));
                }
            }
        }
        Sweep {
            name: "channels".into(),
            points,
        }
    }

    /// A small fixed sweep (two workloads, three schedulers) for tests
    /// and quick end-to-end checks.
    pub fn smoke(p: &SweepParams) -> Sweep {
        let mut points = Vec::new();
        for kind in [WorkloadKind::Bfs, WorkloadKind::Cc] {
            points.push(Sweep::point(
                format!("smoke/{kind}/software"),
                BenchRun::software_default(kind, 2),
                p,
            ));
            points.push(Sweep::point(
                format!("smoke/{kind}/minnow"),
                BenchRun::minnow(kind, 2),
                p,
            ));
            points.push(Sweep::point(
                format!("smoke/{kind}/wdp"),
                BenchRun::new(
                    kind,
                    2,
                    SchedSpec::Minnow {
                        wdp_credits: Some(16),
                    },
                ),
                p,
            ));
        }
        Sweep {
            name: "smoke".into(),
            points,
        }
    }

    /// The points a configuration selects, in enumeration order.
    pub fn selected<'a>(&'a self, cfg: &SweepConfig) -> Vec<&'a SweepPoint> {
        self.points.iter().filter(|pt| cfg.matches(&pt.id)).collect()
    }
}

/// Execution configuration for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads in the sweep pool (simulation points in flight at
    /// once; distinct from each point's simulated core count).
    pub threads: usize,
    /// Substring filter over point ids (`None` selects everything).
    pub filter: Option<String>,
    /// Capture a structured event trace per point. Never changes
    /// simulation results or the JSONL artifact — traces are exported
    /// separately (see [`SweepResult::chrome_trace_json`]).
    pub trace: bool,
    /// Run every point on this external graph instead of its generated
    /// input (see [`BenchRun::input`]). This is an execution-level
    /// override: it is not serialized into the per-point
    /// JSONL records, so sweeps over the *same graph* delivered through
    /// different paths (text file, image, mmap) stay byte-identical.
    pub input: Option<InputSpec>,
}

impl SweepConfig {
    /// One point at a time, no filter.
    pub fn serial() -> Self {
        SweepConfig {
            threads: 1,
            filter: None,
            trace: false,
            input: None,
        }
    }

    /// Pool width from `MINNOW_SWEEP_THREADS` (default: available
    /// parallelism), no filter.
    pub fn from_env() -> Self {
        SweepConfig {
            threads: crate::sweep_threads(),
            filter: None,
            trace: false,
            input: None,
        }
    }

    /// Same configuration with a different pool width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same configuration with a substring filter.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Same configuration with per-point trace capture enabled.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Same configuration with every point running on an external graph.
    pub fn with_input(mut self, input: InputSpec) -> Self {
        self.input = Some(input);
        self
    }

    /// Whether a point id passes the filter.
    pub fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

/// One executed point: its configuration and the simulator's report.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point's stable identifier.
    pub id: String,
    /// The configuration that produced the report.
    pub run: BenchRun,
    /// The simulation report.
    pub report: RunReport,
    /// Captured trace events (timestamp-sorted), when the sweep ran
    /// with [`SweepConfig::trace`].
    pub trace: Option<Vec<TraceEvent>>,
    /// Host wall-clock time this point took to simulate (volatile: never
    /// part of the JSONL record, only of [`SweepResult::bench_json`]).
    pub wall: Duration,
}

/// Host-side statistics for ingesting/loading one external input, carried
/// into [`SweepResult::bench_json`] (volatile by nature, like everything
/// else in the bench document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Input path as given on the command line.
    pub path: String,
    /// Load mode label (`auto`/`mmap`/`read`) or the source format label.
    pub mode: String,
    /// Node count of the loaded graph.
    pub nodes: u64,
    /// Edge count of the loaded graph.
    pub edges: u64,
    /// Input file size in bytes.
    pub bytes: u64,
    /// Host wall-clock microseconds spent loading.
    pub wall_us: u64,
}

impl IngestStats {
    /// Serializes the stats as a JSON object, including the derived
    /// edges-per-second ingestion throughput.
    pub fn json(&self) -> String {
        let secs = self.wall_us as f64 / 1e6;
        let rate = if secs > 0.0 {
            self.edges as f64 / secs
        } else {
            0.0
        };
        JsonObject::new()
            .str("path", &self.path)
            .str("mode", &self.mode)
            .u64("nodes", self.nodes)
            .u64("edges", self.edges)
            .u64("bytes", self.bytes)
            .u64("wall_us", self.wall_us)
            .f64("edges_per_sec", rate)
            .finish()
    }
}

/// All results of one sweep execution, in enumeration order.
#[derive(Debug)]
pub struct SweepResult {
    /// Sweep name.
    pub sweep: String,
    /// External-input load statistics, when the sweep ran on a file
    /// (set by the driver after pre-loading; `None` for generated
    /// inputs). Appears only in [`SweepResult::bench_json`].
    pub ingest: Option<IngestStats>,
    /// Per-point results, ordered as the sweep enumerated them.
    pub points: Vec<PointResult>,
    /// Pool threads actually used (volatile; not part of any record).
    pub pool_threads: usize,
    /// Wall-clock duration of the whole sweep (volatile).
    pub wall: Duration,
    /// Selected points left unexecuted because [`SweepHooks::cancel`]
    /// fired. Zero for an uncancelled sweep; when non-zero, `points`
    /// holds only the completed subset (still in enumeration order).
    pub skipped: usize,
}

/// Observation and control hooks for [`run_sweep_observed`]: callers that
/// drive sweeps programmatically (the explorer) can account per-point
/// cost as points retire and stop a sweep between points.
#[derive(Default)]
pub struct SweepHooks<'a> {
    /// Cooperative cancellation: workers check this before *starting*
    /// each point; a point already simulating always completes. The
    /// completed subset is whichever points had started when the flag
    /// flipped — completion order is pool-dependent, so cancelled
    /// sweeps trade the byte-identity contract for early exit.
    pub cancel: Option<&'a AtomicBool>,
    /// Called once per completed point, from the worker that simulated
    /// it (concurrently under a parallel pool). Gets the point's cost:
    /// its full [`PointResult`], including simulated task count and
    /// host wall time.
    pub on_point: Option<&'a (dyn Fn(&PointResult) + Sync)>,
}

/// Runs every selected point of a sweep across a pool of scoped threads.
///
/// Points are independent and fixed up front, so the pool is one shared
/// counter: each worker claims the next unclaimed slot until none is left,
/// and writes its result into that slot, so results come out in
/// enumeration order whatever the pool width or finishing order.
pub fn run_sweep(sweep: &Sweep, cfg: &SweepConfig) -> SweepResult {
    run_sweep_observed(sweep, cfg, &SweepHooks::default())
}

/// [`run_sweep`] with [`SweepHooks`]: per-point cost observation and
/// cooperative cancellation. With default hooks the behaviour (and the
/// determinism contract) is exactly [`run_sweep`]'s.
pub fn run_sweep_observed(sweep: &Sweep, cfg: &SweepConfig, hooks: &SweepHooks) -> SweepResult {
    let t0 = Instant::now();
    let selected = sweep.selected(cfg);
    let pool = cfg.threads.max(1).min(selected.len().max(1));

    // Hands out slots only; results travel through `slots`' mutex, so
    // the counter needs no ordering of its own.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PointResult>>> = Mutex::new(vec![None; selected.len()]);

    std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let cancelled = hooks.cancel.is_some_and(|c| c.load(Ordering::Acquire));
                if slot >= selected.len() || cancelled {
                    // Unclaimed slots stay empty and count as skipped.
                    break;
                }
                let point = selected[slot];
                let mut run = point.run.clone();
                if cfg.input.is_some() {
                    run.input = cfg.input.clone();
                }
                let p0 = Instant::now();
                let (report, trace) = if cfg.trace {
                    // Each point gets a private buffer, so pool
                    // interleaving never mixes event streams.
                    let tracer = Tracer::enabled();
                    let report = run.execute_traced(&tracer);
                    (report, Some(tracer.take_events()))
                } else {
                    (run.execute(), None)
                };
                let result = PointResult {
                    id: point.id.clone(),
                    run: point.run.clone(),
                    report,
                    trace,
                    wall: p0.elapsed(),
                };
                if let Some(observe) = hooks.on_point {
                    observe(&result);
                }
                slots.lock().unwrap_or_else(|e| e.into_inner())[slot] = Some(result);
            });
        }
    });

    let filled: Vec<Option<PointResult>> = slots.into_inner().unwrap_or_else(|e| e.into_inner());
    let cancelled = hooks.cancel.is_some_and(|c| c.load(Ordering::Acquire));
    let skipped = filled.iter().filter(|r| r.is_none()).count();
    assert!(
        cancelled || skipped == 0,
        "every selected point must have run in an uncancelled sweep"
    );
    let points = filled.into_iter().flatten().collect();
    SweepResult {
        sweep: sweep.name.clone(),
        ingest: None,
        points,
        pool_threads: pool,
        wall: t0.elapsed(),
        skipped,
    }
}

impl SweepResult {
    /// Looks up a point result by id.
    pub fn get(&self, id: &str) -> Option<&PointResult> {
        self.points.iter().find(|p| p.id == id)
    }

    /// Looks up a report by id, panicking with the id on a miss (sweep
    /// consumers enumerate the same ids the sweep did, so a miss is a
    /// bug, not an input condition).
    pub fn report(&self, id: &str) -> &RunReport {
        &self
            .get(id)
            .unwrap_or_else(|| panic!("sweep {} has no point {id}", self.sweep))
            .report
    }

    /// Serializes every point as one JSON object per line, in
    /// enumeration order. Byte-identical across pool widths and runs:
    /// contains no timestamps, wall-clock durations, or thread identity.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for point in &self.points {
            out.push_str(&point_record(&self.sweep, point));
            out.push('\n');
        }
        out
    }

    /// A summary document: stable aggregates over the sweep, plus a
    /// `volatile` section quarantining everything that may legitimately
    /// differ between runs (pool width, wall time).
    pub fn summary_json(&self) -> String {
        let timed_out = self.points.iter().filter(|p| p.report.timed_out).count();
        let tasks: u64 = self.points.iter().map(|p| p.report.tasks).sum();
        let instructions: u64 = self.points.iter().map(|p| p.report.instructions).sum();
        let sim_cycles: u64 = self.points.iter().map(|p| p.report.makespan).sum();
        let volatile = JsonObject::new()
            .u64("pool_threads", self.pool_threads as u64)
            .u64("wall_ms", self.wall.as_millis() as u64)
            .finish();
        JsonObject::new()
            .str("sweep", &self.sweep)
            .u64("points", self.points.len() as u64)
            .u64("timed_out", timed_out as u64)
            .u64("total_tasks", tasks)
            .u64("total_instructions", instructions)
            .u64("total_sim_cycles", sim_cycles)
            .raw("volatile", &volatile)
            .finish()
    }

    /// Serializes every point's *closed* cycle accounting as one JSON
    /// object per line (separate from [`SweepResult::jsonl`], whose
    /// byte layout is frozen by the determinism contract). Each record
    /// carries the across-core total of every [`CycleBin`] plus the
    /// makespan and core count; bins × makespan close exactly:
    /// `sum(bins) == makespan * cores`.
    pub fn breakdown_jsonl(&self) -> String {
        let mut out = String::new();
        for point in &self.points {
            let report = crate::eval::EvalReport::from_report(&point.report);
            out.push_str(&crate::eval::breakdown_record_json(
                &self.sweep,
                &point.id,
                &report,
            ));
            out.push('\n');
        }
        out
    }

    /// Renders the Fig. 5-style breakdown table: for every point, the
    /// fraction of total core-cycles (makespan × cores) spent in each
    /// closed accounting bin. Rows sum to 100% by construction.
    pub fn breakdown_table(&self) -> String {
        let id_width = self
            .points
            .iter()
            .map(|p| p.id.len())
            .max()
            .unwrap_or(8)
            .max("point".len());
        let mut out = format!("{:<id_width$}", "point");
        for bin in CycleBin::ALL {
            out.push_str(&format!(" {:>8}", bin.name()));
        }
        out.push_str(&format!(" {:>12}\n", "makespan"));
        for point in &self.points {
            let acct = &point.report.accounting;
            let denom = (point.report.makespan * acct.cores() as u64).max(1) as f64;
            out.push_str(&format!("{:<id_width$}", point.id));
            for bin in CycleBin::ALL {
                let frac = acct.bin_total(bin) as f64 / denom;
                out.push_str(&format!(" {:>7.1}%", frac * 100.0));
            }
            out.push_str(&format!(" {:>12}\n", point.report.makespan));
        }
        out
    }

    /// The host wall-clock benchmark document (`BENCH_<sweep>.json`):
    /// the host it ran on ([`host_fingerprint`]), the sweep's scale and
    /// seed, per-point simulation wall time plus derived
    /// simulator-throughput rates (simulated tasks and memory accesses
    /// retired per host second). Everything here is *volatile* by nature
    /// — it measures the machine running the simulator, not the simulated
    /// machine — which is why it lives in its own document and never
    /// touches the byte-frozen JSONL artifact.
    pub fn bench_json(&self, params: &SweepParams) -> String {
        let rate = |n: u64, wall: Duration| {
            let secs = wall.as_secs_f64();
            if secs > 0.0 {
                n as f64 / secs
            } else {
                0.0
            }
        };
        let points = crate::json::array(self.points.iter().map(|p| {
            JsonObject::new()
                .str("id", &p.id)
                .u64("wall_us", p.wall.as_micros() as u64)
                .u64("tasks", p.report.tasks)
                .u64("mem_accesses", p.report.mem_accesses)
                .u64("makespan", p.report.makespan)
                .f64("tasks_per_sec", rate(p.report.tasks, p.wall))
                .f64("accesses_per_sec", rate(p.report.mem_accesses, p.wall))
                .finish()
        }));
        let tasks: u64 = self.points.iter().map(|p| p.report.tasks).sum();
        let accesses: u64 = self.points.iter().map(|p| p.report.mem_accesses).sum();
        let mut obj = JsonObject::new()
            .str("schema", BENCH_SCHEMA)
            .str("sweep", &self.sweep)
            .raw("host", &host_fingerprint())
            .f64("scale", params.scale)
            .u64("seed", params.seed);
        if let Some(ingest) = &self.ingest {
            obj = obj.raw("ingest", &ingest.json());
        }
        obj.u64("pool_threads", self.pool_threads as u64)
            .u64("wall_ms", self.wall.as_millis() as u64)
            .u64("total_tasks", tasks)
            .u64("total_mem_accesses", accesses)
            .f64("tasks_per_sec", {
                let secs = self.wall.as_secs_f64();
                if secs > 0.0 {
                    tasks as f64 / secs
                } else {
                    0.0
                }
            })
            .f64("accesses_per_sec", {
                let secs = self.wall.as_secs_f64();
                if secs > 0.0 {
                    accesses as f64 / secs
                } else {
                    0.0
                }
            })
            .raw("points", &points)
            .finish()
    }

    /// Merges every captured point trace into one Chrome `trace_event`
    /// JSON document: each point becomes a process (pid = enumeration
    /// index, named by a `process_name` metadata event), each simulated
    /// core a thread. Returns `None` when the sweep ran without
    /// [`SweepConfig::trace`]. Deterministic for a fixed sweep and seed.
    pub fn chrome_trace_json(&self) -> Option<String> {
        if self.points.iter().all(|p| p.trace.is_none()) {
            return None;
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (pid, point) in self.points.iter().enumerate() {
            let Some(events) = &point.trace else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&point.id)
            ));
            for ev in events {
                out.push(',');
                out.push_str(&ev.to_chrome_json(pid as u64));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        Some(out)
    }

    /// Writes `<sweep>.jsonl` and `<sweep>.summary.json` under `dir`,
    /// returning their paths. Also writes the closed cycle-accounting
    /// records (`<sweep>.breakdown.jsonl`) and Fig. 5-style table
    /// (`<sweep>.breakdown.txt`) — new files alongside the frozen ones.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or writes.
    pub fn write_artifacts(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join(format!("{}.jsonl", self.sweep));
        let summary = dir.join(format!("{}.summary.json", self.sweep));
        std::fs::write(&jsonl, self.jsonl())?;
        std::fs::write(&summary, self.summary_json() + "\n")?;
        std::fs::write(
            dir.join(format!("{}.breakdown.jsonl", self.sweep)),
            self.breakdown_jsonl(),
        )?;
        std::fs::write(
            dir.join(format!("{}.breakdown.txt", self.sweep)),
            self.breakdown_table(),
        )?;
        Ok((jsonl, summary))
    }
}

/// Serializes one executed point as a JSON object (no trailing newline);
/// the byte layout lives in [`crate::eval::point_record_json`], shared
/// with the daemon path.
fn point_record(sweep: &str, point: &PointResult) -> String {
    let report = crate::eval::EvalReport::from_report(&point.report);
    crate::eval::point_record_json(sweep, &point.id, &point.run, &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny_params() -> SweepParams {
        SweepParams {
            scale: 0.02,
            seed: 7,
            headline_threads: 4,
            max_threads: 4,
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(42, "SSSP"), derive_seed(42, "SSSP"));
        assert_ne!(derive_seed(42, "SSSP"), derive_seed(42, "BFS"));
        assert_ne!(derive_seed(42, "SSSP"), derive_seed(43, "SSSP"));
    }

    #[test]
    fn every_named_sweep_enumerates_unique_ids() {
        let p = tiny_params();
        for name in Sweep::NAMES {
            let sweep = Sweep::named(name, &p).unwrap();
            assert_eq!(sweep.name, name);
            assert!(!sweep.points.is_empty(), "{name} enumerated nothing");
            let ids: HashSet<&str> = sweep.points.iter().map(|pt| pt.id.as_str()).collect();
            assert_eq!(ids.len(), sweep.points.len(), "{name} has duplicate ids");
        }
        assert!(Sweep::named("nope", &p).is_none());
    }

    #[test]
    fn workload_configs_share_one_input_seed() {
        let sweep = Sweep::fig16(&tiny_params());
        let sssp_seeds: HashSet<u64> = sweep
            .points
            .iter()
            .filter(|pt| pt.id.contains("SSSP"))
            .map(|pt| pt.run.seed)
            .collect();
        assert_eq!(sssp_seeds.len(), 1, "configs of one workload share a graph");
        let bfs_seed = sweep
            .points
            .iter()
            .find(|pt| pt.id.contains("/BFS/"))
            .unwrap()
            .run
            .seed;
        assert!(!sssp_seeds.contains(&bfs_seed), "workloads get distinct graphs");
    }

    #[test]
    fn filter_selects_matching_points_in_order() {
        let sweep = Sweep::smoke(&tiny_params());
        let cfg = SweepConfig::serial().with_filter("/BFS/");
        let picked = sweep.selected(&cfg);
        assert!(!picked.is_empty() && picked.len() < sweep.points.len());
        assert!(picked.iter().all(|pt| pt.id.contains("/BFS/")));
    }

    #[test]
    fn smoke_sweep_runs_and_serializes() {
        let sweep = Sweep::smoke(&tiny_params());
        let result = run_sweep(&sweep, &SweepConfig::serial());
        assert_eq!(result.points.len(), sweep.points.len());
        let jsonl = result.jsonl();
        assert_eq!(jsonl.lines().count(), sweep.points.len());
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"sweep\":\"smoke\",\"id\":\"smoke/"));
            assert!(line.ends_with('}'));
        }
        assert!(result.report("smoke/BFS/minnow").tasks > 0);
        let summary = result.summary_json();
        assert!(summary.contains("\"points\":6"));
        assert!(summary.contains("\"volatile\":{\"pool_threads\":1"));
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let sweep = Sweep::smoke(&tiny_params());
        let serial = run_sweep(&sweep, &SweepConfig::serial());
        let parallel = run_sweep(&sweep, &SweepConfig::serial().with_threads(4));
        assert_eq!(serial.jsonl(), parallel.jsonl());
    }

    #[test]
    fn hooks_observe_every_point_and_cancel_stops_early() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let sweep = Sweep::smoke(&tiny_params());

        // Cost observation: on_point fires once per point and sees the
        // same task totals the results report.
        let observed_tasks = AtomicU64::new(0);
        let observed_points = AtomicU64::new(0);
        let observe = |p: &PointResult| {
            observed_tasks.fetch_add(p.report.tasks, Ordering::Relaxed);
            observed_points.fetch_add(1, Ordering::Relaxed);
        };
        let hooks = SweepHooks {
            cancel: None,
            on_point: Some(&observe),
        };
        let result = run_sweep_observed(&sweep, &SweepConfig::serial(), &hooks);
        assert_eq!(result.skipped, 0);
        assert_eq!(observed_points.load(Ordering::Relaxed), result.points.len() as u64);
        let total: u64 = result.points.iter().map(|p| p.report.tasks).sum();
        assert_eq!(observed_tasks.load(Ordering::Relaxed), total);

        // Cancellation after the second point: the remaining points are
        // skipped, and the completed subset keeps enumeration order.
        let cancel = AtomicBool::new(false);
        let seen = AtomicU64::new(0);
        let trip = |_: &PointResult| {
            if seen.fetch_add(1, Ordering::Relaxed) + 1 >= 2 {
                cancel.store(true, Ordering::Release);
            }
        };
        let hooks = SweepHooks {
            cancel: Some(&cancel),
            on_point: Some(&trip),
        };
        let partial = run_sweep_observed(&sweep, &SweepConfig::serial(), &hooks);
        assert_eq!(partial.points.len(), 2);
        assert_eq!(partial.skipped, sweep.points.len() - 2);
        let ids: Vec<&str> = partial.points.iter().map(|p| p.id.as_str()).collect();
        let expected: Vec<&str> = sweep.points[..2].iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids, expected, "serial pool completes a prefix");
    }
}
