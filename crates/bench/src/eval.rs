//! The evaluation boundary: request/response simulation.
//!
//! Everything that *consumes* simulations — the sweep runner's
//! artifacts, the explorer's journal, the `minnow-serve` daemon and its
//! remote workers — talks to the simulator through one shape: an
//! [`EvalRequest`] (a point id plus its [`BenchRun`]) answered by an
//! [`EvalResponse`] carrying a wire-serializable [`EvalReport`]. The
//! report is a flattening of [`RunReport`] that keeps **every field the
//! deterministic artifacts serialize** (the per-point JSONL record and
//! the closed cycle-accounting breakdown) and nothing volatile, so a
//! point simulated locally, on a remote worker, or replayed from a
//! content-addressed store reproduces byte-identical artifact lines.
//!
//! [`Evaluator`] is the trait behind which execution hides:
//! [`LocalEvaluator`] runs the in-process sweep pool; `minnow-serve`
//! provides daemon-backed implementations (memoizing store, work queue,
//! remote workers) without the explorer or the artifact writers
//! noticing the difference.

use std::time::Duration;

use minnow_algos::WorkloadKind;
use minnow_runtime::sim_exec::RunReport;
use minnow_runtime::PolicyKind;
use minnow_sim::config::EngineParams;
use minnow_sim::core::CoreMode;
use minnow_sim::stats::CycleBin;

use crate::json::JsonObject;
use crate::json_read::Json;
use crate::runner::{BenchRun, HwKind, InputSpec, SchedSpec};
use crate::sweep::{run_sweep_observed, PointResult, Sweep, SweepConfig, SweepHooks, SweepPoint};

/// One requested evaluation: a stable point id plus the configuration
/// to simulate.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// Stable point identifier (artifact and journal key).
    pub id: String,
    /// The configuration to execute.
    pub run: BenchRun,
}

/// One answered evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// The request's id, echoed.
    pub id: String,
    /// The deterministic simulation outcome.
    pub report: EvalReport,
    /// Host wall microseconds the evaluation took (volatile: cache hits
    /// report the lookup time, not the original simulation's).
    pub wall_us: u64,
    /// Served from a memoizing store without touching the simulator.
    pub cached: bool,
}

/// A wire-serializable flattening of [`RunReport`]: exactly the fields
/// the byte-frozen artifacts need, none of the volatile host-side
/// counters (spec statistics, per-shard hold/wait, threads used).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvalReport {
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// The run hit its task limit before draining.
    pub timed_out: bool,
    /// Busy-cycle breakdown: issue-limited useful compute.
    pub useful: u64,
    /// Busy-cycle breakdown: worklist/scheduler operations.
    pub worklist: u64,
    /// Busy-cycle breakdown: memory stalls after MLP overlap.
    pub memory: u64,
    /// Busy-cycle breakdown: atomic/fence serialization.
    pub fence: u64,
    /// Busy-cycle breakdown: branch misprediction penalties.
    pub branch: u64,
    /// Scheduler statistics: enqueues.
    pub enqueues: u64,
    /// Scheduler statistics: dequeues.
    pub dequeues: u64,
    /// Scheduler statistics: empty dequeues.
    pub empty_dequeues: u64,
    /// Scheduler statistics: worklist-operation cycles.
    pub op_cycles: u64,
    /// Scheduler statistics: wait cycles.
    pub wait_cycles: u64,
    /// Scheduler statistics: scheduler instructions.
    pub sched_instrs: u64,
    /// Demand L2 misses summed over cores.
    pub l2_misses: u64,
    /// Demand accesses summed over cores.
    pub mem_accesses: u64,
    /// Delinquent loads observed.
    pub delinquent_loads: u64,
    /// Total loads.
    pub total_loads: u64,
    /// Prefetch fills into L2s.
    pub prefetch_fills: u64,
    /// Prefetched lines consumed before eviction.
    pub prefetch_used: u64,
    /// Bulk-synchronous supersteps (0 for asynchronous executors).
    pub supersteps: u64,
    /// Simulated cores in the closed accounting.
    pub cores: u64,
    /// Across-core totals of every [`CycleBin`], in `CycleBin::ALL`
    /// order; `sum(bins) == makespan * cores` by construction.
    pub bins: [u64; 7],
}

impl EvalReport {
    /// Flattens a full simulation report.
    pub fn from_report(r: &RunReport) -> EvalReport {
        let mut bins = [0u64; 7];
        for (slot, bin) in bins.iter_mut().zip(CycleBin::ALL) {
            *slot = r.accounting.bin_total(bin);
        }
        EvalReport {
            makespan: r.makespan,
            tasks: r.tasks,
            instructions: r.instructions,
            timed_out: r.timed_out,
            useful: r.breakdown.useful,
            worklist: r.breakdown.worklist,
            memory: r.breakdown.memory,
            fence: r.breakdown.fence,
            branch: r.breakdown.branch,
            enqueues: r.sched.enqueues,
            dequeues: r.sched.dequeues,
            empty_dequeues: r.sched.empty_dequeues,
            op_cycles: r.sched.op_cycles,
            wait_cycles: r.sched.wait_cycles,
            sched_instrs: r.sched.instrs,
            l2_misses: r.l2_misses,
            mem_accesses: r.mem_accesses,
            delinquent_loads: r.delinquent_loads,
            total_loads: r.total_loads,
            prefetch_fills: r.prefetch_fills,
            prefetch_used: r.prefetch_used,
            supersteps: r.supersteps,
            cores: r.accounting.cores() as u64,
            bins,
        }
    }

    /// L2 misses per kilo-instruction — the same formula
    /// `RunReport::mpki` uses, recomputed from the wire integers so
    /// remote and cached paths serialize identical six-decimal values.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of prefetched lines consumed before eviction (matches
    /// `RunReport::prefetch_efficiency`).
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetch_fills == 0 {
            1.0
        } else {
            self.prefetch_used as f64 / self.prefetch_fills as f64
        }
    }

    /// Appends the report's fields to `obj` in their canonical order;
    /// nest them with [`JsonObject::object`] to render a reply, a worker
    /// result or a store line in one buffer.
    pub fn fields(&self, obj: JsonObject) -> JsonObject {
        obj.u64("makespan", self.makespan)
            .u64("tasks", self.tasks)
            .u64("instructions", self.instructions)
            .bool("timed_out", self.timed_out)
            .u64("useful", self.useful)
            .u64("worklist", self.worklist)
            .u64("memory", self.memory)
            .u64("fence", self.fence)
            .u64("branch", self.branch)
            .u64("enqueues", self.enqueues)
            .u64("dequeues", self.dequeues)
            .u64("empty_dequeues", self.empty_dequeues)
            .u64("op_cycles", self.op_cycles)
            .u64("wait_cycles", self.wait_cycles)
            .u64("sched_instrs", self.sched_instrs)
            .u64("l2_misses", self.l2_misses)
            .u64("mem_accesses", self.mem_accesses)
            .u64("delinquent_loads", self.delinquent_loads)
            .u64("total_loads", self.total_loads)
            .u64("prefetch_fills", self.prefetch_fills)
            .u64("prefetch_used", self.prefetch_used)
            .u64("supersteps", self.supersteps)
            .u64("cores", self.cores)
            .u64s("bins", &self.bins)
    }

    /// Parses a report serialized by [`EvalReport::fields`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<EvalReport, String> {
        let bins_doc = doc
            .get("bins")
            .and_then(Json::as_array)
            .ok_or("missing `bins` array")?;
        if bins_doc.len() != 7 {
            return Err(format!("`bins` must have 7 entries, got {}", bins_doc.len()));
        }
        let mut bins = [0u64; 7];
        for (slot, v) in bins.iter_mut().zip(bins_doc) {
            *slot = v.as_u64().ok_or("non-integer bin total")?;
        }
        Ok(EvalReport {
            makespan: doc.u64_field("makespan")?,
            tasks: doc.u64_field("tasks")?,
            instructions: doc.u64_field("instructions")?,
            timed_out: doc.bool_field("timed_out")?,
            useful: doc.u64_field("useful")?,
            worklist: doc.u64_field("worklist")?,
            memory: doc.u64_field("memory")?,
            fence: doc.u64_field("fence")?,
            branch: doc.u64_field("branch")?,
            enqueues: doc.u64_field("enqueues")?,
            dequeues: doc.u64_field("dequeues")?,
            empty_dequeues: doc.u64_field("empty_dequeues")?,
            op_cycles: doc.u64_field("op_cycles")?,
            wait_cycles: doc.u64_field("wait_cycles")?,
            sched_instrs: doc.u64_field("sched_instrs")?,
            l2_misses: doc.u64_field("l2_misses")?,
            mem_accesses: doc.u64_field("mem_accesses")?,
            delinquent_loads: doc.u64_field("delinquent_loads")?,
            total_loads: doc.u64_field("total_loads")?,
            prefetch_fills: doc.u64_field("prefetch_fills")?,
            prefetch_used: doc.u64_field("prefetch_used")?,
            supersteps: doc.u64_field("supersteps")?,
            cores: doc.u64_field("cores")?,
            bins,
        })
    }
}

/// Serializes one evaluated point as the frozen per-point JSONL record
/// (no trailing newline). This is *the* serializer behind
/// `SweepResult::jsonl`; the daemon path reuses it verbatim, which is
/// what makes served sweeps byte-identical to direct ones.
pub fn point_record_json(sweep: &str, id: &str, run: &BenchRun, r: &EvalReport) -> String {
    let breakdown = JsonObject::new()
        .u64("useful", r.useful)
        .u64("worklist", r.worklist)
        .u64("memory", r.memory)
        .u64("fence", r.fence)
        .u64("branch", r.branch)
        .finish();
    let sched = JsonObject::new()
        .u64("enqueues", r.enqueues)
        .u64("dequeues", r.dequeues)
        .u64("empty_dequeues", r.empty_dequeues)
        .u64("op_cycles", r.op_cycles)
        .u64("wait_cycles", r.wait_cycles)
        .u64("instrs", r.sched_instrs)
        .finish();
    JsonObject::new()
        .str("sweep", sweep)
        .str("id", id)
        .str("workload", run.kind.name())
        .str("sched", &run.sched.label())
        .u64("threads", run.threads as u64)
        .f64("scale", run.scale)
        .u64("seed", run.seed)
        .opt_u64("channels", run.channels.map(|c| c as u64))
        .opt_u64("rob", run.rob.map(|r| r as u64))
        .bool("serial_baseline", run.serial_baseline)
        .u64("makespan", r.makespan)
        .u64("tasks", r.tasks)
        .u64("instructions", r.instructions)
        .bool("timed_out", r.timed_out)
        .raw("breakdown", &breakdown)
        .raw("sched_stats", &sched)
        .u64("l2_misses", r.l2_misses)
        .u64("mem_accesses", r.mem_accesses)
        .u64("delinquent_loads", r.delinquent_loads)
        .u64("total_loads", r.total_loads)
        .u64("prefetch_fills", r.prefetch_fills)
        .u64("prefetch_used", r.prefetch_used)
        .u64("supersteps", r.supersteps)
        .f64("mpki", r.mpki())
        .f64("prefetch_efficiency", r.prefetch_efficiency())
        .finish()
}

/// Serializes one point's closed cycle accounting as the breakdown
/// JSONL record (no trailing newline); shared by `SweepResult` and the
/// daemon path like [`point_record_json`].
pub fn breakdown_record_json(sweep: &str, id: &str, r: &EvalReport) -> String {
    let mut obj = JsonObject::new()
        .str("sweep", sweep)
        .str("id", id)
        .u64("makespan", r.makespan)
        .u64("cores", r.cores);
    for (bin, total) in CycleBin::ALL.into_iter().zip(r.bins) {
        obj = obj.u64(bin.name(), total);
    }
    obj.finish()
}

/// Where simulations run. Implementations must be deterministic in the
/// returned [`EvalReport`]s — only `wall_us` and `cached` may vary —
/// and must answer requests **in request order**.
pub trait Evaluator {
    /// Evaluates a batch, one response per request, in request order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable transport/configuration error; the
    /// local evaluator is infallible in practice.
    fn evaluate(&mut self, batch: Vec<EvalRequest>) -> Result<Vec<EvalResponse>, String>;
}

/// The in-process evaluator: fans a batch across the sweep pool
/// ([`run_sweep_observed`]).
#[derive(Debug, Clone)]
pub struct LocalEvaluator {
    /// Sweep-pool worker threads (points in flight at once).
    pub pool_threads: usize,
    /// Narrate per-point results to stderr.
    pub verbose: bool,
    /// Label for narration and the internal sweep name; never
    /// serialized into responses.
    pub tag: String,
}

impl LocalEvaluator {
    /// A serial evaluator (one point at a time, quiet).
    pub fn serial() -> LocalEvaluator {
        LocalEvaluator {
            pool_threads: 1,
            verbose: false,
            tag: "eval".into(),
        }
    }
}

impl Evaluator for LocalEvaluator {
    fn evaluate(&mut self, batch: Vec<EvalRequest>) -> Result<Vec<EvalResponse>, String> {
        let points = batch
            .into_iter()
            .map(|req| SweepPoint {
                id: req.id,
                run: req.run,
            })
            .collect();
        let sweep = Sweep {
            name: self.tag.clone(),
            points,
        };
        let cfg = SweepConfig::serial().with_threads(self.pool_threads.max(1));
        let tag = self.tag.clone();
        let narrate = move |p: &PointResult| {
            eprintln!(
                "[{tag}]   {} makespan {} tasks {} ({} ms)",
                p.id,
                p.report.makespan,
                p.report.tasks,
                p.wall.as_millis()
            );
        };
        let hooks = SweepHooks {
            cancel: None,
            on_point: self
                .verbose
                .then_some(&narrate as &(dyn Fn(&PointResult) + Sync)),
        };
        let result = run_sweep_observed(&sweep, &cfg, &hooks);
        Ok(result
            .points
            .into_iter()
            .map(|p| EvalResponse {
                id: p.id,
                report: EvalReport::from_report(&p.report),
                wall_us: duration_us(p.wall),
                cached: false,
            })
            .collect())
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Serializes the **simulation-relevant** subset of a [`BenchRun`] as a
/// canonical JSON object: the fields that determine the simulated
/// outcome. Two runs with equal wire forms simulate identically, which is what makes
/// this string the store's point fingerprint and the worker protocol's
/// job payload at once.
pub fn run_to_json(run: &BenchRun) -> String {
    let obj = JsonObject::with_capacity(512)
        .str("workload", run.kind.name())
        // Shortest-roundtrip formatting: the worker must simulate the
        // *exact* f64, not a six-decimal truncation of it.
        .raw("scale", &run.scale.to_string())
        .u64("seed", run.seed)
        .u64("threads", run.threads as u64)
        .object("sched", |o| match &run.sched {
            SchedSpec::Software(policy) => o.str("type", "software").str("policy", &policy.label()),
            SchedSpec::Minnow { wdp_credits } => o
                .str("type", "minnow")
                .opt_u64("credits", wdp_credits.map(u64::from)),
            SchedSpec::MinnowWithHw(hw) => o.str("type", "minnow-hw").str(
                "hw",
                match hw {
                    HwKind::Stride => "stride",
                    HwKind::Imp => "imp",
                },
            ),
            SchedSpec::Bsp(lg) => o.str("type", "bsp").opt_u64("lg", lg.map(u64::from)),
        })
        .object("core", |o| {
            o.bool("perfect_branch", run.core_mode.perfect_branch)
                .bool("no_fence", run.core_mode.no_fence)
        })
        .opt_u64("channels", run.channels.map(|c| c as u64))
        .opt_u64("rob", run.rob.map(|r| r as u64));
    let obj = match run.l2 {
        Some((bytes, ways)) => obj.object("l2", |o| o.u64("bytes", bytes as u64).u64("ways", ways as u64)),
        None => obj.raw("l2", "null"),
    };
    let obj = match &run.engine {
        Some(e) => obj.object("engine", |o| {
            o.u64("local_queue", e.local_queue as u64)
                .u64("local_queue_latency", e.local_queue_latency)
                .u64("threadlet_queue", e.threadlet_queue as u64)
                .u64("load_buffer", e.load_buffer as u64)
                .u64("load_buffer_wakeup", e.load_buffer_wakeup)
                .u64("context_bytes", e.context_bytes as u64)
                .u64("data_memory_bytes", e.data_memory_bytes as u64)
                .u64("refill_threshold", e.refill_threshold as u64)
        }),
        None => obj.raw("engine", "null"),
    };
    let obj = obj
        .u64("task_limit", run.task_limit)
        .bool("serial_baseline", run.serial_baseline);
    match &run.input {
        Some(spec) => obj.str("input", &spec.path.to_string_lossy()),
        None => obj.raw("input", "null"),
    }
    .finish()
}

/// Parses a [`run_to_json`] wire form back into an executable
/// [`BenchRun`].
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn run_from_json(doc: &Json) -> Result<BenchRun, String> {
    let workload = doc.str_field("workload")?;
    let kind = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let threads = doc.u64_field("threads")? as usize;
    let sched_doc = doc.get("sched").ok_or("missing `sched` object")?;
    let sched = match sched_doc.str_field("type")? {
        "software" => {
            let label = sched_doc.str_field("policy")?;
            SchedSpec::Software(
                PolicyKind::from_label(label)
                    .ok_or_else(|| format!("unknown software policy `{label}`"))?,
            )
        }
        "minnow" => SchedSpec::Minnow {
            wdp_credits: match sched_doc.get("credits") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    u32::try_from(v.as_u64().ok_or("non-integer `credits`")?)
                        .map_err(|_| "`credits` out of range")?,
                ),
            },
        },
        "minnow-hw" => SchedSpec::MinnowWithHw(match sched_doc.str_field("hw")? {
            "stride" => HwKind::Stride,
            "imp" => HwKind::Imp,
            other => return Err(format!("unknown hw prefetcher `{other}`")),
        }),
        // `lg` shifts a priority, so 64 or more is no bucket width.
        "bsp" => SchedSpec::Bsp(match sched_doc.get("lg") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                u32::try_from(v.as_u64().ok_or("non-integer `lg`")?)
                    .ok()
                    .filter(|&lg| lg < 64)
                    .ok_or("`lg` out of range")?,
            ),
        }),
        other => return Err(format!("unknown sched type `{other}`")),
    };
    let mut run = BenchRun::new(kind, threads, sched);
    run.scale = doc.f64_field("scale")?;
    run.seed = doc.u64_field("seed")?;
    if let Some(core) = doc.get("core") {
        run.core_mode = CoreMode {
            perfect_branch: core.bool_field("perfect_branch")?,
            no_fence: core.bool_field("no_fence")?,
        };
    }
    run.channels = match doc.get("channels") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-integer `channels`")? as usize),
    };
    run.rob = match doc.get("rob") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-integer `rob`")? as usize),
    };
    run.l2 = match doc.get("l2") {
        None | Some(Json::Null) => None,
        Some(l2) => Some((
            l2.u64_field("bytes")? as usize,
            l2.u64_field("ways")? as usize,
        )),
    };
    run.engine = match doc.get("engine") {
        None | Some(Json::Null) => None,
        Some(e) => Some(EngineParams {
            local_queue: e.u64_field("local_queue")? as usize,
            local_queue_latency: e.u64_field("local_queue_latency")?,
            threadlet_queue: e.u64_field("threadlet_queue")? as usize,
            load_buffer: e.u64_field("load_buffer")? as usize,
            load_buffer_wakeup: e.u64_field("load_buffer_wakeup")?,
            context_bytes: e.u64_field("context_bytes")? as usize,
            data_memory_bytes: e.u64_field("data_memory_bytes")? as usize,
            refill_threshold: e.u64_field("refill_threshold")? as usize,
        }),
    };
    run.task_limit = doc.u64_field("task_limit")?;
    run.serial_baseline = doc.bool_field("serial_baseline")?;
    run.input = match doc.get("input") {
        None | Some(Json::Null) => None,
        Some(v) => Some(InputSpec::new(
            v.as_str().ok_or("non-string `input` path")?,
        )),
    };
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::derive_seed;

    fn roundtrip(run: &BenchRun) -> BenchRun {
        let wire = run_to_json(run);
        let doc = Json::parse(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"));
        let back = run_from_json(&doc).unwrap();
        assert_eq!(run_to_json(&back), wire, "wire form is a fixed point");
        back
    }

    #[test]
    fn run_wire_roundtrips_every_sched_and_override() {
        let mut wdp = BenchRun::minnow_wdp(WorkloadKind::Sssp, 8);
        wdp.scale = 0.1;
        wdp.seed = derive_seed(42, "SSSP"); // a genuine 64-bit value
        wdp.channels = Some(4);
        wdp.rob = Some(64);
        wdp.l2 = Some((8 * 1024, 8));
        let mut engine = EngineParams::paper();
        engine.local_queue = 16;
        engine.refill_threshold = 8;
        wdp.engine = Some(engine);
        let back = roundtrip(&wdp);
        assert_eq!(back.seed, wdp.seed, "seeds survive exactly");
        assert_eq!(back.scale, wdp.scale);
        assert_eq!(back.l2, wdp.l2);

        roundtrip(&BenchRun::software_default(WorkloadKind::Bfs, 4));
        roundtrip(&BenchRun::minnow(WorkloadKind::Cc, 2));
        roundtrip(&BenchRun::new(
            WorkloadKind::Pr,
            2,
            SchedSpec::MinnowWithHw(HwKind::Imp),
        ));
        roundtrip(&BenchRun::new(WorkloadKind::Bc, 2, SchedSpec::Bsp(Some(3))));
        let mut serial = BenchRun::software_default(WorkloadKind::G500, 1);
        serial.serial_baseline = true;
        roundtrip(&serial);
        let mut file = BenchRun::minnow(WorkloadKind::Bfs, 2);
        file.input = Some(InputSpec::new("graphs/road.mcsr"));
        assert_eq!(
            roundtrip(&file).input,
            Some(InputSpec::new("graphs/road.mcsr"))
        );
    }

    #[test]
    fn every_software_policy_crosses_the_wire() {
        for policy in [
            PolicyKind::Fifo,
            PolicyKind::Lifo,
            PolicyKind::Chunked(16),
            PolicyKind::Obim(0),
            PolicyKind::Obim(3),
            PolicyKind::Strict,
        ] {
            let run = BenchRun::new(WorkloadKind::Bfs, 2, SchedSpec::Software(policy));
            let back = roundtrip(&run);
            assert!(
                matches!(back.sched, SchedSpec::Software(p) if p == policy),
                "{}",
                policy.label()
            );
        }
    }

    #[test]
    fn rejects_unknown_software_policies_and_junk() {
        let run = BenchRun::software_default(WorkloadKind::Bfs, 2);
        let wire = run_to_json(&run);
        for bad in [
            "definitely-not",
            "chunked(0)",
            "chunked(1000000000000)",
            "obim(64)",
            "OBIM(3)",
        ] {
            let label = match &run.sched {
                SchedSpec::Software(p) => p.label(),
                _ => unreachable!(),
            };
            let tampered = wire.replace(
                &format!("\"policy\":\"{label}\""),
                &format!("\"policy\":\"{bad}\""),
            );
            assert_ne!(tampered, wire);
            let doc = Json::parse(&tampered).unwrap();
            assert_eq!(
                run_from_json(&doc).err(),
                Some(format!("unknown software policy `{bad}`"))
            );
        }
        let doc = Json::parse("{\"workload\":\"WAT\"}").unwrap();
        assert!(run_from_json(&doc).is_err());
    }

    #[test]
    fn bsp_bucket_shifts_of_64_or_more_are_refused() {
        let wire = |lg: &str| {
            let run = BenchRun::new(WorkloadKind::Sssp, 2, SchedSpec::Bsp(Some(3)));
            let wire = run_to_json(&run).replace("\"lg\":3", &format!("\"lg\":{lg}"));
            run_from_json(&Json::parse(&wire).unwrap())
        };
        assert!(matches!(wire("63").unwrap().sched, SchedSpec::Bsp(Some(63))));
        for lg in ["64", "4294967296"] {
            assert_eq!(wire(lg).err().as_deref(), Some("`lg` out of range"), "{lg}");
        }
    }

    #[test]
    fn eval_report_roundtrips_and_matches_run_report() {
        let mut run = BenchRun::minnow_wdp(WorkloadKind::Bfs, 2);
        run.scale = 0.03;
        let full = run.execute();
        let flat = EvalReport::from_report(&full);
        assert_eq!(flat.makespan, full.makespan);
        assert_eq!(flat.mpki(), full.mpki());
        assert_eq!(flat.prefetch_efficiency(), full.prefetch_efficiency());
        assert_eq!(
            flat.bins.iter().sum::<u64>(),
            full.makespan * flat.cores,
            "accounting stays closed through the flattening"
        );
        let doc = Json::parse(&flat.fields(JsonObject::new()).finish()).unwrap();
        assert_eq!(EvalReport::from_json(&doc).unwrap(), flat);
    }

    #[test]
    fn local_evaluator_answers_in_request_order() {
        let mut runs = Vec::new();
        for (i, kind) in [WorkloadKind::Bfs, WorkloadKind::Cc].into_iter().enumerate() {
            let mut run = BenchRun::minnow(kind, 2);
            run.scale = 0.02;
            runs.push(EvalRequest {
                id: format!("p{i}"),
                run,
            });
        }
        let mut local = LocalEvaluator::serial();
        local.pool_threads = 2;
        let out = local.evaluate(runs).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, "p0");
        assert_eq!(out[1].id, "p1");
        assert!(out.iter().all(|r| !r.cached && r.report.tasks > 0));
    }
}
