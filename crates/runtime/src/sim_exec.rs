//! The simulated parallel executor.
//!
//! Drives an [`Operator`] over N hardware threads in *virtual time*: each
//! thread has its own cycle clock, and the executor always advances the
//! thread with the smallest clock, so shared-state updates commit in a
//! globally consistent order (Galois operators are cautious/atomic, so
//! executing a whole task at its dequeue time is a legal linearization).
//!
//! Per task the executor:
//!
//! 1. pays the scheduler's dequeue cost (software worklist or Minnow engine),
//! 2. runs the operator functionally, recording its memory trace,
//! 3. charges the trace against the [`MemoryHierarchy`] (real cache/NoC/DRAM
//!    behaviour) and folds the resolved latencies through the analytic
//!    [`CoreModel`],
//! 4. pays the enqueue cost for every pushed task (after task splitting).
//!
//! The per-component cycle accounting reproduces the paper's Fig. 5
//! breakdown; the scheduler stats reproduce Fig. 11; the hierarchy stats
//! reproduce Fig. 18/20.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use minnow_sim::config::SimConfig;
use minnow_sim::core::{CoreMode, CoreModel};
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::MemoryHierarchy;
use minnow_sim::observer::{HwPrefetcher, MemoryImage};
use minnow_sim::stats::{CycleAccounting, CycleBin};
use minnow_sim::trace::TraceEvent;

use crate::op::Operator;
use crate::sched::{SchedStats, SchedulerModel, SoftwareScheduler};
use crate::scratch::{charge_task, ChargeCounters, TaskScratch};
use crate::split::split_task_into;
use crate::worklist::PolicyKind;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (= cores; one thread per core as in the paper).
    pub threads: usize,
    /// Machine description.
    pub sim: SimConfig,
    /// Core idealization (Fig. 4 sweeps this).
    pub core_mode: CoreMode,
    /// Task splitting threshold in edges; `None` disables splitting.
    pub split_threshold: Option<u32>,
    /// Abort the run after this many tasks (the Fig. 3 "timed out" bars).
    pub task_limit: u64,
    /// Idle poll interval when the worklist is momentarily empty.
    pub poll_interval: Cycle,
    /// Serial-baseline mode: atomics are counted as plain stores
    /// (paper §6.3.1).
    pub serial_baseline: bool,
}

impl ExecConfig {
    /// A scaled machine with the given thread count and paper-default knobs.
    pub fn new(threads: usize) -> Self {
        ExecConfig {
            threads,
            sim: SimConfig::scaled(threads.max(1), 16),
            core_mode: CoreMode::realistic(),
            split_threshold: Some(crate::split::PAPER_SPLIT_THRESHOLD),
            task_limit: 3_000_000,
            poll_interval: 200,
            serial_baseline: false,
        }
    }

    /// The optimized serial software baseline (1 thread, atomics removed).
    pub fn serial() -> Self {
        let mut cfg = ExecConfig::new(1);
        cfg.serial_baseline = true;
        cfg
    }
}

/// Where the cycles of a run went (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Issue-limited useful compute.
    pub useful: u64,
    /// Worklist operations (instructions + serialization + line ping-pong).
    pub worklist: u64,
    /// Memory stalls on task data.
    pub memory: u64,
    /// Atomic/fence serialization.
    pub fence: u64,
    /// Branch misprediction penalties.
    pub branch: u64,
}

impl Breakdown {
    /// Total busy cycles across threads.
    pub fn total(&self) -> u64 {
        self.useful + self.worklist + self.memory + self.fence + self.branch
    }

    /// Fraction of busy cycles in a component.
    pub fn fraction(&self, component: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            component as f64 / t as f64
        }
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock cycles from start to last task completion.
    pub makespan: Cycle,
    /// Tasks executed.
    pub tasks: u64,
    /// Dynamic instructions (operator + scheduler code).
    pub instructions: u64,
    /// Busy-cycle breakdown.
    pub breakdown: Breakdown,
    /// The run hit [`ExecConfig::task_limit`] before draining.
    pub timed_out: bool,
    /// Scheduler-side statistics.
    pub sched: SchedStats,
    /// Demand L2 misses summed over cores.
    pub l2_misses: u64,
    /// Demand accesses summed over cores.
    pub mem_accesses: u64,
    /// Delinquent loads observed (first touches that left the L1).
    pub delinquent_loads: u64,
    /// Total loads (delinquent + ordinary).
    pub total_loads: u64,
    /// Prefetch fills into L2s (Minnow/IMP/stride runs).
    pub prefetch_fills: u64,
    /// Prefetched lines consumed before eviction.
    pub prefetch_used: u64,
    /// Bulk-synchronous supersteps (0 for asynchronous executors).
    pub supersteps: u64,
    /// Closed per-core cycle accounting: every cycle of every core up
    /// to the makespan lands in exactly one [`CycleBin`]. The
    /// [`Breakdown`] is derived from it (busy bins only); this field
    /// additionally exposes per-core detail plus the Idle and Drain
    /// bins that make the books balance.
    pub accounting: CycleAccounting,
}

impl RunReport {
    /// L2 misses per kilo-instruction (Fig. 18's metric).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Delinquent-load density (Fig. 6's metric).
    pub fn delinquent_density(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.delinquent_loads as f64 / self.total_loads as f64
        }
    }

    /// Prefetch efficiency (Fig. 20's metric).
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetch_fills == 0 {
            1.0
        } else {
            self.prefetch_used as f64 / self.prefetch_fills as f64
        }
    }

    /// Mean cycles between consecutive worklist operations per thread
    /// (Fig. 11's metric).
    pub fn op_interval(&self, threads: usize) -> f64 {
        let ops = self.sched.enqueues + self.sched.dequeues;
        if ops == 0 {
            0.0
        } else {
            self.makespan as f64 * threads as f64 / ops as f64
        }
    }
}

/// Runs `op` to completion under `sched` on `mem`.
pub fn run(
    op: &mut dyn Operator,
    sched: &mut dyn SchedulerModel,
    mem: &mut MemoryHierarchy,
    cfg: &ExecConfig,
) -> RunReport {
    run_with_prefetcher(op, sched, mem, None, cfg)
}

/// Like [`run`], with an optional table-based hardware prefetcher snooping
/// every demand load (the paper's Fig. 17 stride/IMP comparison).
pub fn run_with_prefetcher(
    op: &mut dyn Operator,
    sched: &mut dyn SchedulerModel,
    mem: &mut MemoryHierarchy,
    mut hw_prefetcher: Option<(&mut dyn HwPrefetcher, &dyn MemoryImage)>,
    cfg: &ExecConfig,
) -> RunReport {
    assert!(cfg.threads >= 1, "need at least one thread");
    assert!(
        cfg.threads <= mem.cores(),
        "more threads than simulated cores"
    );
    let core_model = CoreModel::new(
        cfg.sim.ooo,
        cfg.core_mode,
        cfg.sim.branch_mispredict_rate,
    );
    let graph = op.graph().clone();
    let map = op.address_map();
    let split_threshold = if op.supports_splitting() {
        cfg.split_threshold
    } else {
        None
    };

    sched.seed(op.initial_tasks());

    let tracer = mem.tracer().clone();
    let mut accounting = CycleAccounting::new(cfg.threads);
    let mut clock = vec![0 as Cycle; cfg.threads];
    // Index min-heap over thread clocks, keyed `(clock, thread-id)`. The
    // previous linear scan chose the smallest clock with a strict `<`
    // compare, i.e. the lowest thread id among tied minima — exactly the
    // order a `(clock, tid)` min-heap pops, so the linearization (and every
    // simulated cycle) is unchanged. Each thread is in the heap exactly
    // once; the capacity never grows past `threads`.
    let mut ready: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        ready.push(Reverse((0, t)));
    }
    let mut scratch = TaskScratch::new(map, cfg.serial_baseline);
    let mut counters = ChargeCounters::default();
    let mut report = RunReport {
        makespan: 0,
        tasks: 0,
        instructions: 0,
        breakdown: Breakdown::default(),
        timed_out: false,
        sched: SchedStats::default(),
        l2_misses: 0,
        mem_accesses: 0,
        delinquent_loads: 0,
        total_loads: 0,
        prefetch_fills: 0,
        prefetch_used: 0,
        supersteps: 0,
        accounting: CycleAccounting::new(0),
    };

    'outer: loop {
        // Advance the thread with the smallest clock.
        let Reverse((now, idx)) = ready.pop().expect("one entry per thread");
        debug_assert_eq!(now, clock[idx]);
        sched.tick(now, mem);

        let deq = sched.dequeue(idx, now, mem);
        clock[idx] += deq.cost;
        accounting.charge(idx, CycleBin::Worklist, deq.cost);

        let Some(task) = deq.task else {
            if sched.pending() == 0 {
                // No pending tasks and no thread is mid-task (tasks commit
                // atomically at dequeue time): global termination.
                break 'outer;
            }
            accounting.charge(idx, CycleBin::Idle, cfg.poll_interval);
            tracer.emit(|| {
                TraceEvent::complete("poll", "sched", idx as u32, clock[idx], cfg.poll_interval)
            });
            clock[idx] += cfg.poll_interval;
            ready.push(Reverse((clock[idx], idx)));
            continue;
        };
        tracer.emit(|| {
            TraceEvent::complete("dequeue", "sched", idx as u32, now, deq.cost)
                .with_arg("node", task.node as u64)
        });

        // ---- execute the task functionally, recording its trace ----
        scratch.begin_task();
        op.execute(task, &mut scratch.ctx);

        // ---- charge recorded accesses against the hierarchy ----
        let t0 = clock[idx];
        let cycles = charge_task(
            &mut scratch,
            mem,
            &core_model,
            idx,
            t0,
            &mut hw_prefetcher,
            &mut counters,
        );
        clock[idx] += cycles.total();
        accounting.charge(idx, CycleBin::Useful, cycles.compute);
        accounting.charge(idx, CycleBin::Memory, cycles.memory);
        accounting.charge(idx, CycleBin::Fence, cycles.fence);
        accounting.charge(idx, CycleBin::Branch, cycles.branch);
        report.instructions += scratch.ctx.instrs();
        tracer.emit(|| {
            TraceEvent::complete("execute", "task", idx as u32, t0, cycles.total())
                .with_arg("node", task.node as u64)
                .with_arg("memory", cycles.memory)
                .with_arg("fence", cycles.fence)
                .with_arg("branch", cycles.branch)
        });

        // ---- enqueue follow-up tasks (with splitting) ----
        for p in 0..scratch.ctx.pushes().len() {
            let pushed = scratch.ctx.pushes()[p];
            scratch.parts.clear();
            match split_threshold {
                Some(th) => {
                    let degree = graph.out_degree(pushed.node);
                    split_task_into(pushed, degree, th, &mut scratch.parts);
                }
                None => scratch.parts.push(pushed),
            }
            for i in 0..scratch.parts.len() {
                let part = scratch.parts[i];
                let at = clock[idx];
                let cost = sched.enqueue(idx, part, at, mem);
                clock[idx] += cost;
                accounting.charge(idx, CycleBin::Worklist, cost);
                tracer.emit(|| {
                    TraceEvent::complete("enqueue", "sched", idx as u32, at, cost)
                        .with_arg("node", part.node as u64)
                });
            }
        }

        report.tasks += 1;
        tracer.emit(|| {
            TraceEvent::instant("retire", "task", idx as u32, clock[idx])
                .with_arg("node", task.node as u64)
        });
        if report.tasks >= cfg.task_limit {
            report.timed_out = true;
            break 'outer;
        }
        ready.push(Reverse((clock[idx], idx)));
    }

    report.delinquent_loads = counters.delinquent_loads;
    report.total_loads = counters.total_loads;
    report.makespan = clock.iter().copied().max().unwrap_or(0);
    accounting.close(report.makespan);
    report.breakdown = Breakdown {
        useful: accounting.bin_total(CycleBin::Useful),
        worklist: accounting.bin_total(CycleBin::Worklist),
        memory: accounting.bin_total(CycleBin::Memory),
        fence: accounting.bin_total(CycleBin::Fence),
        branch: accounting.bin_total(CycleBin::Branch),
    };
    report.accounting = accounting;
    report.sched = sched.stats();
    report.instructions += report.sched.instrs;
    let total = mem.total_stats();
    report.l2_misses = total.l2_misses;
    report.mem_accesses = total.accesses;
    for core in 0..cfg.threads {
        let s = mem.l2_cache(core).stats();
        report.prefetch_fills += s.prefetch_fills.get();
        report.prefetch_used += s.prefetch_used.get();
    }
    report
}

/// Convenience wrapper: runs `op` under the software scheduler with the
/// given policy on a fresh hierarchy.
pub fn run_software(op: &mut dyn Operator, policy: PolicyKind, cfg: &ExecConfig) -> RunReport {
    let mut mem = MemoryHierarchy::new(&cfg.sim);
    let mut sched = SoftwareScheduler::new(policy.build(), cfg.threads);
    run(op, &mut sched, &mut mem, cfg)
}

/// Runs the optimized serial baseline (1 thread, atomics demoted) and
/// returns its makespan — the denominator of the paper's Fig. 15 speedups.
pub fn serial_baseline_cycles(op: &mut dyn Operator, policy: PolicyKind) -> Cycle {
    let cfg = ExecConfig::serial();
    run_software(op, policy, &cfg).makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{PrefetchKind, TaskCtx};
    use crate::task::Task;
    use minnow_graph::gen::grid::{self, GridConfig};
    use minnow_graph::Csr;
    use std::sync::Arc;

    /// A toy BFS-like operator used to exercise the executor.
    #[derive(Debug)]
    struct ToyBfs {
        graph: Arc<Csr>,
        dist: Vec<u64>,
        src: u32,
    }

    impl ToyBfs {
        fn new(graph: Arc<Csr>, src: u32) -> Self {
            let n = graph.nodes();
            ToyBfs {
                graph,
                dist: vec![u64::MAX; n],
                src,
            }
        }
    }

    impl Operator for ToyBfs {
        fn name(&self) -> &'static str {
            "toy-bfs"
        }
        fn graph(&self) -> &Arc<Csr> {
            &self.graph
        }
        fn initial_tasks(&self) -> Vec<Task> {
            vec![Task::new(0, self.src)]
        }
        fn default_policy(&self) -> PolicyKind {
            PolicyKind::Obim(0)
        }
        fn prefetch_kind(&self) -> PrefetchKind {
            PrefetchKind::Standard
        }
        fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
            let v = task.node;
            ctx.load_node(v);
            ctx.add_instrs(10);
            if self.dist[v as usize] > task.priority {
                self.dist[v as usize] = task.priority;
                ctx.store_node(v);
            } else if self.dist[v as usize] < task.priority {
                return; // stale task: a better distance already propagated
            }
            let d = self.dist[v as usize];
            let range = task.resolve_range(self.graph.out_degree(v));
            let graph = self.graph.clone();
            let base = graph.edge_range(v).start;
            for slot in range {
                let e = base + slot;
                let n = graph.edge_dst(e);
                ctx.load_edge(e, n);
                ctx.load_node(n);
                ctx.add_branches(1);
                ctx.add_instrs(8);
                if self.dist[n as usize] > d + 1 {
                    self.dist[n as usize] = d + 1;
                    ctx.atomic_node(n);
                    ctx.push(Task::new(d + 1, n));
                }
            }
        }
        fn check(&self) -> Result<(), String> {
            // On a connected graph every node must be reached.
            if self.dist.contains(&u64::MAX) {
                return Err("unreached nodes".into());
            }
            Ok(())
        }
    }

    fn toy_graph() -> Arc<Csr> {
        Arc::new(grid::generate(&GridConfig::new(12, 12), 7))
    }

    #[test]
    fn executor_drains_and_computes_bfs() {
        let g = toy_graph();
        let mut op = ToyBfs::new(g.clone(), 0);
        let cfg = ExecConfig::new(4);
        let report = run_software(&mut op, PolicyKind::Obim(0), &cfg);
        assert!(!report.timed_out);
        assert!(report.tasks as usize >= g.nodes());
        op.check().unwrap();
        // Distances match true BFS levels.
        let (levels, _, _) = minnow_graph::stats::bfs_levels(&g, 0);
        for (v, &l) in levels.iter().enumerate() {
            assert_eq!(op.dist[v], l as u64, "node {v}");
        }
        assert!(report.makespan > 0);
        assert!(report.breakdown.total() > 0);
        assert!(report.instructions > 0);
    }

    #[test]
    fn more_threads_reduce_makespan() {
        let g = toy_graph();
        let mut op1 = ToyBfs::new(g.clone(), 0);
        let r1 = run_software(&mut op1, PolicyKind::Obim(0), &ExecConfig::new(1));
        let mut op4 = ToyBfs::new(g, 0);
        let r4 = run_software(&mut op4, PolicyKind::Obim(0), &ExecConfig::new(4));
        assert!(
            r4.makespan < r1.makespan,
            "4 threads {} must beat 1 thread {}",
            r4.makespan,
            r1.makespan
        );
    }

    #[test]
    fn priority_policy_does_less_work_than_lifo() {
        let g = toy_graph();
        let mut op_pri = ToyBfs::new(g.clone(), 0);
        let r_pri = run_software(&mut op_pri, PolicyKind::Obim(0), &ExecConfig::new(2));
        let mut op_lifo = ToyBfs::new(g, 0);
        let r_lifo = run_software(&mut op_lifo, PolicyKind::Lifo, &ExecConfig::new(2));
        assert!(
            r_lifo.tasks >= r_pri.tasks,
            "LIFO work {} must be >= ordered work {}",
            r_lifo.tasks,
            r_pri.tasks
        );
    }

    #[test]
    fn task_limit_reports_timeout() {
        let g = toy_graph();
        let mut op = ToyBfs::new(g, 0);
        let mut cfg = ExecConfig::new(2);
        cfg.task_limit = 10;
        let report = run_software(&mut op, PolicyKind::Fifo, &cfg);
        assert!(report.timed_out);
        assert_eq!(report.tasks, 10);
    }

    #[test]
    fn report_metrics_are_consistent() {
        let g = toy_graph();
        let mut op = ToyBfs::new(g, 0);
        let report = run_software(&mut op, PolicyKind::Obim(0), &ExecConfig::new(2));
        assert!(report.mpki() > 0.0, "cold caches must miss");
        let d = report.delinquent_density();
        assert!(d > 0.0 && d < 0.5, "density {d}");
        assert!(report.op_interval(2) > 0.0);
        assert_eq!(report.prefetch_fills, 0);
        assert_eq!(report.prefetch_efficiency(), 1.0);
    }

    #[test]
    fn serial_baseline_runs() {
        let g = toy_graph();
        let mut op = ToyBfs::new(g, 0);
        let cycles = serial_baseline_cycles(&mut op, PolicyKind::Obim(0));
        assert!(cycles > 0);
    }
}

