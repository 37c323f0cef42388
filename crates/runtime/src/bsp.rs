//! GraphMat-like bulk-synchronous engine (the paper's §3.1 baseline).
//!
//! GraphMat "processes all active nodes in parallel, generates the next set
//! of active nodes, and repeats until convergence" — an unordered BSP model
//! built on sparse-matrix sweeps. Its per-task overhead is *lower* than a
//! dynamic worklist (no queue operations, sequential frontier sweeps), which
//! is why it wins on unordered workloads (G500, PR in Fig. 2), but it cannot
//! exploit priority ordering, which is why Galois+OBIM beats it by 100x+ on
//! SSSP.
//!
//! The bucketed mode reproduces `GMat*` (the Delta-Stepping kernel the
//! GraphMat authors wrote for the paper): one full kernel execution per
//! priority bucket, paying the full sweep overhead every superstep — hence
//! its much larger optimal bucket interval and modest ~2x gain.

use std::collections::{BTreeMap, HashMap};

use minnow_sim::config::SimConfig;
use minnow_sim::core::{CoreMode, CoreModel};
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::MemoryHierarchy;
use minnow_sim::stats::{CycleAccounting, CycleBin};
use minnow_sim::trace::{TraceEvent, Tracer};

use crate::op::Operator;
use crate::scratch::{charge_task, ChargeCounters, TaskScratch};
use crate::sim_exec::{Breakdown, RunReport};
use crate::task::Task;

/// BSP engine configuration.
#[derive(Debug, Clone)]
pub struct BspConfig {
    /// Worker threads.
    pub threads: usize,
    /// Machine description.
    pub sim: SimConfig,
    /// Core idealization.
    pub core_mode: CoreMode,
    /// `None` = unordered GraphMat; `Some(lg)` = bucketed `GMat*` with one
    /// kernel per priority bucket of width `2^lg`.
    pub lg_bucket_interval: Option<u32>,
    /// Abort after this many supersteps (timeout guard).
    pub superstep_limit: u64,
    /// Count atomics as stores (serial baseline comparisons).
    pub serial_baseline: bool,
    /// Structured event sink (disabled by default; the BSP engine owns
    /// its hierarchy, so the tracer is injected through the config).
    pub tracer: Tracer,
}

impl BspConfig {
    /// Unordered GraphMat on a scaled machine.
    pub fn new(threads: usize) -> Self {
        BspConfig {
            threads,
            sim: SimConfig::scaled(threads.max(1), 16),
            core_mode: CoreMode::realistic(),
            lg_bucket_interval: None,
            superstep_limit: 200_000,
            serial_baseline: false,
            tracer: Tracer::disabled(),
        }
    }

    /// Bucketed `GMat*` mode.
    pub fn bucketed(threads: usize, lg_bucket_interval: u32) -> Self {
        let mut cfg = BspConfig::new(threads);
        cfg.lg_bucket_interval = Some(lg_bucket_interval);
        cfg
    }
}

/// Per-superstep fixed overhead: kernel launch + barrier.
fn barrier_cost(threads: usize) -> Cycle {
    800 + 12 * threads as Cycle
}

/// Per-superstep frontier sweep: GraphMat scans the active-vertex bitmap.
fn sweep_cost(nodes: usize, threads: usize) -> Cycle {
    // ~3 instructions per 64-node bitmap word at IPC 4, divided over threads.
    ((nodes as u64 / 64 + 1) * 3 / 4 / threads as u64).max(1)
}

/// Runs `op` under the BSP engine.
pub fn run_bsp(op: &mut dyn Operator, cfg: &BspConfig) -> RunReport {
    assert!(cfg.threads >= 1, "need at least one thread");
    let mut mem = MemoryHierarchy::new(&cfg.sim);
    mem.set_tracer(cfg.tracer.clone());
    let tracer = cfg.tracer.clone();
    let mut accounting = CycleAccounting::new(cfg.threads);
    let core_model = CoreModel::new(cfg.sim.ooo, cfg.core_mode, cfg.sim.branch_mispredict_rate);
    let map = op.address_map();
    let nodes = op.graph().nodes();

    // Buckets of pending frontiers; unordered mode uses a single bucket 0.
    let mut buckets: BTreeMap<u64, Vec<Task>> = BTreeMap::new();
    let bucket_of = |t: &Task| match cfg.lg_bucket_interval {
        Some(lg) => t.priority >> lg,
        None => 0,
    };
    for t in op.initial_tasks() {
        buckets.entry(bucket_of(&t)).or_default().push(t);
    }

    let mut report = RunReport {
        makespan: 0,
        tasks: 0,
        instructions: 0,
        breakdown: Breakdown::default(),
        timed_out: false,
        sched: Default::default(),
        l2_misses: 0,
        mem_accesses: 0,
        delinquent_loads: 0,
        total_loads: 0,
        prefetch_fills: 0,
        prefetch_used: 0,
        supersteps: 0,
        accounting: CycleAccounting::new(0),
    };
    let mut now: Cycle = 0;
    let mut scratch = TaskScratch::new(map, cfg.serial_baseline);
    let mut counters = ChargeCounters::default();

    while let Some((&bucket, _)) = buckets.iter().next() {
        // One full kernel execution drains this bucket to convergence.
        let mut frontier = buckets.remove(&bucket).unwrap_or_default();
        while !frontier.is_empty() {
            if report.supersteps >= cfg.superstep_limit {
                report.timed_out = true;
                report.makespan = now;
                report.delinquent_loads = counters.delinquent_loads;
                report.total_loads = counters.total_loads;
                return finish(report, &mut mem, cfg.threads, accounting);
            }
            report.supersteps += 1;
            let superstep_start = now;
            let frontier_size = frontier.len() as u64;

            // GraphMat processes each active node once per superstep.
            frontier.sort_unstable_by_key(|t| t.node);
            frontier.dedup_by_key(|t| t.node);

            let mut clocks = vec![now; cfg.threads];
            let mut next: HashMap<u32, Task> = HashMap::new();
            for (i, task) in frontier.iter().enumerate() {
                let thread = i % cfg.threads;
                scratch.begin_task();
                op.execute(*task, &mut scratch.ctx);
                // GraphMat's vertex-program overhead per active node.
                scratch.ctx.add_instrs(8);

                let t0 = clocks[thread];
                let cycles = charge_task(
                    &mut scratch,
                    &mut mem,
                    &core_model,
                    thread,
                    t0,
                    &mut None,
                    &mut counters,
                );
                clocks[thread] += cycles.total();
                accounting.charge(thread, CycleBin::Useful, cycles.compute);
                accounting.charge(thread, CycleBin::Memory, cycles.memory);
                accounting.charge(thread, CycleBin::Fence, cycles.fence);
                accounting.charge(thread, CycleBin::Branch, cycles.branch);
                report.instructions += scratch.ctx.instrs();
                report.tasks += 1;
                tracer.emit(|| {
                    TraceEvent::complete("execute", "task", thread as u32, t0, cycles.total())
                        .with_arg("node", task.node as u64)
                        .with_arg("memory", cycles.memory)
                        .with_arg("fence", cycles.fence)
                        .with_arg("branch", cycles.branch)
                });

                for p in 0..scratch.ctx.pushes().len() {
                    let pushed = scratch.ctx.pushes()[p];
                    let b = bucket_of(&pushed);
                    if b <= bucket {
                        // Same (or more urgent, clamped) bucket: next sweep
                        // of this kernel.
                        next.entry(pushed.node)
                            .and_modify(|t| t.priority = t.priority.min(pushed.priority))
                            .or_insert(pushed);
                    } else {
                        buckets.entry(b).or_default().push(pushed);
                    }
                }
            }

            let busiest = clocks.iter().copied().max().unwrap_or(now);
            // Threads that finished their share early wait at the
            // barrier: superstep load imbalance is idle time.
            for (t, &c) in clocks.iter().enumerate() {
                accounting.charge(t, CycleBin::Idle, busiest - c);
            }
            let sweep = sweep_cost(nodes, cfg.threads) + barrier_cost(cfg.threads);
            for t in 0..cfg.threads {
                accounting.charge(t, CycleBin::Worklist, sweep);
            }
            now = busiest + sweep;
            frontier = next.into_values().collect();
            tracer.emit(|| {
                TraceEvent::complete("superstep", "bsp", 0, superstep_start, now - superstep_start)
                    .with_arg("frontier", frontier_size)
                    .with_arg("bucket", bucket)
            });
        }
    }

    report.makespan = now;
    report.delinquent_loads = counters.delinquent_loads;
    report.total_loads = counters.total_loads;
    finish(report, &mut mem, cfg.threads, accounting)
}

fn finish(
    mut report: RunReport,
    mem: &mut MemoryHierarchy,
    threads: usize,
    mut accounting: CycleAccounting,
) -> RunReport {
    accounting.close(report.makespan);
    report.breakdown = Breakdown {
        useful: accounting.bin_total(CycleBin::Useful),
        worklist: accounting.bin_total(CycleBin::Worklist),
        memory: accounting.bin_total(CycleBin::Memory),
        fence: accounting.bin_total(CycleBin::Fence),
        branch: accounting.bin_total(CycleBin::Branch),
    };
    report.accounting = accounting;
    let total = mem.total_stats();
    report.l2_misses = total.l2_misses;
    report.mem_accesses = total.accesses;
    for core in 0..threads {
        let s = mem.l2_cache(core).stats();
        report.prefetch_fills += s.prefetch_fills.get();
        report.prefetch_used += s.prefetch_used.get();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{PrefetchKind, TaskCtx};
    use crate::worklist::PolicyKind;
    use minnow_graph::gen::grid::{self, GridConfig};
    use minnow_graph::Csr;
    use std::sync::Arc;

    /// Same toy BFS as the executor tests.
    #[derive(Debug)]
    struct ToyBfs {
        graph: Arc<Csr>,
        dist: Vec<u64>,
    }

    impl Operator for ToyBfs {
        fn name(&self) -> &'static str {
            "toy-bfs"
        }
        fn graph(&self) -> &Arc<Csr> {
            &self.graph
        }
        fn initial_tasks(&self) -> Vec<Task> {
            vec![Task::new(0, 0)]
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
            }
            let d = self.dist[v as usize];
            for (e, n, _) in self.graph.clone().edges_of(v) {
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
    }

    fn toy(graph: Arc<Csr>) -> ToyBfs {
        let n = graph.nodes();
        let mut t = ToyBfs {
            graph,
            dist: vec![u64::MAX; n],
        };
        t.dist[0] = 0;
        t
    }

    #[test]
    fn bsp_computes_correct_bfs() {
        let g = Arc::new(grid::generate(&GridConfig::new(10, 10), 3));
        let mut op = toy(g.clone());
        let report = run_bsp(&mut op, &BspConfig::new(4));
        assert!(!report.timed_out);
        let (levels, _, _) = minnow_graph::stats::bfs_levels(&g, 0);
        for (v, &l) in levels.iter().enumerate() {
            assert_eq!(op.dist[v], l as u64, "node {v}");
        }
        // BFS on a 10x10 grid needs diameter+1 supersteps.
        assert!(report.supersteps >= 18, "supersteps {}", report.supersteps);
    }

    #[test]
    fn superstep_limit_times_out() {
        let g = Arc::new(grid::generate(&GridConfig::new(20, 20), 3));
        let mut op = toy(g);
        let mut cfg = BspConfig::new(2);
        cfg.superstep_limit = 3;
        let report = run_bsp(&mut op, &cfg);
        assert!(report.timed_out);
    }

    #[test]
    fn bucketed_mode_runs_kernel_per_bucket() {
        let g = Arc::new(grid::generate(&GridConfig::new(10, 10), 3));
        let mut op = toy(g.clone());
        let unordered = run_bsp(&mut op, &BspConfig::new(2));
        let mut op2 = toy(g);
        let bucketed = run_bsp(&mut op2, &BspConfig::bucketed(2, 2));
        // Bucketed BFS executes at least as many supersteps (one kernel per
        // hop-distance bucket) but fewer wasted task executions.
        assert!(bucketed.supersteps >= unordered.supersteps / 2);
        assert!(bucketed.tasks <= unordered.tasks);
    }

    #[test]
    fn more_threads_speed_up_bsp() {
        let g = Arc::new(grid::generate(&GridConfig::new(16, 16), 3));
        let mut a = toy(g.clone());
        let r1 = run_bsp(&mut a, &BspConfig::new(1));
        let mut b = toy(g);
        let r4 = run_bsp(&mut b, &BspConfig::new(4));
        assert!(r4.makespan < r1.makespan);
    }
}
