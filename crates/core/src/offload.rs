//! Worklist offload: the Minnow scheduler (paper §5.2, Fig. 13).
//!
//! Workers see only accelerator calls: `minnow_enqueue` is a fire-and-forget
//! store (a few cycles), `minnow_dequeue` hits the engine's local queue in
//! 10 cycles. Everything else — spilling low-priority tasks to the software
//! global OBIM worklist, proactively refilling the local queue, and
//! worklist-directed prefetching — happens on the engines' own timelines
//! through their core's L2, so scheduling leaves the worker's critical path.
//!
//! [`MinnowScheduler`] implements the runtime's
//! [`SchedulerModel`], making it a drop-in replacement for the software
//! scheduler in every experiment.

use std::sync::Arc;

use minnow_graph::{layout, AddressMap, Csr};
use minnow_runtime::sched::{DequeueOutcome, SchedStats, SchedulerModel};
use minnow_runtime::worklist::{Obim, Worklist};
use minnow_runtime::{PrefetchKind, Task};
use minnow_sim::config::EngineParams;
use minnow_sim::contend::SharedResource;
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::{AccessKind, MemoryHierarchy};

use crate::engine::{Engine, EngineStats};
use crate::wdp::ProgramScratch;

/// Worker-side cost of a fire-and-forget accelerator call.
const ACCEL_CALL: Cycle = 3;
/// Worker-side instructions per accelerator call.
const ACCEL_INSTRS: u64 = 2;
/// Engine instructions per global-worklist operation (in-order, IPC 1).
const ENGINE_OP_WORK: Cycle = 30;

/// Minnow scheduler configuration.
#[derive(Debug, Clone)]
pub struct MinnowConfig {
    /// OBIM bucket interval exponent programmed into the engines.
    pub lg_bucket_interval: u32,
    /// Engine hardware parameters.
    pub engine: EngineParams,
    /// Worklist-directed prefetching credits; `None` disables prefetching.
    pub prefetch_credits: Option<u32>,
    /// Maximum tasks streamed per refill.
    pub refill_batch: usize,
    /// Cores sharing one engine (paper §4: "Cores may share a single Minnow
    /// engine to reduce resources"). Shared engines offload the worklist for
    /// their whole group but cannot prefetch (they attach to one L2);
    /// `prefetch_credits` must be `None` when this exceeds 1.
    pub cores_per_engine: usize,
}

impl MinnowConfig {
    /// The paper's evaluated configuration (64-entry local queue, 32
    /// credits) with the given bucket interval.
    pub fn paper(lg_bucket_interval: u32) -> Self {
        MinnowConfig {
            lg_bucket_interval,
            engine: EngineParams::paper(),
            prefetch_credits: Some(32),
            refill_batch: 16,
            cores_per_engine: 1,
        }
    }

    /// A shared-engine configuration: `cores_per_engine` cores per engine,
    /// prefetching disabled (paper §4's resource-reduction option).
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_engine == 0`.
    pub fn shared(lg_bucket_interval: u32, cores_per_engine: usize) -> Self {
        assert!(cores_per_engine > 0, "need at least one core per engine");
        let mut cfg = MinnowConfig::no_prefetch(lg_bucket_interval);
        cfg.cores_per_engine = cores_per_engine;
        cfg
    }

    /// Same, with worklist-directed prefetching disabled (the paper's
    /// "Minnow without prefetching" configuration).
    pub fn no_prefetch(lg_bucket_interval: u32) -> Self {
        let mut cfg = MinnowConfig::paper(lg_bucket_interval);
        cfg.prefetch_credits = None;
        cfg
    }
}

/// Aggregated engine-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinnowStats {
    /// Sum over engines.
    pub engines: EngineStats,
    /// Prefetch lines issued.
    pub prefetch_issued: u64,
    /// Prefetch lines skipped as already resident.
    pub prefetch_resident: u64,
    /// Credit starvation pauses.
    pub credit_stalls: u64,
}

/// The Minnow worklist-offload scheduler: one engine per core plus the
/// software global priority worklist the engines maintain.
#[derive(Debug)]
pub struct MinnowScheduler {
    cfg: MinnowConfig,
    engines: Vec<Engine>,
    global: Obim,
    /// Serialization among engines on the global worklist: one resource per
    /// 8-engine socket (the paper's §6.2.1 topology), plus a global bucket
    /// map touched on refills.
    socket_res: Vec<SharedResource>,
    bucket_map_res: SharedResource,
    /// Front-end serialization among the cores sharing each engine (empty
    /// when engines are per-core).
    frontend_res: Vec<SharedResource>,
    graph: Arc<Csr>,
    map: AddressMap,
    prefetch_kind: PrefetchKind,
    /// Reused expansion buffers for accepted tasks' prefetch programs.
    program: ProgramScratch,
    stats: SchedStats,
}

impl MinnowScheduler {
    /// Builds engines for `threads` cores over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(
        graph: Arc<Csr>,
        map: AddressMap,
        prefetch_kind: PrefetchKind,
        threads: usize,
        cfg: MinnowConfig,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(cfg.cores_per_engine > 0, "need at least one core per engine");
        assert!(
            cfg.cores_per_engine == 1 || cfg.prefetch_credits.is_none(),
            "shared engines cannot prefetch (they attach to one core's L2)"
        );
        let sockets = threads.div_ceil(8);
        let engines = threads.div_ceil(cfg.cores_per_engine);
        MinnowScheduler {
            engines: (0..engines)
                .map(|e| Engine::new(e * cfg.cores_per_engine, cfg.engine, cfg.prefetch_credits))
                .collect(),
            global: Obim::new(cfg.lg_bucket_interval),
            socket_res: (0..sockets).map(|_| SharedResource::new(30)).collect(),
            bucket_map_res: SharedResource::new(8),
            frontend_res: if cfg.cores_per_engine > 1 {
                (0..engines).map(|_| SharedResource::new(6)).collect()
            } else {
                Vec::new()
            },
            graph,
            map,
            prefetch_kind,
            program: ProgramScratch::new(),
            stats: SchedStats::default(),
            cfg,
        }
    }

    /// Per-engine statistics, aggregated.
    pub fn minnow_stats(&self) -> MinnowStats {
        let mut s = MinnowStats::default();
        for e in &self.engines {
            let es = e.stats();
            s.engines.local_accepts += es.local_accepts;
            s.engines.spills += es.spills;
            s.engines.refills += es.refills;
            s.engines.refilled_tasks += es.refilled_tasks;
            s.engines.local_hits += es.local_hits;
            s.engines.local_misses += es.local_misses;
            if let Some(p) = e.pipeline() {
                s.prefetch_issued += p.stats().issued;
                s.prefetch_resident += p.stats().already_resident;
                s.credit_stalls += p.stats().credit_stalls;
            }
        }
        s
    }

    /// The engine serving `core`.
    fn engine_of(&self, core: usize) -> usize {
        core / self.cfg.cores_per_engine
    }

    /// Front-end serialization cost for `core` touching its (possibly
    /// shared) engine at `now`.
    fn frontend_wait(&mut self, core: usize, now: Cycle) -> Cycle {
        if self.frontend_res.is_empty() {
            return 0;
        }
        let e = self.engine_of(core);
        let acq = self.frontend_res[e].acquire(core, now, 2);
        acq.waited
    }

    /// One engine (test/diagnostic access; indexed by engine, which equals
    /// the core id when engines are per-core).
    pub fn engine(&self, engine: usize) -> &Engine {
        &self.engines[engine]
    }

    /// Flushes a core's engine for a context switch (`minnow_flush`): local
    /// tasks move to the global worklist.
    pub fn flush_engine(&mut self, core: usize, now: Cycle, mem: &mut MemoryHierarchy) {
        let e = self.engine_of(core);
        let tasks = self.engines[e].flush();
        let mut at = now;
        for t in tasks {
            at = self.spill(core, t, at, mem);
        }
    }

    /// Queues the task's worklist-directed prefetch program on acceptance.
    fn queue_prefetch(&mut self, core: usize, task: &Task) {
        if self.cfg.prefetch_credits.is_none() {
            return;
        }
        let e = self.engine_of(core);
        let lines = self
            .program
            .expand(self.prefetch_kind, &self.graph, &self.map, task);
        if let Some(p) = self.engines[e].pipeline_mut() {
            p.enqueue_program(lines.iter().copied());
        }
    }

    /// Engine-side spill of one task to the global worklist; returns the
    /// spill's completion time. The engine back-end is multithreaded
    /// (context switch per load, §5.1), so its clock advances only by the
    /// issue work — the memory latency overlaps with other threadlets.
    fn spill(&mut self, core: usize, task: Task, start: Cycle, mem: &mut MemoryHierarchy) -> Cycle {
        let e = self.engine_of(core);
        let bucket = task.bucket(self.cfg.lg_bucket_interval);
        let engine_start = self.engines[e].clock().max(start);
        let socket = (core / 8).min(self.socket_res.len() - 1);
        let acq = self.socket_res[socket].acquire(core, engine_start, 6);
        let line = layout::WORKLIST_BASE + (bucket.min(1 << 20)) * 64;
        let access = mem.engine_access(core, line, AccessKind::Store, acq.start);
        self.global.push(task);
        let done = self.engines[e].busy(acq.done, ENGINE_OP_WORK);
        mem.tracer().emit(|| {
            minnow_sim::trace::TraceEvent::instant("spill", "sched", core as u32, acq.start)
                .with_arg("bucket", bucket)
        });
        done + access.latency
    }

    /// Engine-side refill from the global worklist; streams accepted tasks
    /// into the engine and returns the completion time (`None` if nothing
    /// was eligible).
    fn refill(
        &mut self,
        core: usize,
        start: Cycle,
        urgent: bool,
        mem: &mut MemoryHierarchy,
    ) -> Option<Cycle> {
        let head = self.global.head_bucket()?;
        let e = self.engine_of(core);
        let engine = &self.engines[e];
        // Fig. 12: stream only if head is at least as urgent as the local
        // bucket; unconditionally when the local queue is empty.
        let local_empty = engine.local_len() + engine.incoming_len() == 0;
        if !local_empty && head > engine.local_bucket() {
            return None;
        }
        // A blocking (worker-stalling) refill preempts the engine's queued
        // background work; proactive ones run behind it.
        let engine_start = if urgent {
            start
        } else {
            self.engines[e].clock().max(start)
        };
        let socket = (core / 8).min(self.socket_res.len() - 1);
        let acq = self.socket_res[socket].acquire(core, engine_start, 6);
        let head_move = self.bucket_map_res.acquire(core, acq.start, 4);
        let line = layout::WORKLIST_BASE + (head.min(1 << 20)) * 64;
        let access = mem.engine_access(core, line, AccessKind::Store, head_move.done);

        let room = self
            .cfg
            .engine
            .local_queue
            .saturating_sub(self.engines[e].local_len());
        let batch = self.cfg.refill_batch.min(room.max(1));
        let mut tasks = Vec::with_capacity(batch);
        while tasks.len() < batch {
            match self.global.head_bucket() {
                Some(b) if b == head => {
                    tasks.push(self.global.pop().expect("head bucket non-empty"));
                }
                _ => break,
            }
        }
        if tasks.is_empty() {
            return None;
        }
        let work = ENGINE_OP_WORK + 6 * tasks.len() as Cycle;
        let done = if urgent {
            self.engines[e].busy(head_move.done, 0);
            head_move.done + work + access.latency
        } else {
            self.engines[e].busy(head_move.done, work) + access.latency
        };
        for t in &tasks {
            self.queue_prefetch(core, t);
        }
        let streamed = tasks.len() as u64;
        self.engines[e].stream_in(done, tasks, head);
        mem.tracer().emit(|| {
            minnow_sim::trace::TraceEvent::instant("refill", "sched", core as u32, acq.start)
                .with_arg("bucket", head)
                .with_arg("tasks", streamed)
        });
        Some(done)
    }
}

impl SchedulerModel for MinnowScheduler {
    fn label(&self) -> String {
        match self.cfg.prefetch_credits {
            Some(c) => format!("minnow(obim({}), {c} credits)", self.cfg.lg_bucket_interval),
            None => format!("minnow(obim({}), no-wdp)", self.cfg.lg_bucket_interval),
        }
    }

    fn seed(&mut self, tasks: Vec<Task>) {
        // Initial tasks spread across engines' local queues, as minnow_init
        // + per-thread enqueues would.
        let n = self.engines.len();
        for (i, t) in tasks.into_iter().enumerate() {
            let core = i % n;
            let bucket = t.bucket(self.cfg.lg_bucket_interval);
            if self.engines[core].try_local_enqueue(t, bucket) {
                self.queue_prefetch(core, &t);
            } else {
                self.global.push(t);
            }
        }
    }

    fn enqueue(
        &mut self,
        thread: usize,
        task: Task,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> Cycle {
        self.stats.enqueues += 1;
        self.stats.instrs += ACCEL_INSTRS;
        self.stats.op_cycles += ACCEL_CALL;

        let e = self.engine_of(thread);
        let fe_wait = self.frontend_wait(thread, now);
        self.engines[e].admit_incoming(now);
        let bucket = task.bucket(self.cfg.lg_bucket_interval);
        let mut cost = ACCEL_CALL + fe_wait;
        if self.engines[e].try_local_enqueue(task, bucket) {
            self.queue_prefetch(thread, &task);
        } else {
            // Backpressure (paper §5.3.2): spill threadlets occupy queue
            // entries; once the engine's backlog exceeds the threadlet
            // queue's drain time, the accelerator call blocks the worker.
            let backlog_cap =
                self.cfg.engine.threadlet_queue as Cycle * ENGINE_OP_WORK;
            let backlog = self.engines[e].clock().saturating_sub(now);
            if backlog > backlog_cap {
                let stall = backlog - backlog_cap;
                cost += stall;
                self.stats.wait_cycles += stall;
            }
            self.spill(thread, task, now + cost - ACCEL_CALL, mem);
        }
        self.engines[e].pump_prefetch(now, mem);
        self.stats.op_cycles += cost - ACCEL_CALL;
        cost
    }

    fn dequeue(
        &mut self,
        thread: usize,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> DequeueOutcome {
        self.stats.instrs += ACCEL_INSTRS;
        let e = self.engine_of(thread);
        let fe_wait = self.frontend_wait(thread, now);
        self.engines[e].admit_incoming(now);
        self.engines[e].pump_prefetch(now, mem);
        let hit_latency = self.cfg.engine.local_queue_latency + fe_wait;

        // Fast path: local queue hit.
        if let Some(task) = self.engines[e].local_pop() {
            // Proactive refill below the threshold (asynchronous), unless
            // one is already in flight.
            if self.engines[e].wants_refill() && self.engines[e].incoming_len() == 0 {
                self.refill(thread, now, false, mem);
            }
            self.stats.dequeues += 1;
            self.stats.op_cycles += hit_latency;
            return DequeueOutcome {
                task: Some(task),
                cost: hit_latency,
            };
        }
        self.engines[e].note_local_miss();

        // The worker is stalled: an urgent refill from the global worklist
        // preempts any queued background work. Fall back to an in-flight
        // proactive refill's arrival, whichever lands first.
        let urgent_done = self.refill(thread, now, true, mem);
        let incoming_at = self.engines[e].next_incoming_at();
        let wake = match (urgent_done, incoming_at) {
            (Some(a), Some(b)) => Some(a.min(b.max(now))),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b.max(now)),
            (None, None) => None,
        };
        if let Some(wake) = wake {
            self.engines[e].admit_incoming(wake);
            if let Some(task) = self.engines[e].local_pop() {
                let cost = (wake - now) + hit_latency;
                self.stats.dequeues += 1;
                self.stats.op_cycles += cost;
                self.stats.wait_cycles += wake - now;
                return DequeueOutcome {
                    task: Some(task),
                    cost,
                };
            }
        }

        // Global worklist is empty: fail fast so the worker can run
        // termination detection (minnow_done).
        self.stats.empty_dequeues += 1;
        self.stats.op_cycles += hit_latency;
        DequeueOutcome {
            task: None,
            cost: hit_latency,
        }
    }

    fn pending(&self) -> usize {
        self.global.len()
            + self
                .engines
                .iter()
                .map(|e| e.local_len() + e.incoming_len())
                .sum::<usize>()
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }

    fn tick(&mut self, now: Cycle, mem: &mut MemoryHierarchy) {
        for e in &mut self.engines {
            e.admit_incoming(now);
            e.pump_prefetch(now, mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::grid::{self, GridConfig};
    use minnow_sim::SimConfig;

    fn setup(threads: usize, cfg: MinnowConfig) -> (MinnowScheduler, MemoryHierarchy) {
        let g = Arc::new(grid::generate(&GridConfig::new(8, 8), 1));
        let sched = MinnowScheduler::new(
            g,
            AddressMap::standard(),
            PrefetchKind::Standard,
            threads,
            cfg,
        );
        let mem = MemoryHierarchy::new(&SimConfig::small(threads));
        (sched, mem)
    }

    #[test]
    fn fast_path_costs_are_paper_latencies() {
        let (mut s, mut mem) = setup(2, MinnowConfig::no_prefetch(0));
        let c = s.enqueue(0, Task::new(0, 5), 0, &mut mem);
        assert_eq!(c, ACCEL_CALL);
        let d = s.dequeue(0, 100, &mut mem);
        assert_eq!(d.task.unwrap().node, 5);
        assert_eq!(d.cost, 10);
    }

    #[test]
    fn low_priority_tasks_spill_to_global() {
        let (mut s, mut mem) = setup(1, MinnowConfig::no_prefetch(0));
        s.enqueue(0, Task::new(1, 1), 0, &mut mem);
        // Bigger bucket than local: must spill.
        s.enqueue(0, Task::new(50, 2), 10, &mut mem);
        assert_eq!(s.engine(0).stats().spills, 1);
        assert_eq!(s.pending(), 2);
        // Local task first, then the spilled one via refill.
        let a = s.dequeue(0, 1000, &mut mem);
        assert_eq!(a.task.unwrap().node, 1);
        let b = s.dequeue(0, 2000, &mut mem);
        assert_eq!(b.task.unwrap().node, 2);
        assert!(b.cost >= 10, "refill path must cost at least the hit");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn empty_dequeue_fails_fast() {
        let (mut s, mut mem) = setup(1, MinnowConfig::no_prefetch(0));
        let d = s.dequeue(0, 0, &mut mem);
        assert!(d.task.is_none());
        assert_eq!(s.stats().empty_dequeues, 1);
    }

    #[test]
    fn seed_spreads_across_engines() {
        let (mut s, _mem) = setup(4, MinnowConfig::no_prefetch(0));
        s.seed((0..8).map(|i| Task::new(0, i)).collect());
        for core in 0..4 {
            assert_eq!(s.engine(core).local_len(), 2);
        }
    }

    #[test]
    fn prefetching_marks_upcoming_task_data() {
        let (mut s, mut mem) = setup(1, MinnowConfig::paper(0));
        s.enqueue(0, Task::new(0, 12), 0, &mut mem);
        // Let the engine pump well past issue time.
        s.tick(100_000, &mut mem);
        let stats = s.minnow_stats();
        assert!(stats.prefetch_issued > 0, "WDP must have issued lines");
        // The source node's line is marked in L2.
        let map = AddressMap::standard();
        assert!(mem.l2_cache(0).probe_prefetched(map.node_addr(12)));
    }

    #[test]
    fn flush_moves_local_tasks_to_global() {
        let (mut s, mut mem) = setup(2, MinnowConfig::no_prefetch(0));
        s.enqueue(0, Task::new(0, 1), 0, &mut mem);
        s.enqueue(0, Task::new(0, 2), 5, &mut mem);
        assert_eq!(s.engine(0).local_len(), 2);
        s.flush_engine(0, 100, &mut mem);
        assert_eq!(s.engine(0).local_len(), 0);
        assert_eq!(s.pending(), 2);
        // Another core can now pick the tasks up.
        let d = s.dequeue(1, 10_000, &mut mem);
        assert!(d.task.is_some());
    }

    #[test]
    fn refill_respects_priority_filter() {
        let (mut s, mut mem) = setup(1, MinnowConfig::no_prefetch(0));
        // Local queue holds bucket-0 work; global holds bucket-9 work.
        s.enqueue(0, Task::new(0, 1), 0, &mut mem);
        s.enqueue(0, Task::new(9, 2), 5, &mut mem); // spills
        assert_eq!(s.pending(), 2);
        // Proactive refill on dequeue must NOT pull bucket 9 while local
        // bucket is 0... after popping the last local task the queue is
        // empty, so the sync path accepts it unconditionally.
        let a = s.dequeue(0, 1000, &mut mem);
        assert_eq!(a.task.unwrap().node, 1);
        let b = s.dequeue(0, 5000, &mut mem);
        assert_eq!(b.task.unwrap().node, 2);
    }

    #[test]
    fn shared_engine_serves_multiple_cores() {
        let (mut s, mut mem) = setup(4, MinnowConfig::shared(0, 4));
        // All four cores feed the single shared engine.
        s.enqueue(0, Task::new(0, 1), 0, &mut mem);
        s.enqueue(3, Task::new(0, 2), 5, &mut mem);
        assert_eq!(s.engine(0).local_len(), 2);
        // Any core in the group can pop.
        let a = s.dequeue(2, 100, &mut mem);
        assert_eq!(a.task.unwrap().node, 1);
        let b = s.dequeue(1, 200, &mut mem);
        assert_eq!(b.task.unwrap().node, 2);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn shared_engine_rejects_prefetching() {
        let g = Arc::new(grid::generate(&GridConfig::new(4, 4), 1));
        let mut cfg = MinnowConfig::paper(0);
        cfg.cores_per_engine = 2;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MinnowScheduler::new(g, AddressMap::standard(), PrefetchKind::Standard, 4, cfg)
        }));
        assert!(r.is_err(), "shared engines with WDP must be rejected");
    }

    #[test]
    fn label_reflects_configuration() {
        let (s, _) = setup(1, MinnowConfig::paper(3));
        assert!(s.label().contains("32 credits"));
        let (s2, _) = setup(1, MinnowConfig::no_prefetch(3));
        assert!(s2.label().contains("no-wdp"));
    }
}
