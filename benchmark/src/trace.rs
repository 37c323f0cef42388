//! Outside-in spans around one simulated point.
//!
//! [`execute_traced`] runs a sweep point exactly as
//! `BenchRun::execute_traced_on` would, except that the operator and the
//! scheduler are wrapped in timing delegates. The delegates forward every
//! call unchanged, so the simulated [`RunReport`] is identical to the
//! untraced one (the benchmark checks this on every point). They record:
//!
//! * operator time (`Operator::execute`),
//! * scheduler enqueue / dequeue / tick time,
//! * charge time: from the operator returning to the next scheduler call,
//!   which is where the executor runs `charge_task` (the hierarchy walk
//!   and the core model) and splits pushed tasks,
//! * the executed task stream and the first-touch access stream, which
//!   [`replay_program_lines`] and [`replay_hierarchy`] later push through
//!   the public `wdp::program_lines` and `MemoryHierarchy::access` alone.
//!
//! Whatever the point's wall time does not cover is executor self time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minnow_bench::runner::{BenchRun, SchedSpec};
use minnow_core::offload::{MinnowConfig, MinnowScheduler};
use minnow_core::wdp::program_lines;
use minnow_graph::{AddressMap, Csr};
use minnow_runtime::sched::{DequeueOutcome, SchedStats, SchedulerModel};
use minnow_runtime::sim_exec::{self, ExecConfig, RunReport};
use minnow_runtime::{Operator, PolicyKind, PrefetchKind, SoftwareScheduler, Task, TaskCtx};
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::{AccessKind, MemoryHierarchy};

/// First-touch accesses kept per point for the hierarchy replay: enough
/// for a stable per-access cost without holding a large point's whole
/// stream in memory.
const MAX_LOGGED_ACCESSES: usize = 1 << 16;

const NO_STAMP: u64 = u64::MAX;

/// State the two delegates share: when the operator last returned, and
/// which core the executor dispatched the current task on.
struct Handoff {
    base: Instant,
    op_end_ns: AtomicU64,
    core: AtomicUsize,
}

impl Handoff {
    fn new() -> Handoff {
        Handoff {
            base: Instant::now(),
            op_end_ns: AtomicU64::new(NO_STAMP),
            core: AtomicUsize::new(0),
        }
    }

    fn mark_op_end(&self, at: Instant) {
        let ns = at.duration_since(self.base).as_nanos() as u64;
        self.op_end_ns.store(ns, Ordering::Relaxed);
    }

    /// Time since the operator returned, if a charge interval is open.
    fn close_charge(&self, at: Instant) -> Option<Duration> {
        let end = self.op_end_ns.swap(NO_STAMP, Ordering::Relaxed);
        (end != NO_STAMP).then(|| at.duration_since(self.base) - Duration::from_nanos(end))
    }
}

struct TimedOp<'a> {
    inner: &'a mut (dyn Operator + Send),
    handoff: &'a Handoff,
    execute: Duration,
    accesses: u64,
    tasks: Vec<Task>,
    first_touches: Vec<(usize, u64, AccessKind)>,
}

impl Operator for TimedOp<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph(&self) -> &Arc<Csr> {
        self.inner.graph()
    }

    fn address_map(&self) -> AddressMap {
        self.inner.address_map()
    }

    fn initial_tasks(&self) -> Vec<Task> {
        self.inner.initial_tasks()
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let t0 = Instant::now();
        self.inner.execute(task, ctx);
        let t1 = Instant::now();
        self.execute += t1 - t0;
        self.handoff.mark_op_end(t1);
        self.accesses += ctx.accesses().len() as u64;
        self.tasks.push(task);
        let core = self.handoff.core.load(Ordering::Relaxed);
        for acc in ctx.accesses().iter().filter(|a| a.first_touch) {
            if self.first_touches.len() < MAX_LOGGED_ACCESSES {
                self.first_touches.push((core, acc.addr, acc.kind));
            }
        }
    }

    fn execute_spec(&self, task: Task, ctx: &mut TaskCtx) -> bool {
        self.inner.execute_spec(task, ctx)
    }

    fn apply_spec(&mut self, ctx: &TaskCtx) {
        self.inner.apply_spec(ctx);
    }

    fn default_policy(&self) -> PolicyKind {
        self.inner.default_policy()
    }

    fn prefetch_kind(&self) -> PrefetchKind {
        self.inner.prefetch_kind()
    }

    fn supports_splitting(&self) -> bool {
        self.inner.supports_splitting()
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }
}

struct TimedSched<'a> {
    inner: &'a mut dyn SchedulerModel,
    handoff: &'a Handoff,
    enqueue: Duration,
    dequeue: Duration,
    tick: Duration,
    charge: Duration,
}

impl TimedSched<'_> {
    fn enter(&mut self) -> Instant {
        let t0 = Instant::now();
        if let Some(c) = self.handoff.close_charge(t0) {
            self.charge += c;
        }
        t0
    }
}

impl SchedulerModel for TimedSched<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn seed(&mut self, tasks: Vec<Task>) {
        self.inner.seed(tasks);
    }

    fn enqueue(
        &mut self,
        thread: usize,
        task: Task,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> Cycle {
        let t0 = self.enter();
        let cost = self.inner.enqueue(thread, task, now, mem);
        self.enqueue += t0.elapsed();
        cost
    }

    fn dequeue(&mut self, thread: usize, now: Cycle, mem: &mut MemoryHierarchy) -> DequeueOutcome {
        let t0 = self.enter();
        let out = self.inner.dequeue(thread, now, mem);
        self.dequeue += t0.elapsed();
        self.handoff.core.store(thread, Ordering::Relaxed);
        out
    }

    fn peek_dequeue(&self, thread: usize, now: Cycle) -> Option<Task> {
        self.inner.peek_dequeue(thread, now)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn stats(&self) -> SchedStats {
        self.inner.stats()
    }

    fn tick(&mut self, now: Cycle, mem: &mut MemoryHierarchy) {
        let t0 = self.enter();
        self.inner.tick(now, mem);
        self.tick += t0.elapsed();
    }
}

/// Which scheduler family ran a point (decides which layer its
/// scheduler spans belong to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Galois-like software worklist (`runtime.sched`).
    Software,
    /// Minnow worklist offload without prefetching (`core.offload`).
    Minnow,
    /// Minnow offload with worklist-directed prefetching.
    Wdp,
}

/// The spans and streams of one traced point.
pub struct PointTrace {
    /// Scheduler family.
    pub family: Family,
    /// The simulated report (identical to the untraced run's).
    pub report: RunReport,
    /// Host time of the whole point, construction included.
    pub wall: Duration,
    /// Operator execution.
    pub execute: Duration,
    /// Scheduler enqueue calls.
    pub enqueue: Duration,
    /// Scheduler dequeue calls.
    pub dequeue: Duration,
    /// Scheduler tick calls (background engine work under Minnow).
    pub tick: Duration,
    /// Operator return to next scheduler call.
    pub charge: Duration,
    /// Accesses the operator recorded (what `charge_task` charges).
    pub accesses: u64,
    /// Executed tasks in dispatch order.
    pub tasks: Vec<Task>,
    /// First-touch accesses `(core, addr, kind)`, capped.
    pub first_touches: Vec<(usize, u64, AccessKind)>,
    /// The point's input and layout, for the replays.
    pub graph: Arc<Csr>,
    /// Address layout of the point's operator.
    pub map: AddressMap,
    /// WDP program kind of the point's operator.
    pub prefetch_kind: PrefetchKind,
    /// The machine the point simulated.
    pub cfg: ExecConfig,
}

/// The executor configuration `BenchRun` builds for the benchmark's
/// sweeps, which set no machine overrides.
fn exec_config(run: &BenchRun) -> ExecConfig {
    assert!(
        run.channels.is_none() && run.rob.is_none() && run.l2.is_none() && run.engine.is_none(),
        "traced points carry no machine overrides"
    );
    let mut cfg = ExecConfig::new(run.threads);
    cfg.core_mode = run.core_mode;
    cfg.task_limit = run.task_limit;
    cfg.serial_baseline = run.serial_baseline;
    cfg
}

/// Runs one software or Minnow point under the timing delegates, on the
/// serial oracle path (one host thread per point).
pub fn execute_traced(run: &BenchRun) -> PointTrace {
    let t0 = Instant::now();
    let graph = run.input();
    let mut op = run.kind.operator_on(graph.clone());
    let cfg = exec_config(run);
    let mut mem = MemoryHierarchy::new(&cfg.sim);
    let (map, prefetch_kind) = (op.address_map(), op.prefetch_kind());
    let (family, mut sched): (Family, Box<dyn SchedulerModel>) = match &run.sched {
        SchedSpec::Software(policy) => (
            Family::Software,
            Box::new(SoftwareScheduler::new(policy.build(), run.threads)),
        ),
        SchedSpec::Minnow { wdp_credits } => {
            let mut mc = MinnowConfig::paper(run.kind.lg_bucket());
            mc.prefetch_credits = *wdp_credits;
            let family = if wdp_credits.is_some() {
                Family::Wdp
            } else {
                Family::Minnow
            };
            let sched = MinnowScheduler::new(graph.clone(), map, prefetch_kind, run.threads, mc);
            (family, Box::new(sched))
        }
        other => panic!("the benchmark traces software and Minnow points only, not {other:?}"),
    };
    let handoff = Handoff::new();
    let mut top = TimedOp {
        inner: op.as_mut(),
        handoff: &handoff,
        execute: Duration::ZERO,
        accesses: 0,
        tasks: Vec::new(),
        first_touches: Vec::new(),
    };
    let mut tsched = TimedSched {
        inner: sched.as_mut(),
        handoff: &handoff,
        enqueue: Duration::ZERO,
        dequeue: Duration::ZERO,
        tick: Duration::ZERO,
        charge: Duration::ZERO,
    };
    let report = sim_exec::run(&mut top, &mut tsched, &mut mem, &cfg);
    PointTrace {
        family,
        report,
        wall: t0.elapsed(),
        execute: top.execute,
        enqueue: tsched.enqueue,
        dequeue: tsched.dequeue,
        tick: tsched.tick,
        charge: tsched.charge,
        accesses: top.accesses,
        tasks: top.tasks,
        first_touches: top.first_touches,
        graph,
        map,
        prefetch_kind,
        cfg,
    }
}

/// Expands every executed task of a WDP point through
/// `wdp::program_lines`; returns `(host time, lines produced)`.
pub fn replay_program_lines(t: &PointTrace) -> (Duration, u64) {
    let t0 = Instant::now();
    let mut lines = 0u64;
    for task in &t.tasks {
        lines += program_lines(t.prefetch_kind, &t.graph, &t.map, task).len() as u64;
    }
    (t0.elapsed(), lines)
}

/// Pushes the point's first-touch stream through a fresh hierarchy of the
/// same machine, each core issuing back to back; returns the host time.
pub fn replay_hierarchy(t: &PointTrace) -> Duration {
    let mut mem = MemoryHierarchy::new(&t.cfg.sim);
    let mut clock: Vec<Cycle> = vec![0; t.cfg.threads];
    let t0 = Instant::now();
    for &(core, addr, kind) in &t.first_touches {
        let r = mem.access(core, addr, kind, clock[core]);
        clock[core] += r.latency.max(1);
    }
    t0.elapsed()
}
