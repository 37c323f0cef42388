//! Steady-state task charging and WDP prefetching perform zero heap
//! allocation.
//!
//! The hot-path overhaul's contract (see `crates/runtime/src/scratch.rs`)
//! is that once the per-run scratch buffers and the hierarchy's internal
//! tables are warm, the record → replay → charge loop never touches the
//! allocator. The Minnow engine's prefetch side keeps the same contract:
//! expanding an accepted task's program into reused scratch and pumping it
//! through the prefetch pipeline. This test pins both with a counting
//! `#[global_allocator]`: it replays an identical workload once to warm
//! every buffer, then replays it again and demands the allocation counter
//! does not move.
//!
//! The file deliberately holds a single `#[test]` — the default harness
//! runs tests in this binary concurrently, and a neighbor's allocations
//! would show up in the (process-global) counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use minnow::engine::wdp::{PrefetchPipeline, ProgramScratch};
use minnow::graph::gen::grid::{self, GridConfig};
use minnow::graph::AddressMap;
use minnow::runtime::op::TaskCtx;
use minnow::runtime::scratch::{charge_task, ChargeCounters, TaskScratch};
use minnow::runtime::{PrefetchKind, Task};
use minnow::sim::config::SimConfig;
use minnow::sim::core::{CoreMode, CoreModel};
use minnow::sim::cycles::Cycle;

/// `System` plus an allocation counter. Frees are not counted: the
/// property under test is "no allocation", not "no traffic".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One synthetic task: a few loads with locality, an atomic update, and
/// some arithmetic. `i` drives a deterministic LCG over a bounded node
/// set so the measured pass touches exactly the lines (and directory
/// entries) the warm pass already created.
fn record(ctx: &mut TaskCtx, i: u64) {
    let mut state = i
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    for _ in 0..6 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ctx.load_node(((state >> 33) % 4096) as u32);
    }
    ctx.atomic_node(((state >> 45) % 4096) as u32);
    ctx.add_branches(3);
    ctx.add_instrs(40);
}

#[test]
fn steady_state_charging_allocates_nothing() {
    const TASKS: u64 = 2000;

    let cfg = SimConfig::small(4);
    let core_model = CoreModel::new(cfg.ooo, CoreMode::realistic(), 0.05);
    let mut mem = minnow::sim::hierarchy::MemoryHierarchy::new(&cfg);
    let mut scratch = TaskScratch::new(AddressMap::standard(), false);
    let mut counters = ChargeCounters::default();
    // Core 0's engine prefetches every task's inputs from a 4096-node grid
    // laid out in the same address map the tasks load from.
    let graph = grid::generate(&GridConfig::new(64, 64), 1);
    let map = AddressMap::standard();
    let mut program = ProgramScratch::new();
    let mut pipeline = PrefetchPipeline::new(&cfg.engine, 32);

    let mut run = |start: Cycle| {
        let mut now = start;
        for i in 0..TASKS {
            // The engine accepts the task and queues its prefetch program,
            // then the worker starts it and the pipeline catches up.
            let task = Task::new(0, (i * 37 % 4096) as u32);
            let lines = program.expand(PrefetchKind::Standard, &graph, &map, &task);
            pipeline.enqueue_program(lines.iter().copied());
            pipeline.note_pop();
            pipeline.pump(0, now, &mut mem);

            scratch.begin_task();
            record(&mut scratch.ctx, i);
            let cycles = charge_task(
                &mut scratch,
                &mut mem,
                &core_model,
                (i % 4) as usize,
                now,
                &mut None,
                &mut counters,
            );
            now += cycles.total();
        }
        now
    };

    // Warm pass: grows the scratch buffers, the caches' metadata, the
    // directory and prefetch-arrival tables, the occupancy windows, the
    // program-expansion scratch and the pipeline's queues.
    let warm_end = run(0);
    assert!(warm_end > 0);

    // Measured pass: identical workload, zero allocations allowed.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let measured_end = run(warm_end);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(measured_end > warm_end);
    assert_eq!(
        delta, 0,
        "steady-state record+charge+prefetch loop allocated {delta} time(s) over {TASKS} tasks"
    );
    assert!(counters.total_loads > 0);
    assert!(pipeline.stats().issued > 0);
}
