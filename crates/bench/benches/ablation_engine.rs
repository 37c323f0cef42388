//! Ablations of the Minnow engine design points (DESIGN.md §6): local queue
//! size, proactive refill threshold, load-buffer size, and shared engines.
//!
//! These sweep the §5.1/§5.2 hardware choices the paper fixes (64-entry
//! local queue, 32-entry load buffer, per-core engines) and show where each
//! knee sits under this model.

use minnow_algos::WorkloadKind;
use minnow_bench::headline_threads;
use minnow_bench::runner::BenchRun;
use minnow_bench::table::Table;
use minnow_core::offload::{MinnowConfig, MinnowScheduler};
use minnow_runtime::sim_exec::{run, ExecConfig};
use minnow_sim::hierarchy::MemoryHierarchy;

fn run_with(kind: WorkloadKind, threads: usize, mc: MinnowConfig) -> u64 {
    let graph = BenchRun::minnow(kind, threads).input();
    let mut op = kind.operator_on(graph.clone());
    let cfg = ExecConfig::new(threads);
    let mut mem = MemoryHierarchy::new(&cfg.sim);
    let mut sched =
        MinnowScheduler::new(graph, op.address_map(), op.prefetch_kind(), threads, mc);
    run(op.as_mut(), &mut sched, &mut mem, &cfg).makespan
}

fn main() {
    let threads = headline_threads();
    let kinds = [WorkloadKind::Bfs, WorkloadKind::Cc, WorkloadKind::Sssp];
    println!("Engine design-point ablations at {threads} threads (cycles normalized to the paper config)\n");

    // Local queue size (paper: 64; acceptance capped at the refill threshold).
    let mut t = Table::new("ablation_local_queue", &["Workload", "Q8", "Q16", "Q32", "Q64", "Q128"]);
    for kind in kinds {
        let lg = kind.lg_bucket();
        let base = run_with(kind, threads, MinnowConfig::no_prefetch(lg)) as f64;
        let mut row = vec![kind.name().to_string()];
        for q in [8usize, 16, 32, 64, 128] {
            let mut mc = MinnowConfig::no_prefetch(lg);
            mc.engine.local_queue = q;
            mc.engine.refill_threshold = (q / 4).max(2);
            row.push(format!("{:.2}", base / run_with(kind, threads, mc) as f64));
        }
        t.row(row);
    }
    t.finish();

    // Refill threshold (paper: programmable; default 16).
    println!();
    let mut t = Table::new("ablation_refill_threshold", &["Workload", "T2", "T4", "T8", "T16", "T32"]);
    for kind in kinds {
        let lg = kind.lg_bucket();
        let base = run_with(kind, threads, MinnowConfig::no_prefetch(lg)) as f64;
        let mut row = vec![kind.name().to_string()];
        for th in [2usize, 4, 8, 16, 32] {
            let mut mc = MinnowConfig::no_prefetch(lg);
            mc.engine.refill_threshold = th;
            row.push(format!("{:.2}", base / run_with(kind, threads, mc) as f64));
        }
        t.row(row);
    }
    t.finish();

    // Load-buffer size (paper: 32 entries; bounds prefetch MLP).
    println!();
    let mut t = Table::new("ablation_load_buffer", &["Workload", "LB4", "LB8", "LB16", "LB32", "LB64"]);
    for kind in kinds {
        let lg = kind.lg_bucket();
        let base = run_with(kind, threads, MinnowConfig::paper(lg)) as f64;
        let mut row = vec![kind.name().to_string()];
        for lb in [4usize, 8, 16, 32, 64] {
            let mut mc = MinnowConfig::paper(lg);
            mc.engine.load_buffer = lb;
            row.push(format!("{:.2}", base / run_with(kind, threads, mc) as f64));
        }
        t.row(row);
    }
    t.finish();

    // Shared engines (paper §4: resource-reduction option; no prefetching).
    println!();
    let mut t = Table::new("ablation_shared_engines", &["Workload", "1/core", "1/2cores", "1/4cores", "1/8cores"]);
    for kind in kinds {
        let lg = kind.lg_bucket();
        let base = run_with(kind, threads, MinnowConfig::no_prefetch(lg)) as f64;
        let mut row = vec![kind.name().to_string()];
        for cpe in [1usize, 2, 4, 8] {
            let mc = MinnowConfig::shared(lg, cpe);
            row.push(format!("{:.2}", base / run_with(kind, threads, mc) as f64));
        }
        t.row(row);
    }
    t.finish();
    println!("\nexpected: knees near the paper's choices; sharing trades a little speed for 2-8x less area");
}
