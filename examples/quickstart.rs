//! Quickstart: run one workload on the simulated CMP, with and without
//! Minnow, and print what the engines bought you.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use minnow::algos::WorkloadKind;
use minnow::bench::runner::BenchRun;
use minnow::graph::gen::uniform::{self, UniformConfig};

fn main() {
    let threads = 8;
    // A BFS over a uniform random graph (the paper's `r4` input analogue).
    let graph = Arc::new(uniform::generate(&UniformConfig::new(20_000, 4), 42));
    println!(
        "input: {} nodes, {} edges  |  {threads} simulated cores\n",
        graph.nodes(),
        graph.edges()
    );
    // The optimized software baseline (Galois-like OBIM worklist), Minnow's
    // worklist offload alone, and offload plus worklist-directed
    // prefetching with the paper's 32 credits; each result is checked
    // against a serial BFS.
    let configs = [
        ("software worklist", BenchRun::software_default(WorkloadKind::Bfs, threads)),
        ("minnow offload", BenchRun::minnow(WorkloadKind::Bfs, threads)),
        ("minnow + prefetching", BenchRun::minnow_wdp(WorkloadKind::Bfs, threads)),
    ];
    let reports = configs.map(|(name, run)| {
        let (report, check) = run.execute_checked_on(graph.clone());
        check.unwrap_or_else(|e| panic!("{name} run must be correct: {e}"));
        (name, report)
    });
    let (software, wdp) = (&reports[0].1, &reports[2].1);

    println!("{:<26} {:>12} {:>9} {:>9}", "configuration", "cycles", "MPKI", "speedup");
    for (name, r) in &reports {
        println!(
            "{:<26} {:>12} {:>9.1} {:>8.2}x",
            name,
            r.makespan,
            r.mpki(),
            software.makespan as f64 / r.makespan as f64
        );
    }
    println!(
        "\nprefetch efficiency: {:.1}%  (fills: {}, used before eviction: {})",
        wdp.prefetch_efficiency() * 100.0,
        wdp.prefetch_fills,
        wdp.prefetch_used
    );
}
