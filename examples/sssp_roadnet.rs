//! Scheduling policy shoot-out on a road network — the paper's §3.1
//! motivation: on high-diameter, low-degree graphs, priority ordering is
//! worth orders of magnitude of work efficiency.
//!
//! Runs SSSP over the `USA-road-d.W` analogue under six schedulers
//! (Dijkstra / delta-stepping at two bucket widths / chunked / FIFO /
//! LIFO) and reports each one's work efficiency.
//!
//! ```sh
//! cargo run --release --example sssp_roadnet
//! ```

use std::sync::Arc;

use minnow::algos::sssp::Sssp;
use minnow::graph::inputs;
use minnow::runtime::sim_exec::{run_software, ExecConfig};
use minnow::runtime::{Operator, PolicyKind};

fn main() {
    let graph = Arc::new(inputs::usa_road(1.0, 7));
    println!(
        "road network analogue: {} nodes, {} edges\n",
        graph.nodes(),
        graph.edges()
    );

    let mut cfg = ExecConfig::new(8);
    cfg.task_limit = 4_000_000;

    println!(
        "{:<16} {:>12} {:>12} {:>14}",
        "scheduler", "cycles", "tasks", "work-efficiency"
    );
    let policies = [
        ("dijkstra", PolicyKind::Strict),
        ("delta(8)", PolicyKind::Obim(3)),
        ("delta(64)", PolicyKind::Obim(6)),
        ("chunked-fifo", PolicyKind::Chunked(16)),
        ("fifo", PolicyKind::Fifo),
        ("lifo", PolicyKind::Lifo),
    ];
    let mut min_tasks = u64::MAX;
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let mut op = Sssp::new(graph.clone(), 0, 3);
        let report = run_software(&mut op, policy, &cfg);
        if !report.timed_out {
            op.check().expect("SSSP must be exact");
        }
        min_tasks = min_tasks.min(report.tasks);
        rows.push((name, report));
    }
    for (name, r) in &rows {
        let status = if r.timed_out { " (timed out)" } else { "" };
        println!(
            "{:<16} {:>12} {:>12} {:>13.2}x{status}",
            name,
            r.makespan,
            r.tasks,
            r.tasks as f64 / min_tasks as f64
        );
    }
}
