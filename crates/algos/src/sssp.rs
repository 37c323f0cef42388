//! Single-source shortest path (paper §6.1, Fig. 1).
//!
//! The operator is the paper's Fig. 1 pseudocode: each task processes one
//! node, relaxing all outgoing edges and pushing improved neighbors with
//! `priority = newDist`. The *scheduling policy* then decides the
//! algorithm: a strict priority queue gives Dijkstra, FIFO gives
//! Bellman-Ford, and OBIM with `lg_bucket_interval = lg Δ` gives
//! delta-stepping — which is exactly why SSSP is the paper's headline
//! ordering-sensitivity example (§3.1: 576x over unordered GraphMat).

use std::sync::Arc;

use minnow_graph::{Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, Task, TaskCtx};

/// Unreached distance.
pub const INF: u64 = u64::MAX;

/// The SSSP operator.
#[derive(Debug)]
pub struct Sssp {
    graph: Arc<Csr>,
    source: NodeId,
    /// Delta-stepping bucket exponent (`bucket = dist >> lg_delta`).
    lg_delta: u32,
    dist: Vec<u64>,
}

impl Sssp {
    /// Creates the operator for `graph` starting at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or the graph is unweighted and
    /// empty of nodes.
    pub fn new(graph: Arc<Csr>, source: NodeId, lg_delta: u32) -> Self {
        assert!((source as usize) < graph.nodes(), "source out of range");
        let n = graph.nodes();
        Sssp {
            graph,
            source,
            lg_delta,
            dist: vec![INF; n],
        }
    }

    /// Final distances (INF = unreachable).
    pub fn distances(&self) -> &[u64] {
        &self.dist
    }

    /// Serial Dijkstra reference.
    pub fn reference(graph: &Csr, source: NodeId) -> Vec<u64> {
        let mut dist = vec![INF; graph.nodes()];
        let mut heap = std::collections::BinaryHeap::new();
        dist[source as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, source)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for (_, u, w) in graph.edges_of(v) {
                let nd = d + w as u64;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, u)));
                }
            }
        }
        dist
    }
}

impl Operator for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn initial_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, self.source)]
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Obim(self.lg_delta)
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(14);
        let d = self.dist[v as usize].min(task.priority);
        if self.dist[v as usize] < task.priority {
            // A shorter path already propagated from this node.
            ctx.add_branches(1);
            return;
        }
        if self.dist[v as usize] > task.priority {
            self.dist[v as usize] = task.priority;
            ctx.store_node(v);
        }
        let graph = self.graph.clone();
        let base = graph.edge_range(v).start;
        for slot in task.resolve_range(graph.out_degree(v)) {
            let e = base + slot;
            let u = graph.edge_dst(e);
            let w = graph.edge_weight(e) as u64;
            ctx.load_edge(e, u);
            ctx.load_node(u);
            ctx.add_branches(1);
            ctx.add_instrs(10);
            let nd = d + w;
            if nd < self.dist[u as usize] {
                self.dist[u as usize] = nd;
                ctx.atomic_node(u);
                ctx.push(Task::new(nd, u));
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        let expect = Sssp::reference(&self.graph, self.source);
        for (v, (&got, &want)) in self.dist.iter().zip(expect.iter()).enumerate() {
            if got != want {
                return Err(format!("node {v}: got {got}, want {want}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::grid::{self, GridConfig};
    use minnow_runtime::sim_exec::{run_software, ExecConfig};

    fn weighted_grid() -> Arc<Csr> {
        Arc::new(grid::generate(&GridConfig::new(12, 12).weighted(1..=9), 17))
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        let g = weighted_grid();
        let mut op = Sssp::new(g, 0, 3);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert!(!report.timed_out);
        op.check().unwrap();
    }

    #[test]
    fn fifo_bellman_ford_is_correct_but_wasteful() {
        let g = weighted_grid();
        let mut ordered = Sssp::new(g.clone(), 0, 3);
        let r_ordered = run_software(&mut ordered, PolicyKind::Obim(3), &ExecConfig::new(2));
        ordered.check().unwrap();

        let mut fifo = Sssp::new(g, 0, 3);
        let r_fifo = run_software(&mut fifo, PolicyKind::Fifo, &ExecConfig::new(2));
        fifo.check().unwrap();
        assert!(
            r_fifo.tasks > r_ordered.tasks,
            "Bellman-Ford must relax more: {} vs {}",
            r_fifo.tasks,
            r_ordered.tasks
        );
    }

    #[test]
    fn strict_priority_is_most_work_efficient() {
        let g = weighted_grid();
        let mut strict = Sssp::new(g.clone(), 0, 3);
        let r_strict = run_software(&mut strict, PolicyKind::Strict, &ExecConfig::new(1));
        strict.check().unwrap();
        let mut obim = Sssp::new(g, 0, 3);
        let r_obim = run_software(&mut obim, PolicyKind::Obim(3), &ExecConfig::new(1));
        assert!(r_strict.tasks <= r_obim.tasks);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        // Two disconnected 1x3 paths.
        let g = Arc::new(Csr::from_edges(
            6,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)],
            Some(&[1, 1, 1, 1, 1, 1]),
        ));
        let mut op = Sssp::new(g, 0, 0);
        run_software(&mut op, PolicyKind::Obim(0), &ExecConfig::new(1));
        op.check().unwrap();
        assert_eq!(op.distances()[5], INF);
        assert_eq!(op.distances()[2], 2);
    }

    #[test]
    #[should_panic(expected = "source")]
    fn bad_source_rejected() {
        let g = Arc::new(Csr::from_edges(2, &[(0, 1)], None));
        let _ = Sssp::new(g, 9, 0);
    }
}
