//! Triangle counting (paper §6.1): the *node-iterator-hashed* algorithm
//! (Schank 2007) — for every node `v` and neighbor pair `u < w` (both
//! greater than `v`), a binary search in `u`'s sorted adjacency list
//! decides whether the closing edge exists.
//!
//! TC is the paper's control benchmark: it neither generates work
//! dynamically nor benefits from priority ordering, its tasks need no
//! atomics, and its (deliberately small) input fits in the LLC — so it
//! shows the *minimum* benefit of Minnow (§6.3: 1.53x with prefetching).
//! Uses 64B node records (§6.2) and the custom TC prefetch program (§5.3).

use std::sync::Arc;

use minnow_graph::{AddressMap, Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, PrefetchKind, Task, TaskCtx};

/// The triangle-counting operator.
#[derive(Debug)]
pub struct Tc {
    graph: Arc<Csr>,
    triangles: u64,
}

impl Tc {
    /// Creates the operator.
    ///
    /// # Panics
    ///
    /// Panics if the graph's adjacency lists are not sorted
    /// (see [`Csr::sort_adjacency`]).
    pub fn new(graph: Arc<Csr>) -> Self {
        assert!(graph.is_sorted(), "TC requires sorted adjacency lists");
        Tc {
            graph,
            triangles: 0,
        }
    }

    /// Triangles counted so far (final after the worklist drains).
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Brute-force reference via hash-set intersection.
    pub fn reference(graph: &Csr) -> u64 {
        let sets: Vec<std::collections::HashSet<NodeId>> = (0..graph.nodes() as NodeId)
            .map(|v| graph.neighbors(v).iter().copied().collect())
            .collect();
        let mut count = 0;
        for v in 0..graph.nodes() as NodeId {
            for &u in graph.neighbors(v) {
                if u <= v {
                    continue;
                }
                for &w in graph.neighbors(v) {
                    if w <= u {
                        continue;
                    }
                    if sets[u as usize].contains(&w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

impl Operator for Tc {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn address_map(&self) -> AddressMap {
        AddressMap::wide_nodes()
    }

    fn initial_tasks(&self) -> Vec<Task> {
        (0..self.graph.nodes() as NodeId)
            .map(|v| Task::new(0, v))
            .collect()
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Chunked(16)
    }

    fn prefetch_kind(&self) -> PrefetchKind {
        PrefetchKind::TriangleCounting
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(10);
        let graph = self.graph.clone();
        let base = graph.edge_range(v).start;
        let nbrs = graph.neighbors(v);
        let range = task.resolve_range(nbrs.len());
        for i in range {
            let u = nbrs[i];
            ctx.load_edge(base + i, u);
            ctx.add_branches(1);
            if u <= v {
                continue;
            }
            ctx.load_node(u);
            for (j, &w) in nbrs.iter().enumerate().skip(i + 1) {
                ctx.load_edge(base + j, w);
                ctx.add_branches(1);
                ctx.add_instrs(4);
                if w <= u {
                    continue;
                }
                let (found, probes) = graph.has_edge(u, w);
                for p in probes {
                    ctx.load_edge(p, graph.edge_dst(p));
                    ctx.add_branches(1);
                    ctx.add_instrs(6);
                }
                if found {
                    self.triangles += 1;
                    ctx.add_instrs(2);
                }
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        let want = Tc::reference(&self.graph);
        if self.triangles != want {
            return Err(format!("counted {} triangles, want {want}", self.triangles));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::powerlaw::{self, PowerLawConfig};
    use minnow_runtime::sim_exec::{run_software, ExecConfig};

    fn sorted(mut g: Csr) -> Arc<Csr> {
        g.sort_adjacency();
        Arc::new(g)
    }

    #[test]
    fn counts_a_single_triangle() {
        let g = sorted(
            Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)], None).symmetrize(),
        );
        let mut op = Tc::new(g);
        let policy = op.default_policy();
        run_software(&mut op, policy, &ExecConfig::new(2));
        assert_eq!(op.triangles(), 1);
        op.check().unwrap();
    }

    #[test]
    fn complete_graph_k5_has_ten_triangles() {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = sorted(Csr::from_edges(5, &edges, None));
        let mut op = Tc::new(g);
        run_software(&mut op, PolicyKind::Chunked(4), &ExecConfig::new(2));
        assert_eq!(op.triangles(), 10);
    }

    #[test]
    fn matches_reference_on_community_graph() {
        let g = sorted(powerlaw::generate(&PowerLawConfig::new(250, 6, 0.9), 7));
        let mut op = Tc::new(g);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert_eq!(report.tasks as usize, op.graph().nodes());
        op.check().unwrap();
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // A path graph.
        let g = sorted(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)], None).symmetrize());
        let mut op = Tc::new(g);
        run_software(&mut op, PolicyKind::Fifo, &ExecConfig::new(1));
        assert_eq!(op.triangles(), 0);
        op.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_graph_rejected() {
        let g = Arc::new(Csr::from_edges(3, &[(0, 2), (0, 1)], None));
        let _ = Tc::new(g);
    }
}
