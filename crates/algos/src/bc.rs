//! Bipartite coloring (paper §6.1): decide 2-colorability by propagating
//! alternating colors to neighbors. Like TC, BC gains nothing from priority
//! ordering — it bounds Minnow's benefit from the scheduling side while
//! still being memory-bound (2.47x from prefetching alone, §6.3.2).

use std::sync::Arc;

use minnow_graph::{Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, Task, TaskCtx};

/// Node colors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Not yet colored.
    None,
    /// First color class.
    Red,
    /// Second color class.
    Blue,
}

impl Color {
    fn opposite(self) -> Color {
        match self {
            Color::Red => Color::Blue,
            Color::Blue => Color::Red,
            Color::None => Color::None,
        }
    }
}

/// The bipartite-coloring operator.
#[derive(Debug)]
pub struct Bc {
    graph: Arc<Csr>,
    color: Vec<Color>,
    conflicts: u64,
}

impl Bc {
    /// Creates the operator (all nodes uncolored).
    pub fn new(graph: Arc<Csr>) -> Self {
        let n = graph.nodes();
        Bc {
            graph,
            color: vec![Color::None; n],
            conflicts: 0,
        }
    }

    /// Final colors.
    pub fn colors(&self) -> &[Color] {
        &self.color
    }

    /// Odd-cycle conflicts found (0 iff the graph is bipartite).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether the graph was 2-colorable.
    pub fn is_bipartite(&self) -> bool {
        self.conflicts == 0
    }
}

impl Operator for Bc {
    fn name(&self) -> &'static str {
        "BC"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn initial_tasks(&self) -> Vec<Task> {
        // One seed per node: later seeds find their component already
        // colored and just re-propagate their actual color. BC gains
        // nothing from ordering, so every task is priority 0.
        (0..self.graph.nodes() as NodeId)
            .map(|v| Task::new(0, v))
            .collect()
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Chunked(16)
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(8);
        ctx.add_branches(1);
        if self.color[v as usize] == Color::None {
            self.color[v as usize] = Color::Red;
            ctx.store_node(v);
        }
        let mine = self.color[v as usize];
        let expected = mine.opposite();
        let graph = self.graph.clone();
        let base = graph.edge_range(v).start;
        for slot in task.resolve_range(graph.out_degree(v)) {
            let e = base + slot;
            let u = graph.edge_dst(e);
            ctx.load_edge(e, u);
            ctx.load_node(u);
            ctx.add_branches(1);
            ctx.add_instrs(6);
            match self.color[u as usize] {
                Color::None => {
                    self.color[u as usize] = expected;
                    ctx.atomic_node(u);
                    ctx.push(Task::new(task.priority, u));
                }
                c if c == mine => {
                    self.conflicts += 1;
                }
                _ => {}
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        // Every node with an edge must be colored, and every edge must
        // cross color classes exactly when no conflict was reported.
        for v in 0..self.graph.nodes() as NodeId {
            if self.graph.out_degree(v) > 0 && self.color[v as usize] == Color::None {
                return Err(format!("node {v} left uncolored"));
            }
        }
        if self.conflicts == 0 {
            for v in 0..self.graph.nodes() as NodeId {
                for &u in self.graph.neighbors(v) {
                    if self.color[v as usize] == self.color[u as usize] {
                        return Err(format!("edge {v}-{u} monochromatic"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::bipartite::{self, BipartiteConfig};
    use minnow_runtime::sim_exec::{run_software, ExecConfig};

    #[test]
    fn bipartite_input_two_colors_cleanly() {
        let g = Arc::new(bipartite::generate(
            &BipartiteConfig::new(400, 150, 4, 1.1),
            6,
        ));
        let mut op = Bc::new(g);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert!(!report.timed_out);
        assert!(op.is_bipartite());
        op.check().unwrap();
    }

    #[test]
    fn odd_cycle_reports_conflict() {
        let g = Arc::new(Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)], None).symmetrize());
        let mut op = Bc::new(g);
        run_software(&mut op, PolicyKind::Fifo, &ExecConfig::new(1));
        assert!(!op.is_bipartite());
        assert!(op.conflicts() > 0);
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let g = Arc::new(
            Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], None).symmetrize(),
        );
        let mut op = Bc::new(g);
        run_software(&mut op, PolicyKind::Chunked(4), &ExecConfig::new(2));
        assert!(op.is_bipartite());
        op.check().unwrap();
        assert_ne!(op.colors()[0], op.colors()[1]);
        assert_eq!(op.colors()[0], op.colors()[2]);
    }

    #[test]
    fn disconnected_components_all_colored() {
        let g = Arc::new(
            Csr::from_edges(6, &[(0, 1), (2, 3), (4, 5)], None).symmetrize(),
        );
        let mut op = Bc::new(g);
        run_software(&mut op, PolicyKind::Chunked(4), &ExecConfig::new(2));
        op.check().unwrap();
        assert!(op.is_bipartite());
    }
}
