//! Node reordering (relabeling) transforms.
//!
//! Graph-analytics locality depends heavily on node numbering: BFS-order
//! renumbering places topologically-near nodes on nearby cache lines. It
//! is a standard preprocessing step for the systems the paper compares
//! against, and it composes with the simulator: relabeled graphs run
//! through the same address map and show different MPKI.

use crate::csr::{Csr, NodeId};

/// A node permutation: `perm[old_id] = new_id`. Always a bijection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation(Vec<NodeId>);

impl Permutation {
    /// Wraps a permutation vector.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a bijection over `0..perm.len()`.
    pub fn new(perm: Vec<NodeId>) -> Self {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(
                (p as usize) < perm.len() && !seen[p as usize],
                "not a bijection"
            );
            seen[p as usize] = true;
        }
        Permutation(perm)
    }

    /// The identity permutation over `n` nodes.
    pub fn identity(n: usize) -> Self {
        Permutation((0..n as NodeId).collect())
    }

    /// New id of `old`.
    pub fn map(&self, old: NodeId) -> NodeId {
        self.0[old as usize]
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// BFS-order renumbering from `source`: reachable nodes get ids in
/// visitation order; unreachable nodes follow in old-id order.
pub fn bfs_order(graph: &Csr, source: NodeId) -> Permutation {
    let n = graph.nodes();
    let mut perm = vec![NodeId::MAX; n];
    let mut next: NodeId = 0;
    if n > 0 {
        let mut queue = std::collections::VecDeque::new();
        perm[source as usize] = next;
        next += 1;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v) {
                if perm[u as usize] == NodeId::MAX {
                    perm[u as usize] = next;
                    next += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    for p in perm.iter_mut() {
        if *p == NodeId::MAX {
            *p = next;
            next += 1;
        }
    }
    Permutation::new(perm)
}

/// Applies a permutation, producing the relabeled graph (adjacency order
/// follows the new source numbering; weights carried).
///
/// # Panics
///
/// Panics if the permutation length does not match the node count.
pub fn relabel(graph: &Csr, perm: &Permutation) -> Csr {
    assert_eq!(perm.len(), graph.nodes(), "permutation size mismatch");
    let mut edges = Vec::with_capacity(graph.edges());
    let mut weights = Vec::with_capacity(graph.edges());
    for old in 0..graph.nodes() as NodeId {
        for (_, dst, w) in graph.edges_of(old) {
            edges.push((perm.map(old), perm.map(dst)));
            weights.push(w);
        }
    }
    if graph.is_weighted() {
        Csr::from_edges(graph.nodes(), &edges, Some(&weights))
    } else {
        Csr::from_edges(graph.nodes(), &edges, None)
    }
}

/// Mean absolute id distance across edges — a cheap locality proxy
/// (smaller = neighbors on nearer cache lines).
pub fn edge_locality(graph: &Csr) -> f64 {
    if graph.edges() == 0 {
        return 0.0;
    }
    let mut total = 0u64;
    for v in 0..graph.nodes() as NodeId {
        for &u in graph.neighbors(v) {
            total += (v.abs_diff(u)) as u64;
        }
    }
    total as f64 / graph.edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform::{self, UniformConfig};

    fn edge_multiset(g: &Csr) -> Vec<(NodeId, NodeId, u32)> {
        let mut v: Vec<_> = (0..g.nodes() as NodeId)
            .flat_map(|a| g.edges_of(a).map(move |(_, b, w)| (a, b, w)))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn relabel_is_an_isomorphism() {
        let g = uniform::generate(&UniformConfig::new(200, 4), 3);
        let perm = bfs_order(&g, 0);
        let h = relabel(&g, &perm);
        h.validate().unwrap();
        assert_eq!(g.nodes(), h.nodes());
        assert_eq!(g.edges(), h.edges());
        // Mapping g's edges through perm yields exactly h's edges.
        let mut mapped: Vec<_> = edge_multiset(&g)
            .into_iter()
            .map(|(a, b, w)| (perm.map(a), perm.map(b), w))
            .collect();
        mapped.sort_unstable();
        assert_eq!(mapped, edge_multiset(&h));
    }

    #[test]
    fn bfs_order_improves_locality_on_random_graphs() {
        let g = uniform::generate(&UniformConfig::new(2000, 4), 9);
        let reordered = relabel(&g, &bfs_order(&g, 0));
        let before = edge_locality(&g);
        let after = edge_locality(&reordered);
        // Uniform random graphs have log diameter, so BFS levels are wide;
        // a ~15-20% tightening is the realistic effect size here.
        assert!(
            after < before * 0.9,
            "BFS order must tighten ids: {before:.0} -> {after:.0}"
        );
    }

    #[test]
    fn identity_relabel_preserves_graph() {
        let g = uniform::generate(&UniformConfig::new(60, 3), 2);
        let h = relabel(&g, &Permutation::identity(g.nodes()));
        assert_eq!(edge_multiset(&g), edge_multiset(&h));
    }

    #[test]
    fn unreachable_nodes_get_trailing_ids() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 0)], None);
        let perm = bfs_order(&g, 0);
        assert_eq!(perm.map(0), 0);
        assert_eq!(perm.map(1), 1);
        let mut rest = [perm.map(2), perm.map(3), perm.map(4)];
        rest.sort_unstable();
        assert_eq!(rest, [2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn permutation_rejects_duplicates() {
        let _ = Permutation::new(vec![0, 0, 1]);
    }
}
