//! Compressed sparse row (CSR) graph representation.
//!
//! The paper stores inputs "in memory in standard CSR format, with 32B nodes
//! (64B for TC) and 16B edges" (§6.2). This module provides the logical CSR;
//! [`crate::layout`] maps it onto simulated addresses.
//!
//! A `Csr` owns its three sections (`row_ptr`, `col`, `weights`) either as
//! plain vectors or as byte ranges of a memory-mapped
//! [`minnow-csr-image`](crate::image) file — the zero-copy load path. The
//! two representations are indistinguishable through the public API and
//! compare equal when their logical contents match.

use std::ops::Range;
use std::sync::Arc;

use crate::mmap::Mapping;

/// Node identifier. All generated graphs fit comfortably in 32 bits.
pub type NodeId = u32;

/// Where a [`Csr`]'s sections live.
#[derive(Debug, Clone)]
enum Store {
    /// Sections held in owned vectors (every mutable path).
    Owned {
        row_ptr: Vec<u64>,
        col: Vec<NodeId>,
        weights: Vec<u32>,
    },
    /// Sections borrowed from a shared file mapping (zero-copy image load).
    Mapped(MappedSections),
}

/// Byte ranges of the three CSR sections inside one shared [`Mapping`].
///
/// Offsets are validated (alignment + bounds) by [`Csr::from_mapped`], so the
/// slice reinterpretations below are sound. Only meaningful on little-endian
/// hosts; the image loader refuses the mapped path elsewhere.
#[derive(Debug, Clone)]
pub(crate) struct MappedSections {
    map: Arc<Mapping>,
    /// (byte offset, element count) of the `u64` row-pointer section.
    row_ptr: (usize, usize),
    /// (byte offset, element count) of the `u32` column section.
    col: (usize, usize),
    /// (byte offset, element count) of the `u32` weight section (count 0
    /// for unweighted graphs).
    weights: (usize, usize),
}

impl MappedSections {
    fn row_ptr(&self) -> &[u64] {
        // SAFETY: offset/length bounds and 8-byte alignment were checked in
        // `Csr::from_mapped`; the mapping is immutable and outlives `self`.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_ptr().add(self.row_ptr.0) as *const u64,
                self.row_ptr.1,
            )
        }
    }

    fn col(&self) -> &[NodeId] {
        // SAFETY: as above, with 4-byte alignment.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_ptr().add(self.col.0) as *const NodeId,
                self.col.1,
            )
        }
    }

    fn weights(&self) -> &[u32] {
        // SAFETY: as above, with 4-byte alignment.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_ptr().add(self.weights.0) as *const u32,
                self.weights.1,
            )
        }
    }
}

/// A directed graph in CSR form with optional `u32` edge weights.
///
/// Invariants (checked in debug builds and by the property-test suite):
/// * `row_ptr` has `nodes() + 1` entries, is monotonically non-decreasing,
///   starts at 0, and ends at `edges()`,
/// * every column entry is `< nodes()`,
/// * `weights` is either empty or exactly `edges()` long.
#[derive(Debug, Clone)]
pub struct Csr {
    store: Store,
    sorted: bool,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.sorted == other.sorted
            && self.row_ptr() == other.row_ptr()
            && self.col() == other.col()
            && self.weights() == other.weights()
    }
}

impl Eq for Csr {}

impl Csr {
    /// Builds a CSR from an edge list. Edges keep their relative order
    /// within each source node.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= nodes`, or if `weights` is `Some` with a
    /// length different from `edges.len()`.
    pub fn from_edges(nodes: usize, edges: &[(NodeId, NodeId)], weights: Option<&[u32]>) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), edges.len(), "one weight per edge required");
        }
        let mut degree = vec![0u64; nodes];
        for &(u, v) in edges {
            assert!((u as usize) < nodes, "source {u} out of range");
            assert!((v as usize) < nodes, "target {v} out of range");
            degree[u as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(nodes + 1);
        let mut acc = 0u64;
        row_ptr.push(0);
        for d in &degree {
            acc += d;
            row_ptr.push(acc);
        }
        let mut cursor: Vec<u64> = row_ptr[..nodes].to_vec();
        let mut col = vec![0 as NodeId; edges.len()];
        let mut out_w = if weights.is_some() {
            vec![0u32; edges.len()]
        } else {
            Vec::new()
        };
        for (i, &(u, v)) in edges.iter().enumerate() {
            let slot = cursor[u as usize] as usize;
            col[slot] = v;
            if let Some(w) = weights {
                out_w[slot] = w[i];
            }
            cursor[u as usize] += 1;
        }
        Csr {
            store: Store::Owned {
                row_ptr,
                col,
                weights: out_w,
            },
            sorted: false,
        }
    }

    /// Assembles a CSR directly from its three sections, validating every
    /// invariant (including, when `sorted` is claimed, that each adjacency
    /// list really is ascending — [`Csr::has_edge`] relies on it).
    ///
    /// This is the constructor behind the streaming ingest pipeline
    /// ([`crate::ingest`]) and the buffered image load path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn from_parts(
        row_ptr: Vec<u64>,
        col: Vec<NodeId>,
        weights: Vec<u32>,
        sorted: bool,
    ) -> Result<Csr, String> {
        let g = Csr {
            store: Store::Owned {
                row_ptr,
                col,
                weights,
            },
            sorted,
        };
        g.check(sorted)?;
        Ok(g)
    }

    /// Wraps sections the caller has already passed through a [`Check`]
    /// whose claim was `sorted`.
    pub(crate) fn from_checked_parts(
        row_ptr: Vec<u64>,
        col: Vec<NodeId>,
        weights: Vec<u32>,
        sorted: bool,
    ) -> Csr {
        Csr {
            store: Store::Owned {
                row_ptr,
                col,
                weights,
            },
            sorted,
        }
    }

    /// Assembles a CSR over byte ranges of a shared file mapping — the
    /// zero-copy image load path. Validates alignment and bounds of the
    /// ranges plus every logical invariant.
    ///
    /// `row_ptr`/`col`/`weights` are `(byte_offset, element_count)` pairs
    /// into `map`.
    pub(crate) fn from_mapped(
        map: Arc<Mapping>,
        row_ptr: (usize, usize),
        col: (usize, usize),
        weights: (usize, usize),
        sorted: bool,
    ) -> Result<Csr, String> {
        let check = |name: &str, (off, count): (usize, usize), width: usize| {
            let bytes = count
                .checked_mul(width)
                .ok_or_else(|| format!("{name} section size overflows"))?;
            let end = off
                .checked_add(bytes)
                .ok_or_else(|| format!("{name} section end overflows"))?;
            if end > map.len() {
                return Err(format!("{name} section extends past the mapping"));
            }
            if !(map.as_ptr() as usize + off).is_multiple_of(width) {
                return Err(format!("{name} section is misaligned"));
            }
            Ok(())
        };
        check("row_ptr", row_ptr, 8)?;
        check("col", col, 4)?;
        check("weights", weights, 4)?;
        if row_ptr.1 == 0 {
            return Err("row_ptr must have at least one entry".into());
        }
        let g = Csr {
            store: Store::Mapped(MappedSections {
                map,
                row_ptr,
                col,
                weights,
            }),
            sorted,
        };
        g.check(sorted)?;
        Ok(g)
    }

    fn row_ptr(&self) -> &[u64] {
        match &self.store {
            Store::Owned { row_ptr, .. } => row_ptr,
            Store::Mapped(m) => m.row_ptr(),
        }
    }

    fn col(&self) -> &[NodeId] {
        match &self.store {
            Store::Owned { col, .. } => col,
            Store::Mapped(m) => m.col(),
        }
    }

    fn weights(&self) -> &[u32] {
        match &self.store {
            Store::Owned { weights, .. } => weights,
            Store::Mapped(m) => m.weights(),
        }
    }

    /// The three raw sections `(row_ptr, col, weights)`; `weights` is empty
    /// for unweighted graphs. This is the serialization surface used by the
    /// on-disk image writer and the conformance tests.
    pub fn raw_parts(&self) -> (&[u64], &[NodeId], &[u32]) {
        (self.row_ptr(), self.col(), self.weights())
    }

    /// Whether the sections are borrowed from a file mapping rather than
    /// owned vectors.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped(_))
    }

    /// Converts mapped sections into owned vectors (no-op when already
    /// owned). Mutating operations call this first.
    fn make_owned(&mut self) {
        if let Store::Mapped(m) = &self.store {
            self.store = Store::Owned {
                row_ptr: m.row_ptr().to_vec(),
                col: m.col().to_vec(),
                weights: m.weights().to_vec(),
            };
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.row_ptr().len() - 1
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.col().len()
    }

    /// Whether edge weights are present.
    pub fn is_weighted(&self) -> bool {
        !self.weights().is_empty()
    }

    /// Whether every adjacency list is sorted (enables [`Csr::has_edge`]).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: NodeId) -> usize {
        let r = self.edge_range(v);
        r.end - r.start
    }

    /// Range of edge indices belonging to `v`.
    pub fn edge_range(&self, v: NodeId) -> Range<usize> {
        let v = v as usize;
        assert!(v < self.nodes(), "node {v} out of range");
        let row_ptr = self.row_ptr();
        row_ptr[v] as usize..row_ptr[v + 1] as usize
    }

    /// Neighbors of `v` as a slice.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.col()[self.edge_range(v)]
    }

    /// Destination of edge index `e`.
    pub fn edge_dst(&self, e: usize) -> NodeId {
        self.col()[e]
    }

    /// Weight of edge index `e` (1 for unweighted graphs).
    pub fn edge_weight(&self, e: usize) -> u32 {
        let weights = self.weights();
        if weights.is_empty() {
            1
        } else {
            weights[e]
        }
    }

    /// Iterates `(edge_index, dst, weight)` for node `v`.
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (usize, NodeId, u32)> + '_ {
        self.edge_range(v)
            .map(move |e| (e, self.edge_dst(e), self.edge_weight(e)))
    }

    /// Sorts every adjacency list (with its weights) ascending by target,
    /// enabling binary-search membership tests. Mapped graphs are copied
    /// into owned storage first.
    pub fn sort_adjacency(&mut self) {
        self.make_owned();
        let Store::Owned {
            row_ptr,
            col,
            weights,
        } = &mut self.store
        else {
            unreachable!("make_owned just ran");
        };
        for v in 0..row_ptr.len() - 1 {
            let r = row_ptr[v] as usize..row_ptr[v + 1] as usize;
            if weights.is_empty() {
                col[r].sort_unstable();
            } else {
                let mut pairs: Vec<(NodeId, u32)> = col[r.clone()]
                    .iter()
                    .copied()
                    .zip(weights[r.clone()].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|p| p.0);
                for (i, (c, w)) in pairs.into_iter().enumerate() {
                    col[r.start + i] = c;
                    weights[r.start + i] = w;
                }
            }
        }
        self.sorted = true;
    }

    /// Binary-search membership test (the TC inner loop, paper §6.1).
    ///
    /// Returns the probed edge indices (for memory-trace generation) and
    /// whether the edge exists.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency lists have not been sorted via
    /// [`Csr::sort_adjacency`].
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> (bool, Vec<usize>) {
        assert!(self.sorted, "has_edge requires sorted adjacency");
        let r = self.edge_range(u);
        let col = self.col();
        let mut probes = Vec::new();
        let (mut lo, mut hi) = (r.start, r.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push(mid);
            match col[mid].cmp(&v) {
                std::cmp::Ordering::Equal => return (true, probes),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        (false, probes)
    }

    /// Returns the symmetric closure of this graph (each directed edge gets
    /// its reverse, duplicates removed). Weights are carried over; when both
    /// directions exist with different weights the smaller wins.
    pub fn symmetrize(&self) -> Csr {
        let mut pairs: Vec<(NodeId, NodeId, u32)> = Vec::with_capacity(self.edges() * 2);
        for v in 0..self.nodes() as NodeId {
            for (_, dst, w) in self.edges_of(v) {
                pairs.push((v, dst, w));
                pairs.push((dst, v, w));
            }
        }
        pairs.sort_unstable();
        pairs.dedup_by(|a, b| {
            if a.0 == b.0 && a.1 == b.1 {
                b.2 = b.2.min(a.2);
                true
            } else {
                false
            }
        });
        let edges: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();
        let weights: Vec<u32> = pairs.iter().map(|&(_, _, w)| w).collect();
        let mut g = if self.is_weighted() {
            Csr::from_edges(self.nodes(), &edges, Some(&weights))
        } else {
            Csr::from_edges(self.nodes(), &edges, None)
        };
        g.sorted = true; // built from a sorted, deduped pair list
        g
    }

    /// Largest out-degree and the node that has it; `(0, 0)` for an empty
    /// graph.
    pub fn max_degree(&self) -> (NodeId, usize) {
        let mut best = (0 as NodeId, 0usize);
        for v in 0..self.nodes() as NodeId {
            let d = self.out_degree(v);
            if d > best.1 {
                best = (v, d);
            }
        }
        best
    }

    /// Validates the CSR invariants, returning a description of the first
    /// violation. Used by property tests and the generator test-suite.
    pub fn validate(&self) -> Result<(), String> {
        self.check(false)
    }

    /// [`Csr::validate`], plus, when `sorted` is claimed, that every
    /// adjacency list really is ascending, in one pass over `col`.
    fn check(&self, sorted: bool) -> Result<(), String> {
        let mut check = Check::new(self.row_ptr(), self.edges(), sorted);
        check.feed(self.col());
        check.finish(self.weights().len())
    }
}

/// The CSR invariant checks, made in one pass over `col`, which may arrive
/// in consecutive pieces.
///
/// Faults are reported in a fixed order whatever order the pass meets
/// them in: `row_ptr` faults, then the first out-of-range column, then a
/// weights length that does not match, then the first node whose
/// adjacency is not ascending (checked only when `sorted` is claimed).
pub(crate) struct Check<'a> {
    row_ptr: &'a [u64],
    /// Node count, as the column bound.
    n: NodeId,
    sorted: bool,
    /// The first `row_ptr` or column fault; stops the pass.
    fault: Option<String>,
    /// The first node whose adjacency descends somewhere.
    unsorted: Option<usize>,
    /// Index in `col` of the next entry fed.
    at: usize,
    /// The node owning entry `at`, and where its row ends.
    node: usize,
    row_end: usize,
    /// The last entry fed in the current row (0 at a row's start).
    prev: NodeId,
}

impl<'a> Check<'a> {
    /// Checks `row_ptr` against an edge count of `edges`; the columns
    /// follow through [`Check::feed`].
    pub(crate) fn new(row_ptr: &'a [u64], edges: usize, sorted: bool) -> Check<'a> {
        let fault = if row_ptr.is_empty() {
            Some("row_ptr must have at least one entry")
        } else if row_ptr[0] != 0 {
            Some("row_ptr must start at 0")
        } else if row_ptr[row_ptr.len() - 1] != edges as u64 {
            Some("row_ptr must end at edge count")
        } else if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            Some("row_ptr must be non-decreasing")
        } else {
            None
        };
        Check {
            row_ptr,
            n: row_ptr.len().saturating_sub(1) as NodeId,
            sorted,
            fault: fault.map(String::from),
            unsorted: None,
            at: 0,
            node: 0,
            // Every entry is at most `edges` once `row_ptr` checks out.
            row_end: row_ptr.get(1).map_or(0, |&end| end as usize),
            prev: 0,
        }
    }

    /// Checks the next piece of `col`.
    pub(crate) fn feed(&mut self, col: &[NodeId]) {
        if self.fault.is_some() {
            return;
        }
        let n = self.n;
        if !self.sorted {
            if let Some(bad) = col.iter().find(|&&c| c >= n) {
                self.fault = Some(format!("column {bad} out of range (n={n})"));
            }
            return;
        }
        let mut rest = col;
        while !rest.is_empty() {
            // Entries remain, so `at` is below the last row end and the
            // node owning it exists.
            while self.row_end <= self.at {
                self.node += 1;
                self.row_end = self.row_ptr[self.node + 1] as usize;
                self.prev = 0;
            }
            let (row, tail) = rest.split_at((self.row_end - self.at).min(rest.len()));
            let mut prev = self.prev;
            let mut descends = false;
            for &c in row {
                if c >= n {
                    self.fault = Some(format!("column {c} out of range (n={n})"));
                    return;
                }
                descends |= c < prev;
                prev = c;
            }
            if descends && self.unsorted.is_none() {
                self.unsorted = Some(self.node);
            }
            self.prev = prev;
            self.at += row.len();
            rest = tail;
        }
    }

    /// The first fault, given the weights section's length.
    pub(crate) fn finish(self, weights: usize) -> Result<(), String> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if weights != 0 && weights as u64 != self.row_ptr[self.row_ptr.len() - 1] {
            return Err("weights length must match edges".into());
        }
        match self.unsorted {
            Some(v) => Err(format!("adjacency of node {v} is not sorted")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> {1,2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], None)
    }

    #[test]
    fn from_edges_builds_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.nodes(), 4);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.out_degree(0), 2);
        g.validate().unwrap();
    }

    #[test]
    fn weights_follow_their_edges() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1), (1, 0)], Some(&[7, 3, 9]));
        assert!(g.is_weighted());
        let got: Vec<(NodeId, u32)> = g.edges_of(0).map(|(_, d, w)| (d, w)).collect();
        assert_eq!(got, vec![(2, 7), (1, 3)]);
        assert_eq!(g.edge_weight(2), 9);
    }

    #[test]
    fn unweighted_edges_weigh_one() {
        let g = diamond();
        assert_eq!(g.edge_weight(0), 1);
    }

    #[test]
    fn sort_adjacency_enables_binary_search() {
        let mut g = Csr::from_edges(5, &[(0, 4), (0, 1), (0, 3), (1, 2)], None);
        g.sort_adjacency();
        assert!(g.is_sorted());
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
        let (found, probes) = g.has_edge(0, 3);
        assert!(found);
        assert!(!probes.is_empty());
        let (found, _) = g.has_edge(0, 2);
        assert!(!found);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn has_edge_requires_sorting() {
        let g = diamond();
        let _ = g.has_edge(0, 1);
    }

    #[test]
    fn sort_adjacency_keeps_weights_attached() {
        let mut g = Csr::from_edges(2, &[(0, 1), (0, 0)], Some(&[5, 2]));
        g.sort_adjacency();
        let got: Vec<(NodeId, u32)> = g.edges_of(0).map(|(_, d, w)| (d, w)).collect();
        assert_eq!(got, vec![(0, 2), (1, 5)]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2)], None);
        let s = g.symmetrize();
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.neighbors(2), &[1]);
        s.validate().unwrap();
    }

    #[test]
    fn symmetrize_takes_min_weight() {
        let g = Csr::from_edges(2, &[(0, 1), (1, 0)], Some(&[9, 4]));
        let s = g.symmetrize();
        assert_eq!(s.edge_weight(0), 4);
        assert_eq!(s.edge_weight(1), 4);
    }

    #[test]
    fn max_degree_finds_hub() {
        let g = Csr::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)], None);
        assert_eq!(g.max_degree(), (2, 3));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Csr::from_edges(0, &[], None);
        assert_eq!(g.nodes(), 0);
        assert_eq!(g.max_degree(), (0, 0));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_endpoint() {
        let _ = Csr::from_edges(2, &[(0, 2)], None);
    }

    #[test]
    fn edge_range_partitions_edges() {
        let g = diamond();
        let mut total = 0;
        for v in 0..g.nodes() as NodeId {
            total += g.edge_range(v).len();
        }
        assert_eq!(total, g.edges());
    }

    #[test]
    fn from_parts_reassembles_identical_graph() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1), (1, 0)], Some(&[7, 3, 9]));
        let (rp, col, w) = g.raw_parts();
        let rebuilt = Csr::from_parts(rp.to_vec(), col.to_vec(), w.to_vec(), false).unwrap();
        assert_eq!(g, rebuilt);
        assert!(!rebuilt.is_mapped());
    }

    #[test]
    fn from_parts_rejects_broken_invariants() {
        // row_ptr not ending at the edge count.
        assert!(Csr::from_parts(vec![0, 5], vec![0], vec![], false).is_err());
        // Column out of range.
        assert!(Csr::from_parts(vec![0, 1], vec![3], vec![], false).is_err());
        // Weight length mismatch.
        assert!(Csr::from_parts(vec![0, 1], vec![0], vec![1, 2], false).is_err());
        // Claimed sorted but descending adjacency.
        assert!(Csr::from_parts(vec![0, 2, 2], vec![1, 0], vec![], true).is_err());
        // The same adjacency without the claim is fine.
        assert!(Csr::from_parts(vec![0, 2, 2], vec![1, 0], vec![], false).is_ok());
    }

    #[test]
    fn check_reports_faults_in_a_fixed_order_in_any_pieces() {
        // Node 0's row descends before node 2's column 7 is out of range;
        // the range fault still wins, and the weights length comes between.
        let row_ptr = [0u64, 2, 2, 4];
        // (col, weights length, sorted claim, the fault reported)
        type Case = (&'static [NodeId], usize, bool, Result<(), &'static str>);
        let cases: [Case; 6] = [
            (&[2, 1, 0, 7], 0, true, Err("column 7 out of range (n=3)")),
            (
                &[2, 1, 0, 1],
                3,
                true,
                Err("weights length must match edges"),
            ),
            (
                &[2, 1, 0, 1],
                0,
                true,
                Err("adjacency of node 0 is not sorted"),
            ),
            (
                &[1, 2, 1, 0],
                4,
                true,
                Err("adjacency of node 2 is not sorted"),
            ),
            (&[2, 1, 0, 1], 0, false, Ok(())),
            (&[1, 2, 0, 1], 4, true, Ok(())),
        ];
        for (col, weights, sorted, want) in cases {
            for split in 0..=col.len() {
                let mut check = Check::new(&row_ptr, col.len(), sorted);
                check.feed(&col[..split]);
                check.feed(&col[split..]);
                let got = check.finish(weights);
                assert_eq!(
                    got.as_ref().map_err(String::as_str),
                    want.as_ref().map_err(|e| *e),
                    "{col:?} at {split}"
                );
            }
        }
        let mut check = Check::new(&[0, 3], 2, true);
        check.feed(&[0, 0]);
        assert_eq!(
            check.finish(0),
            Err("row_ptr must end at edge count".into())
        );
    }

    #[test]
    fn equality_ignores_storage_but_not_sorted_flag() {
        let a = Csr::from_edges(2, &[(0, 1)], None);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.sort_adjacency();
        assert_ne!(a, b, "sorted flag participates in equality");
    }

    /// `bytes` in a temp file, mapped whole: the ground for the
    /// [`Csr::from_mapped`] boundary checks.
    #[cfg(unix)]
    fn mapped(tag: &str, bytes: &[u8]) -> Arc<Mapping> {
        let path =
            std::env::temp_dir().join(format!("minnow-csr-test-{}-{tag}.bin", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let map = Mapping::of_file(&std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        Arc::new(map)
    }

    #[cfg(unix)]
    fn le_bytes(row_ptr: &[u64], col: &[u32], weights: &[u32]) -> Vec<u8> {
        let mut bytes: Vec<u8> = row_ptr.iter().flat_map(|v| v.to_le_bytes()).collect();
        bytes.extend(col.iter().chain(weights).flat_map(|v| v.to_le_bytes()));
        bytes
    }

    #[cfg(unix)]
    #[test]
    fn mapped_zero_edge_graph_has_an_empty_col_at_the_mapping_end() {
        let map = mapped("zero-edge", &le_bytes(&[0, 0, 0, 0], &[], &[]));
        assert_eq!(map.len(), 32);
        let g = Csr::from_mapped(map, (0, 4), (32, 0), (32, 0), true).unwrap();
        assert_eq!((g.nodes(), g.edges()), (3, 0));
        assert_eq!(g.raw_parts(), (&[0, 0, 0, 0][..], &[][..], &[][..]));
        assert!(g.neighbors(2).is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn mapped_weights_may_end_exactly_at_the_mapping_end() {
        let map = mapped("weights-end", &le_bytes(&[0, 2, 3], &[0, 1, 1], &[5, 6, 7]));
        assert_eq!(map.len(), 48);
        let g = Csr::from_mapped(Arc::clone(&map), (0, 3), (24, 3), (36, 3), true).unwrap();
        assert_eq!(
            g.raw_parts(),
            (&[0, 2, 3][..], &[0, 1, 1][..], &[5, 6, 7][..])
        );
        for (weights, fault) in [
            ((36, 4), "weights section extends past the mapping"),
            ((40, 3), "weights section extends past the mapping"),
        ] {
            let err = Csr::from_mapped(Arc::clone(&map), (0, 3), (24, 3), weights, true);
            assert_eq!(err.unwrap_err(), fault, "{weights:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn mapped_ranges_that_misalign_or_overflow_are_refused() {
        let map = mapped("ranges", &le_bytes(&[0, 2, 3], &[0, 1, 1], &[5, 6, 7]));
        let cases = [
            ((4, 3), (24, 3), (36, 3), "row_ptr section is misaligned"),
            ((0, 3), (26, 3), (36, 3), "col section is misaligned"),
            ((0, 3), (24, 3), (37, 2), "weights section is misaligned"),
            (
                (0, usize::MAX),
                (24, 3),
                (36, 3),
                "row_ptr section size overflows",
            ),
            (
                (0, 3),
                (24, usize::MAX / 2),
                (36, 3),
                "col section size overflows",
            ),
            (
                (0, 3),
                (usize::MAX - 3, 1),
                (36, 3),
                "col section end overflows",
            ),
            (
                (0, 3),
                (24, 3),
                (usize::MAX, 0),
                "weights section extends past the mapping",
            ),
            (
                (0, 7),
                (24, 3),
                (36, 3),
                "row_ptr section extends past the mapping",
            ),
            (
                (0, 0),
                (24, 3),
                (36, 3),
                "row_ptr must have at least one entry",
            ),
        ];
        for (row_ptr, col, weights, fault) in cases {
            let err = Csr::from_mapped(Arc::clone(&map), row_ptr, col, weights, false);
            assert_eq!(err.unwrap_err(), fault, "{row_ptr:?} {col:?} {weights:?}");
        }
    }
}
