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
        Csr::from_edges_in(Vec::with_capacity(nodes + 1), nodes, edges, weights)
    }

    /// [`Csr::from_edges`] with the row pointers built in `row_ptr`, an
    /// empty vector with room for `nodes + 1` entries, so that a caller can
    /// refuse a node count whose row pointers do not fit in memory.
    pub(crate) fn from_edges_in(
        mut row_ptr: Vec<u64>,
        nodes: usize,
        edges: &[(NodeId, NodeId)],
        weights: Option<&[u32]>,
    ) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), edges.len(), "one weight per edge required");
        }
        row_ptr.resize(nodes + 1, 0);
        for &(u, v) in edges {
            assert!((u as usize) < nodes, "source {u} out of range");
            assert!((v as usize) < nodes, "target {v} out of range");
            row_ptr[u as usize + 1] += 1;
        }
        for v in 1..=nodes {
            row_ptr[v] += row_ptr[v - 1];
        }
        let mut col = vec![0 as NodeId; edges.len()];
        let mut out_w = if weights.is_some() {
            vec![0u32; edges.len()]
        } else {
            Vec::new()
        };
        // `row_ptr[u]` serves as node u's cursor, and ends at its row's
        // end, the start of row u + 1.
        for (i, &(u, v)) in edges.iter().enumerate() {
            let slot = row_ptr[u as usize] as usize;
            col[slot] = v;
            if let Some(w) = weights {
                out_w[slot] = w[i];
            }
            row_ptr[u as usize] += 1;
        }
        row_ptr.copy_within(..nodes, 1);
        row_ptr[0] = 0;
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
        let col = self.col();
        let mut check = Check::new(self.row_ptr(), col.len(), sorted);
        for piece in col.chunks(PIECE) {
            check.feed(piece);
        }
        check.finish(col, self.weights().len())
    }
}

/// Columns [`Csr::check`] feeds at a time, one image block's worth: the row
/// starts inside a piece are then read from cache.
const PIECE: usize = crate::image::BLOCK_BYTES / std::mem::size_of::<NodeId>();

/// The CSR invariant checks, made in one pass over `col`, which may arrive
/// in consecutive pieces.
///
/// The pass is two branch-free reductions that vectorise: whether any
/// column is out of range, and, when `sorted` is claimed, how many
/// descents `col[i] < col[i-1]` there are, less those that fall where a
/// non-empty row starts, which are legal. [`Check::finish`] rescans `col`
/// only when a column is out of range or a descent is left, and names the
/// fault from that scan, so the messages are those of a row-by-row pass.
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
    /// The `row_ptr` fault; the pass is skipped.
    fault: Option<&'static str>,
    /// Whether a column fed is `n` or more.
    over: bool,
    /// Descents fed, less those at the start of a non-empty row: zero
    /// when every row is ascending.
    descents: u64,
    /// Index in `col` of the next entry fed.
    at: usize,
    /// The last entry fed (0 before the first, so entry 0 is no descent).
    last: NodeId,
    /// The next `row_ptr` entry whose row start the pass has not reached.
    row: usize,
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
            fault,
            over: false,
            descents: 0,
            at: 0,
            last: 0,
            row: 1,
        }
    }

    /// Checks the next piece of `col`.
    pub(crate) fn feed(&mut self, piece: &[NodeId]) {
        let Some(&last) = piece.last() else {
            return;
        };
        if self.fault.is_some() {
            return;
        }
        let (over, descents) = fold(self.n, self.last, piece);
        self.over |= over;
        if self.sorted {
            // `row_ptr` is non-decreasing and ends at `col`'s length, so the
            // starts below this piece's end that earlier pieces left all
            // fall inside it. Each new start value is a non-empty row's.
            let rows = self.row_ptr;
            let end = (self.at + piece.len()) as u64;
            let mut legal = 0;
            let mut v = self.row;
            while v < rows.len() && rows[v] < end {
                let i = (rows[v] - self.at as u64) as usize;
                let prev = if i == 0 { self.last } else { piece[i - 1] };
                legal += u64::from(rows[v] > rows[v - 1]) & u64::from(piece[i] < prev);
                v += 1;
            }
            self.row = v;
            self.descents += descents - legal;
        }
        self.last = last;
        self.at += piece.len();
    }

    /// The first fault, given the whole of `col` fed and the weights
    /// section's length.
    pub(crate) fn finish(self, col: &[NodeId], weights: usize) -> Result<(), String> {
        if let Some(fault) = self.fault {
            return Err(fault.into());
        }
        debug_assert_eq!(self.at, col.len(), "every column is fed");
        let n = self.n;
        if self.over {
            if let Some(bad) = col.iter().find(|&&c| c >= n) {
                return Err(format!("column {bad} out of range (n={n})"));
            }
        }
        if weights != 0 && weights != col.len() {
            return Err("weights length must match edges".into());
        }
        if self.descents != 0 {
            let unsorted = self.row_ptr.windows(2).position(|w| {
                col[w[0] as usize..w[1] as usize]
                    .windows(2)
                    .any(|p| p[1] < p[0])
            });
            if let Some(v) = unsorted {
                return Err(format!("adjacency of node {v} is not sorted"));
            }
        }
        Ok(())
    }
}

/// Whether `piece` holds an entry of `n` or more, and how many descents
/// `piece[i] < piece[i-1]` it has, `piece[0] < last` included. The loop
/// has no branch, and the compiler vectorises it.
fn fold(n: NodeId, last: NodeId, piece: &[NodeId]) -> (bool, u64) {
    /// Entries per block: a block's `u32` count cannot overflow.
    const BLOCK: usize = 1 << 20;
    let (cur, prev) = (&piece[1..], &piece[..piece.len() - 1]);
    let mut over = u32::from(piece[0] >= n);
    let mut descents = u64::from(piece[0] < last);
    for (cur, prev) in cur.chunks(BLOCK).zip(prev.chunks(BLOCK)) {
        let mut down = 0u32;
        for (&c, &p) in cur.iter().zip(prev) {
            over |= u32::from(c >= n);
            down += u32::from(c < p);
        }
        descents += u64::from(down);
    }
    (over != 0, descents)
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

    /// The per-row pass [`Check`] replaced, kept as the reference its
    /// reductions must agree with: it walks each row, stops at the first
    /// out-of-range column and remembers the first row that descends.
    struct RowCheck<'a> {
        row_ptr: &'a [u64],
        n: NodeId,
        sorted: bool,
        fault: Option<String>,
        unsorted: Option<usize>,
        at: usize,
        node: usize,
        row_end: usize,
        prev: NodeId,
    }

    impl<'a> RowCheck<'a> {
        fn new(row_ptr: &'a [u64], edges: usize, sorted: bool) -> RowCheck<'a> {
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
            RowCheck {
                row_ptr,
                n: row_ptr.len().saturating_sub(1) as NodeId,
                sorted,
                fault: fault.map(String::from),
                unsorted: None,
                at: 0,
                node: 0,
                row_end: row_ptr.get(1).map_or(0, |&end| end as usize),
                prev: 0,
            }
        }

        fn feed(&mut self, col: &[NodeId]) {
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

        fn finish(self, weights: usize) -> Result<(), String> {
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

    fn reference(
        row_ptr: &[u64],
        col: &[NodeId],
        weights: usize,
        sorted: bool,
    ) -> Result<(), String> {
        let mut check = RowCheck::new(row_ptr, col.len(), sorted);
        check.feed(col);
        check.finish(weights)
    }

    /// [`Check`] fed `col` in the pieces that `cuts` (ascending) end, and
    /// the descents it left for `finish` to rescan.
    fn checked(
        row_ptr: &[u64],
        col: &[NodeId],
        weights: usize,
        sorted: bool,
        cuts: &[usize],
    ) -> (Result<(), String>, u64) {
        let mut check = Check::new(row_ptr, col.len(), sorted);
        let mut from = 0;
        for &cut in cuts.iter().chain([&col.len()]) {
            check.feed(&col[from..cut]);
            from = cut;
        }
        let left = check.descents;
        (check.finish(col, weights), left)
    }

    /// Every cut of `col` into three pieces gives the reference's result,
    /// and a valid sorted CSR leaves no descent to rescan.
    fn agrees_in_any_pieces(
        row_ptr: &[u64],
        col: &[NodeId],
        weights: usize,
        sorted: bool,
    ) -> Result<(), String> {
        let want = reference(row_ptr, col, weights, sorted);
        for i in 0..=col.len() {
            for j in i..=col.len() {
                let (got, left) = checked(row_ptr, col, weights, sorted, &[i, j]);
                let at = format!("{row_ptr:?} {col:?} w={weights} sorted={sorted} cut at {i}, {j}");
                assert_eq!(got, want, "{at}");
                if want.is_ok() {
                    assert_eq!(left, 0, "{at}");
                }
            }
        }
        want
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
            let got = agrees_in_any_pieces(&row_ptr, col, weights, sorted);
            assert_eq!(
                got.as_ref().map_err(String::as_str),
                want.as_ref().map_err(|e| *e),
                "{col:?}"
            );
        }
        assert_eq!(
            checked(&[0, 3], &[0, 0], 0, true, &[1]).0,
            Err("row_ptr must end at edge count".into())
        );
    }

    #[test]
    fn check_agrees_with_the_row_pass_on_each_injected_fault() {
        // (row_ptr, col, weights length, the result) with `sorted` claimed.
        type Case = (
            &'static [u64],
            &'static [NodeId],
            usize,
            Result<(), &'static str>,
        );
        let cases: [Case; 14] = [
            // Ascending rows, each dropping at its start (legal), with
            // empty rows leading, inside and trailing.
            (
                &[0, 0, 0, 3, 3, 5, 7, 7, 7],
                &[2, 4, 7, 0, 1, 0, 7],
                7,
                Ok(()),
            ),
            // Equal neighbours do not descend.
            (
                &[0, 3, 3],
                &[1, 1, 0],
                0,
                Err("adjacency of node 0 is not sorted"),
            ),
            (&[0, 3, 3], &[0, 1, 1], 0, Ok(())),
            // A descent inside a row after an empty row.
            (
                &[0, 0, 2, 4],
                &[1, 2, 2, 1],
                0,
                Err("adjacency of node 2 is not sorted"),
            ),
            // A descent across an empty row is a row start: legal.
            (&[0, 2, 2, 4], &[1, 2, 0, 1], 0, Ok(())),
            // Out of range, first in `col` order, beats a descent before it.
            (
                &[0, 2, 3],
                &[1, 0, 9],
                0,
                Err("column 9 out of range (n=2)"),
            ),
            (
                &[0, 2, 3],
                &[5, 3, 9],
                0,
                Err("column 5 out of range (n=2)"),
            ),
            // The weights length, after range and before order.
            (
                &[0, 2, 2],
                &[1, 0],
                3,
                Err("weights length must match edges"),
            ),
            (
                &[0, 2, 2],
                &[1, 1],
                1,
                Err("weights length must match edges"),
            ),
            // Each `row_ptr` fault, before everything in `col`.
            (&[], &[], 0, Err("row_ptr must have at least one entry")),
            (&[1, 2], &[9, 0], 0, Err("row_ptr must start at 0")),
            (&[0, 1], &[9, 0], 0, Err("row_ptr must end at edge count")),
            (
                &[0, 2, 1, 2],
                &[9, 0],
                0,
                Err("row_ptr must be non-decreasing"),
            ),
            // No edges at all.
            (&[0, 0, 0], &[], 0, Ok(())),
        ];
        for (row_ptr, col, weights, want) in cases {
            let got = agrees_in_any_pieces(row_ptr, col, weights, true);
            assert_eq!(
                got.as_ref().map_err(String::as_str),
                want.as_ref().map_err(|e| *e),
                "{row_ptr:?} {col:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Random CSRs, some rows sorted, some columns out of range, some
        /// weights lengths and `row_ptr`s broken: every cut into pieces
        /// gives the row pass's result, text and all.
        #[test]
        fn check_agrees_with_the_row_pass(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..1000, 0..6), 0..10),
            order in 0usize..3,
            mask in 0u32..1024,
            range in 0usize..4,
            weights in 0usize..4,
            fault in 0usize..8,
            sorted in 0usize..4,
        ) {
            let n = rows.len() as u32;
            let mut row_ptr = vec![0u64];
            let mut col = Vec::new();
            for (v, row) in rows.iter().enumerate() {
                // One case in four may hold columns up to n + 1.
                let bound = if range == 0 { n + 2 } else { n.max(1) };
                let mut row: Vec<NodeId> = row.iter().map(|&c| c % bound).collect();
                // All rows ascending, some, or none sorted.
                if order == 0 || (order == 1 && mask >> v & 1 == 1) {
                    row.sort_unstable();
                }
                col.extend(row);
                row_ptr.push(col.len() as u64);
            }
            let edges = col.len();
            match fault {
                0 => row_ptr.clear(),
                1 => row_ptr[0] = 1,
                2 => *row_ptr.last_mut().unwrap() += 1,
                3 if row_ptr.len() > 2 => row_ptr[1] = edges as u64 + 1,
                _ => {}
            }
            let weights = match weights {
                0 => 0,
                1 => edges + 1,
                2 => edges.saturating_sub(1),
                _ => edges,
            };
            let _ = agrees_in_any_pieces(&row_ptr, &col, weights, sorted != 0);
        }
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
