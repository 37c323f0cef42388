//! # minnow-algos — the paper's benchmark suite (§6.1)
//!
//! Seven parallel graph workloads implemented as
//! [`minnow_runtime::Operator`]s over CSR graphs, each functionally
//! verified against an independent serial reference:
//!
//! | module | workload | ordering | notes |
//! |---|---|---|---|
//! | [`sssp`] | single-source shortest path | delta-stepping (OBIM) | also Dijkstra/Bellman-Ford via policy choice |
//! | [`bfs`]  | breadth-first search | hop distance (OBIM) | used for both *BFS* and *G500* |
//! | [`cc`]   | connected components | ascending label | min-label propagation |
//! | [`pr`]   | PageRank | descending residual | push-based, atomics-heavy |
//! | [`tc`]   | triangle counting | none | node-iterator-hashed, 64B nodes, custom prefetch |
//! | [`bc`]   | bipartite coloring | none | 2-coloring propagation |
//!
//! [`suite`] binds each workload to its Table 1 input analogue and gives the
//! bench harness a uniform way to instantiate the whole suite.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod host;
pub mod pr;
pub mod sssp;
pub mod suite;
pub mod tc;

pub use crate::suite::WorkloadKind;
