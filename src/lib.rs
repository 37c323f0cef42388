//! # minnow — facade crate
//!
//! Re-exports the whole Minnow reproduction stack under one roof. See the
//! individual crates for details:
//!
//! * [`sim`] — timing substrate (caches, NoC, DRAM, OOO core model),
//! * [`graph`] — CSR graphs, generators, statistics,
//! * [`runtime`] — Galois-like task framework (worklists, executors, BSP),
//! * [`engine`] — the Minnow engines themselves (worklist offload,
//!   threadlets, credit-throttled worklist-directed prefetching),
//! * [`prefetch`] — baseline hardware prefetchers (stride, IMP),
//! * [`algos`] — the seven paper workloads (SSSP, BFS, G500, CC, PR, TC, BC),
//! * [`bench`] — the experiment harness (figure benches, the parallel
//!   sweep engine behind `minnow-sweep`),
//! * [`explore`] — checkpointed design-space exploration with early
//!   stopping and Pareto frontier extraction (`minnow-explore`),
//! * [`serve`] — the resident evaluation daemon: content-addressed
//!   memoization, bounded work queue, journal-protocol remote workers
//!   (`minnow-serve`, `minnow-client`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use minnow_algos as algos;
pub use minnow_bench as bench;
pub use minnow_core as engine;
pub use minnow_explore as explore;
pub use minnow_graph as graph;
pub use minnow_prefetch as prefetch;
pub use minnow_runtime as runtime;
pub use minnow_serve as serve;
pub use minnow_sim as sim;
