//! # minnow-graph — CSR graphs, generators, and statistics
//!
//! Provides the graph substrate for the Minnow reproduction:
//!
//! * [`csr`] — compressed sparse row graphs with optional edge weights,
//!   sorted-adjacency support (binary-search `has_edge` for triangle
//!   counting), and symmetrization,
//! * [`layout`] — the synthetic address map that places nodes (32B/64B) and
//!   edges (16B) into the simulated 64-bit address space, matching the
//!   paper's in-memory CSR layout (§6.2),
//! * [`gen`] — seeded generators reproducing the *structural axes* of the
//!   paper's Table 1 inputs: high-diameter grids (road networks), uniform
//!   random graphs, RMAT/Kronecker scale-free graphs (Graph500), power-law
//!   graphs (wiki), and bipartite rating graphs (amazon),
//! * [`inputs`] — named, scaled-down analogues of the seven Table 1 inputs,
//! * [`io`] — external graph formats (edge list, Matrix Market, Graph500
//!   binary tuples, DIMACS) unified behind [`io::GraphSource`],
//! * [`ingest`] — bounded-memory streaming CSR construction over those
//!   formats (external sort; scale-20+ inputs build without materializing
//!   the edge list),
//! * [`image`] — the `minnow-csr-image/v2` on-disk CSR format with
//!   zero-copy mmap loading, plus the simulated-memory [`image::GraphImage`],
//! * [`stats`] — degree distributions and double-sweep diameter estimation
//!   (regenerates Table 1's columns),
//! * [`dsu`] — a union-find used by reference implementations and tests.
//!
//! ## Example
//!
//! ```
//! use minnow_graph::gen::grid;
//! use minnow_graph::stats::GraphStats;
//!
//! let g = grid::generate(&grid::GridConfig::new(16, 16).weighted(1..=9), 42);
//! let s = GraphStats::compute(&g, 42);
//! assert_eq!(s.nodes, 256);
//! assert!(s.est_diameter >= 30); // high-diameter road-network analogue
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod csr;
pub mod dsu;
pub mod gen;
pub mod image;
pub mod ingest;
pub mod inputs;
pub mod io;
pub mod layout;
mod mmap;
mod pipeline;
pub mod reorder;
pub mod stats;

pub use crate::csr::{Csr, NodeId};
pub use crate::layout::AddressMap;
