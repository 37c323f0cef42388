//! # minnow-sim — timing substrate for the Minnow reproduction
//!
//! This crate provides the simulated 64-core CMP that the Minnow paper
//! (Zhang et al., ASPLOS 2018) evaluates on:
//!
//! * [`cache`] — set-associative caches with LRU replacement and the per-line
//!   *prefetch bit* that backs Minnow's credit-based throttling (paper §5.3.1),
//! * [`hierarchy`] — a per-core L1D/L2 + shared banked L3 hierarchy with a
//!   directory-style invalidation model for cross-core sharing,
//! * [`noc`] — an 8x8 mesh network-on-chip with X-Y routing and per-link
//!   queueing contention (paper Table 3),
//! * [`dram`] — a multi-channel DRAM model with bandwidth queueing
//!   (paper Fig. 21 sweeps channel count),
//! * [`core`] — an analytic out-of-order core timing model parameterized by
//!   ROB/RS/LQ/SQ sizes, with branch-misprediction and x86 atomic-fence
//!   serialization effects (paper §3.3, Fig. 4) and delinquent-load MLP
//!   extraction (paper §3.4, Fig. 6),
//! * [`contend`] — a virtual-time serialization model for shared software
//!   structures (locks, worklist buckets) including coherence hand-off costs,
//! * [`config`] — the Table 3 machine description plus experiment scaling.
//!
//! The substrate is deliberately *trace-agnostic*: upper layers
//! (`minnow-runtime`, `minnow-core`) drive it with memory access streams and
//! per-task instruction summaries, and all cache/NoC/DRAM behaviour — MPKI,
//! prefetch efficiency, bandwidth saturation — is emergent rather than
//! scripted.
//!
//! ## Example
//!
//! ```
//! use minnow_sim::config::SimConfig;
//! use minnow_sim::hierarchy::{AccessKind, MemoryHierarchy};
//!
//! let cfg = SimConfig::small(4); // 4-core scaled-down machine
//! let mut mem = MemoryHierarchy::new(&cfg);
//! let r = mem.access(0, 0x1000, AccessKind::Load, 0);
//! assert!(r.latency >= cfg.l1d.latency); // cold miss goes to memory
//! let r2 = mem.access(0, 0x1000, AccessKind::Load, r.latency);
//! assert_eq!(r2.latency, cfg.l1d.latency); // now an L1 hit
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod config;
pub mod contend;
pub mod core;
pub mod cycles;
pub mod dram;
pub mod hierarchy;
pub mod noc;
pub mod observer;
pub mod stats;
pub mod trace;

pub use crate::config::SimConfig;
pub use crate::cycles::Cycle;
pub use crate::hierarchy::{AccessKind, AccessResult, CacheLevel, MemoryHierarchy};
pub use crate::stats::{CycleAccounting, CycleBin, Histogram, MetricsRegistry};
pub use crate::trace::{TraceEvent, TracePhase, Tracer};
