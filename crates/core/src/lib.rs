//! # minnow-core — the Minnow engines
//!
//! The paper's primary contribution: per-core programmable offload engines
//! that (a) take worklist scheduling off the worker's critical path and
//! (b) perform *worklist-directed prefetching* — using the scheduler's
//! perfect knowledge of upcoming tasks to prefetch their inputs into the
//! core's L2, throttled by a credit system tied to L2 line occupancy.
//!
//! * [`engine`] — the per-core engine: 64-entry local task queue with
//!   bucket-priority filtering (Fig. 12), background spill/refill timeline,
//! * [`offload`] — [`offload::MinnowScheduler`], a drop-in
//!   [`minnow_runtime::SchedulerModel`]: workers pay 3-cycle enqueues and
//!   10-cycle dequeues while engines maintain the software global OBIM
//!   worklist through their core's L2,
//! * [`wdp`] — the `prefetchTask`/`prefetchEdge` programs (Fig. 14) and the
//!   TC custom program, expanded natively into line streams, and the engine
//!   back-end issue pipeline (32-entry load buffer, context switch per load),
//! * [`credits`] — the credit pool (§5.3.1),
//! * [`area`] — the §5.4 area model (< 1% per Skylake slice).
//!
//! Two functional models stand beside the timed path, driven only by their
//! own tests: [`isa`], the five `minnow_*` instructions with TLB-miss
//! exceptions (§4.1), and [`threadlet`], reservation-based deadlock
//! avoidance (§5.3.2). The timed engine raises no exceptions and makes no
//! reservations; it caps the threadlet backlog instead (EXPERIMENTS.md,
//! deviation 6).
//!
//! ## Example: Minnow vs the software worklist
//!
//! ```
//! use minnow_core::offload::{MinnowConfig, MinnowScheduler};
//! use minnow_runtime::sched::SchedulerModel;
//! use minnow_runtime::{PrefetchKind, Task};
//! use minnow_graph::AddressMap;
//! use minnow_sim::{MemoryHierarchy, SimConfig};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(minnow_graph::gen::grid::generate(
//!     &minnow_graph::gen::grid::GridConfig::new(8, 8), 1));
//! let mut mem = MemoryHierarchy::new(&SimConfig::small(2));
//! let mut sched = MinnowScheduler::new(
//!     graph, AddressMap::standard(), PrefetchKind::Standard, 2,
//!     MinnowConfig::paper(0));
//! let cost = sched.enqueue(0, Task::new(0, 5), 0, &mut mem);
//! assert_eq!(cost, 3); // fire-and-forget accelerator call
//! let d = sched.dequeue(0, 100, &mut mem);
//! assert_eq!(d.cost, 10); // local-queue hit
//! assert_eq!(d.task.unwrap().node, 5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod area;
pub mod credits;
pub mod engine;
pub mod isa;
pub mod offload;
pub mod threadlet;
pub mod wdp;

pub use crate::credits::CreditPool;
pub use crate::engine::Engine;
pub use crate::isa::{MinnowDevice, MinnowException};
pub use crate::offload::{MinnowConfig, MinnowScheduler};
