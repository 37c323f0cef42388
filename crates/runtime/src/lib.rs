//! # minnow-runtime — a Galois-like task framework over the simulated CMP
//!
//! This crate reproduces the software side of the Minnow paper's evaluation
//! stack (Galois 2.2.1 with the paper's §6.2.1 optimizations):
//!
//! * [`task`] — priority/node work items with edge sub-ranges,
//! * [`worklist`] — scheduling policies: FIFO, LIFO, chunked FIFO, OBIM
//!   (bucketed priorities), strict priority queue (paper §2.1, Fig. 3),
//! * [`sched`] — worker-side timing of worklist operations: instruction
//!   costs, serialization, cache-line ping-pong (paper Fig. 5, 11),
//! * [`sim_exec`] — the virtual-time parallel executor that runs operators
//!   against the simulated memory hierarchy and core model,
//! * [`split`] — task splitting for mega-hub nodes (paper §6.2.1),
//! * [`bsp`] — a GraphMat-like bulk-synchronous baseline incl. the bucketed
//!   `GMat*` variant (paper §3.1, Fig. 2/3),
//! * [`op`] — the operator interface workloads implement,
//! * [`par`] — a real host-parallel executor proving the framework runs as
//!   an actual parallel program, not only under simulation.
//!
//! ## Example: running a workload under the software scheduler
//!
//! ```
//! use minnow_runtime::sim_exec::{run_software, ExecConfig};
//! use minnow_runtime::worklist::PolicyKind;
//! # use minnow_runtime::{op::{Operator, TaskCtx, PrefetchKind}, task::Task};
//! # use std::sync::Arc;
//! # #[derive(Debug)]
//! # struct Noop(Arc<minnow_graph::Csr>);
//! # impl Operator for Noop {
//! #     fn name(&self) -> &'static str { "noop" }
//! #     fn graph(&self) -> &Arc<minnow_graph::Csr> { &self.0 }
//! #     fn initial_tasks(&self) -> Vec<Task> { vec![Task::new(0, 0)] }
//! #     fn default_policy(&self) -> PolicyKind { PolicyKind::Fifo }
//! #     fn execute(&mut self, _t: Task, ctx: &mut TaskCtx) { ctx.add_instrs(10); }
//! # }
//! let graph = Arc::new(minnow_graph::Csr::from_edges(2, &[(0, 1)], None));
//! let mut op = Noop(graph);
//! let report = run_software(&mut op, PolicyKind::Fifo, &ExecConfig::new(2));
//! assert_eq!(report.tasks, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bsp;
pub mod op;
pub mod par;
pub mod sched;
pub mod scratch;
pub mod sim_exec;
pub mod split;
pub mod task;
pub mod worklist;

pub use crate::op::{Operator, PrefetchKind, TaskCtx};
pub use crate::sched::{SchedulerModel, SoftwareScheduler};
pub use crate::sim_exec::{run, run_software, ExecConfig, RunReport};
pub use crate::task::Task;
pub use crate::worklist::{PolicyKind, Worklist};
