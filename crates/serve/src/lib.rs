//! `minnow-serve` — a resident evaluation daemon for the Minnow
//! simulator.
//!
//! Sweeps and design-space searches spend most of their wall-clock
//! re-simulating points another invocation already ran, and pay a full
//! process start (graph generation, input ingestion) per invocation.
//! This crate keeps one process resident instead: the daemon holds the
//! hot input graphs in memory (the process-wide caches in
//! `minnow_algos::suite` do the heavy lifting), answers evaluation,
//! sweep, and exploration requests over newline-delimited JSON on a
//! Unix domain socket — plus a minimal hand-rolled HTTP/1.1 listener —
//! and memoizes every result in a content-addressed [`store`] keyed by
//! *(space identity, point fingerprint, seed, scale, input digest)*.
//! A repeated evaluation is answered from the store in microseconds
//! with **zero** simulator invocations.
//!
//! Execution hides behind `minnow_bench::eval::Evaluator`: the daemon's
//! own implementation first consults the store, then pushes misses
//! through a bounded work [`queue`] with admission control (requests
//! are rejected with a retry-after hint when the queue is full) where
//! local executor threads and remote [`worker`] processes compete for
//! jobs. Workers speak the journal schema — each result line is a
//! `minnow-explore-journal/v1` record with the full wire report
//! attached — and a worker that dies mid-evaluation simply has its
//! unacknowledged job re-issued, so a successive-halving search
//! finishes with a **byte-identical** frontier whether it was served
//! locally, from the store, or by N workers with one killed midway.
//!
//! Module map:
//!
//! * [`stats`] — daemon-wide atomic counters (`serve_stats`),
//! * [`store`] — size-capped content-addressed result store with LRU
//!   eviction and append-only persistence,
//! * [`queue`] — bounded single-flight work queue,
//! * [`proto`] — the `minnow-serve-proto/v1` wire schema,
//! * [`net`] — UDS/TCP stream plumbing and capped line I/O,
//! * [`http`] — the hand-rolled HTTP/1.1 front end,
//! * [`daemon`] — the resident daemon itself,
//! * [`worker`] — the pull-mode remote worker loop,
//! * [`client`] — request/response helpers for clients and tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod http;
pub mod net;
pub mod proto;
pub mod queue;
pub mod stats;
pub mod store;
pub mod worker;

pub use daemon::{journal_filename, Daemon, ServeConfig};
pub use net::ServeAddr;
pub use stats::ServeStats;
pub use store::{store_key, Store};
pub use worker::{run_worker, WorkerConfig};
