//! # minnow-prefetch — baseline hardware prefetchers
//!
//! The comparison points of the paper's Fig. 17/20:
//!
//! * [`stride::StridePrefetcher`] — a classic table-based stride prefetcher,
//! * [`imp::Imp`] — the Indirect Memory Prefetcher (Yu et al., MICRO 2015),
//!   which extends stride streams to `A[B[i]]` patterns by reading index
//!   values out of cached memory.
//!
//! Both attach to a core's L2 through the
//! [`minnow_sim::observer::HwPrefetcher`] interface and issue marked fills,
//! so the same cache-level prefetch-efficiency accounting used for Minnow's
//! worklist-directed prefetching applies to them (paper Fig. 20 compares
//! IMP's efficiency directly).
//!
//! Their structural weaknesses — reactive operation, fixed prefetch
//! distance, no feedback throttling — are modeled faithfully, because they
//! are exactly what the paper's comparison hinges on: "if the prefetched
//! graph node has equal to or fewer edges than the prefetch distance, then
//! every issued prefetch request will be incorrect" (§6.3.3).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod imp;
pub mod stride;

pub use crate::imp::Imp;
pub use crate::stride::StridePrefetcher;
