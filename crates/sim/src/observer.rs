//! Interfaces for table-based hardware prefetchers (the paper's Fig. 17
//! comparison points: a classic stride prefetcher and IMP).
//!
//! Hardware prefetchers are *reactive*: they snoop the demand access stream
//! and predict future addresses. Indirect prefetchers like IMP additionally
//! read values out of (already cached) memory to chase `A[B[i]]` patterns,
//! which [`MemoryImage`] provides — a read-only oracle over the simulated
//! program's data, standing in for the actual DRAM contents a real
//! prefetcher would see.

use crate::cycles::Cycle;
use crate::hierarchy::MemoryHierarchy;

/// Read-only view of simulated memory contents, used by indirect
/// prefetchers to dereference pointer/index values.
pub trait MemoryImage {
    /// Reads the 64-bit value at `addr`, if the address is backed by a
    /// modeled structure (e.g. a CSR edge record's destination id).
    fn read_u64(&self, addr: u64) -> Option<u64>;
}

/// Statistics common to hardware prefetchers.
#[derive(Debug, Clone, Copy, Default)]
pub struct HwPrefetchStats {
    /// Prefetches issued into the L2.
    pub issued: u64,
    /// Predictions skipped because the line was already resident.
    pub already_resident: u64,
    /// Demand accesses observed.
    pub observed: u64,
}

/// A table-based hardware prefetcher attached to each core's L2.
pub trait HwPrefetcher: std::fmt::Debug {
    /// Prefetcher name for reports.
    fn name(&self) -> &'static str;

    /// Observes one demand load and possibly issues prefetch fills.
    ///
    /// * `value` — the loaded value when the modeled structure is known
    ///   (index/pointer loads), used by indirect prefetchers.
    fn on_demand_load(
        &mut self,
        core: usize,
        addr: u64,
        value: Option<u64>,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        image: &dyn MemoryImage,
    );

    /// Accumulated statistics.
    fn stats(&self) -> HwPrefetchStats;
}

/// A [`MemoryImage`] with no readable contents (for pattern prefetchers
/// that never dereference values).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyImage;

impl MemoryImage for EmptyImage {
    fn read_u64(&self, _addr: u64) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image_reads_nothing() {
        assert_eq!(EmptyImage.read_u64(0x1234), None);
    }
}
