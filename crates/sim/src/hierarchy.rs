//! The full CMP memory hierarchy: per-core L1D and L2, a shared banked L3,
//! the mesh NoC between tiles, and multi-channel DRAM behind the L3.
//!
//! This is the component the Minnow engine plugs into: engines access memory
//! *through their core's L2* (paper §4), demand accesses consume prefetch
//! bits and return credits (§5.3.1), and cross-core sharing is modeled with a
//! directory that invalidates remote private copies on writes — which is what
//! makes worklist cache lines ping-pong and atomic-heavy workloads (PR)
//! expensive.
//!
//! The model is a *presence + virtual time* simulation: it answers "how long
//! does this access take starting at cycle `now`, and what happened in the
//! caches", leaving instruction-level overlap to [`crate::core`].

use fxhash::FxMap64;

use crate::cache::Cache;
use crate::config::SimConfig;
use crate::cycles::Cycle;
use crate::dram::Dram;
use crate::noc::Noc;
use crate::stats::MetricsRegistry;
use crate::trace::{TraceEvent, Tracer};

/// Kind of demand access issued by a worker core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A normal load.
    Load,
    /// A normal store (write-allocate).
    Store,
    /// An atomic read-modify-write (x86 `lock`-prefixed). Serializing
    /// (fence) effects are applied by the core model; here it behaves as a
    /// store with ownership acquisition.
    Atomic,
}

impl AccessKind {
    /// Whether the access writes the line.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::Atomic)
    }
}

/// Which level serviced a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheLevel {
    /// Hit in the core's L1D.
    L1,
    /// Hit in the core's private L2.
    L2,
    /// Hit in the shared L3.
    L3,
    /// Serviced by DRAM.
    Memory,
}

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles from issue to data return.
    pub latency: Cycle,
    /// Level that serviced the access.
    pub level: CacheLevel,
    /// The access consumed a line that the Minnow prefetcher had marked in
    /// this core's L2 (one credit returns to this core's engine).
    pub prefetch_consumed: bool,
}

/// Outcome of a Minnow prefetch fill into a core's L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchResult {
    /// Cycles until the line is resident in L2 (L3/DRAM fetch time).
    pub latency: Cycle,
    /// A new line was filled and marked; the engine must consume a credit.
    /// `false` means the line was already resident (no credit consumed).
    pub filled: bool,
    /// Level the data came from.
    pub level: CacheLevel,
}

/// Per-core demand traffic statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreMemStats {
    /// Demand accesses issued.
    pub accesses: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 misses (the paper's MPKI numerator, Fig. 18).
    pub l2_misses: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
    /// Minnow-engine accesses (worklist spills/fills through the L2);
    /// tracked separately so core MPKI reflects worker demand traffic.
    pub engine_accesses: u64,
    /// Engine accesses that missed the L2.
    pub engine_l2_misses: u64,
}

/// The complete memory subsystem of the simulated CMP.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    noc: Noc,
    dram: Dram,
    l1_latency: Cycle,
    l2_latency: Cycle,
    l3_latency: Cycle,
    cores: usize,
    /// Shared `log2(line_bytes)` of every cache level: all levels use one
    /// line size, so a demand address is decomposed to its line address
    /// exactly once and the parts flow down L1→L2→L3 (see
    /// [`crate::cache::AddrParts`]).
    line_shift: u32,
    /// Directory: line address -> bitmask of cores with a private copy.
    /// Point-access only (never iterated), so the deterministic
    /// open-addressed map is observationally identical to a `HashMap`.
    directory: FxMap64<u64>,
    /// Prefetch credits freed since the last drain (demand consumption,
    /// eviction, or remote invalidation of a marked line), per core.
    pending_credits: Vec<u64>,
    /// Arrival times of in-flight prefetches: a demand access that consumes
    /// a marked line before its fill has arrived stalls until it does.
    prefetch_ready: Vec<FxMap64<Cycle>>,
    /// Marked lines lost to remote-write invalidations (vs capacity
    /// evictions), for prefetch-efficiency diagnosis.
    prefetch_invalidated: u64,
    core_stats: Vec<CoreMemStats>,
    /// Structured event sink; disabled by default (zero timing impact
    /// either way — tracing only observes).
    tracer: Tracer,
}

impl MemoryHierarchy {
    /// Builds a cold hierarchy for the given machine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0` or `cfg.cores > 64` (the directory uses a
    /// 64-bit sharer mask, matching the paper's 64-core machine).
    pub fn new(cfg: &SimConfig) -> Self {
        assert!(cfg.cores > 0 && cfg.cores <= 64, "1..=64 cores supported");
        assert!(
            cfg.l1d.line_bytes == cfg.l2.line_bytes && cfg.l2.line_bytes == cfg.l3.line_bytes,
            "all cache levels must share one line size"
        );
        MemoryHierarchy {
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
            noc: Noc::new(cfg.mesh_width, cfg.noc_hop_cycles, cfg.noc_link_bytes),
            dram: Dram::new(cfg.mem_channels, cfg.mem_latency, cfg.mem_channel_service),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3.latency,
            cores: cfg.cores,
            line_shift: cfg.l1d.line_bytes.trailing_zeros(),
            directory: FxMap64::new(),
            pending_credits: vec![0; cfg.cores],
            prefetch_ready: vec![FxMap64::new(); cfg.cores],
            prefetch_invalidated: 0,
            core_stats: vec![CoreMemStats::default(); cfg.cores],
            tracer: Tracer::disabled(),
        }
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Installs a tracer; the hierarchy and anything that clones the
    /// handle via [`MemoryHierarchy::tracer`] (executors, prefetch
    /// pipelines) will report structured events into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// L3 bank (tile) holding a line — used for NoC distance.
    fn bank_of(&self, line_addr: u64) -> usize {
        (line_addr.wrapping_mul(0x517C_C1B7_2722_0A95) % self.cores as u64) as usize
    }

    /// Demand access from `core` at virtual time `now`.
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind, now: Cycle) -> AccessResult {
        debug_assert!(core < self.cores);
        let write = kind.is_write();
        // One decomposition for every level (the line address doubles as
        // the tag, the directory key, and the prefetch-arrival key).
        let line = addr >> self.line_shift;
        let stats = &mut self.core_stats[core];
        stats.accesses += 1;

        // L1.
        let l1 = self.l1[core].access_line(line, write);
        if l1.hit {
            // The data is hot in L1, but a (re-)prefetched copy may still be
            // marked in L2: consume the mark so its credit recycles instead
            // of pinning the pool (paper §5.3.1: accessed marked lines
            // return their credit).
            let mut prefetch_consumed = false;
            if self.l2[core].consume_mark_line(line) {
                self.pending_credits[core] += 1;
                self.prefetch_ready[core].remove(line);
                prefetch_consumed = true;
            }
            let mut latency = self.l1_latency;
            if write {
                latency += self.ownership_cost(core, line, now);
            }
            return AccessResult {
                latency,
                level: CacheLevel::L1,
                prefetch_consumed,
            };
        }
        self.core_stats[core].l1_misses += 1;

        // L2 (where Minnow prefetch bits live).
        let l2 = self.l2[core].access_line(line, write);
        if l2.hit {
            self.fill_private(core, line, write, FillDepth::L1Only, now);
            let mut latency = self.l2_latency;
            if l2.prefetch_consumed {
                self.pending_credits[core] += 1;
                latency = latency.max(self.hit_under_miss_stall(core, line, now));
            }
            if write {
                latency += self.ownership_cost(core, line, now);
            }
            return AccessResult {
                latency,
                level: CacheLevel::L2,
                prefetch_consumed: l2.prefetch_consumed,
            };
        }
        self.core_stats[core].l2_misses += 1;

        // Beyond the private caches.
        let (beyond_latency, level) = self.fetch_from_shared(core, line, now + self.l2_latency);
        self.fill_private(core, line, write, FillDepth::L1AndL2, now);
        self.directory_add_sharer(core, line);
        let mut latency = self.l2_latency + beyond_latency;
        if write {
            latency += self.ownership_cost(core, line, now);
        }
        AccessResult {
            latency,
            level,
            prefetch_consumed: false,
        }
    }

    /// Minnow engine prefetch: fetch `addr` into `core`'s L2, marking the
    /// line. Does not touch L1 (the engine attaches at L2, paper §4).
    pub fn prefetch_fill(&mut self, core: usize, addr: u64, now: Cycle) -> PrefetchResult {
        debug_assert!(core < self.cores);
        let line = addr >> self.line_shift;
        if self.l2[core].probe_line(line) {
            return PrefetchResult {
                latency: self.l2_latency,
                filled: false,
                level: CacheLevel::L2,
            };
        }
        let (beyond_latency, level) = self.fetch_from_shared(core, line, now + self.l2_latency);
        if let Some(ev) = self.l2[core].fill_line(line, false, true) {
            if ev.prefetch_unused {
                self.pending_credits[core] += 1;
                self.prefetch_ready[core].remove(ev.line_addr);
            }
            self.directory_remove_sharer_line(core, ev.line_addr);
            let line = ev.line_addr;
            let unused = ev.prefetch_unused as u64;
            self.tracer.emit(|| {
                TraceEvent::instant("evict", "cache", core as u32, now)
                    .with_arg("line", line)
                    .with_arg("prefetch_unused", unused)
            });
        }
        self.directory_add_sharer(core, line);
        let latency = self.l2_latency + beyond_latency;
        // The line is marked resident now, but its data only arrives at
        // `now + latency`; early demand consumers stall until then.
        self.prefetch_ready[core].insert(line, now + latency);
        self.tracer.emit(|| {
            TraceEvent::complete("fill", "cache", core as u32, now, latency).with_arg("line", line)
        });
        PrefetchResult {
            latency,
            filled: true,
            level,
        }
    }

    /// Engine-side demand load through the core's L2 (worklist spill/fill
    /// traffic). Consumes prefetch bits like any demand access but never
    /// touches L1.
    pub fn engine_access(
        &mut self,
        core: usize,
        addr: u64,
        kind: AccessKind,
        now: Cycle,
    ) -> AccessResult {
        debug_assert!(core < self.cores);
        let write = kind.is_write();
        let line = addr >> self.line_shift;
        self.core_stats[core].engine_accesses += 1;
        let l2 = self.l2[core].access_line(line, write);
        if l2.hit {
            let mut latency = self.l2_latency;
            if l2.prefetch_consumed {
                self.pending_credits[core] += 1;
                latency = latency.max(self.hit_under_miss_stall(core, line, now));
            }
            if write {
                latency += self.ownership_cost(core, line, now);
            }
            return AccessResult {
                latency,
                level: CacheLevel::L2,
                prefetch_consumed: l2.prefetch_consumed,
            };
        }
        self.core_stats[core].engine_l2_misses += 1;
        let (beyond_latency, level) = self.fetch_from_shared(core, line, now + self.l2_latency);
        if let Some(ev) = self.l2[core].fill_line(line, write, false) {
            if ev.prefetch_unused {
                self.pending_credits[core] += 1;
                self.prefetch_ready[core].remove(ev.line_addr);
            }
            self.directory_remove_sharer_line(core, ev.line_addr);
            let line = ev.line_addr;
            let unused = ev.prefetch_unused as u64;
            self.tracer.emit(|| {
                TraceEvent::instant("evict", "cache", core as u32, now)
                    .with_arg("line", line)
                    .with_arg("prefetch_unused", unused)
            });
        }
        self.directory_add_sharer(core, line);
        let mut latency = self.l2_latency + beyond_latency;
        if write {
            latency += self.ownership_cost(core, line, now);
        }
        AccessResult {
            latency,
            level,
            prefetch_consumed: l2.prefetch_consumed,
        }
    }

    /// Drains prefetch credits returned to `core`'s engine by evictions and
    /// remote invalidations since the last drain.
    pub fn drain_returned_credits(&mut self, core: usize) -> u64 {
        std::mem::take(&mut self.pending_credits[core])
    }

    /// Per-core demand statistics.
    pub fn core_stats(&self, core: usize) -> &CoreMemStats {
        &self.core_stats[core]
    }

    /// Sums demand statistics across cores.
    pub fn total_stats(&self) -> CoreMemStats {
        let mut t = CoreMemStats::default();
        for s in &self.core_stats {
            t.accesses += s.accesses;
            t.l1_misses += s.l1_misses;
            t.l2_misses += s.l2_misses;
            t.l3_misses += s.l3_misses;
            t.engine_accesses += s.engine_accesses;
            t.engine_l2_misses += s.engine_l2_misses;
        }
        t
    }

    /// The L2 cache of one core (prefetch-efficiency stats live here).
    pub fn l2_cache(&self, core: usize) -> &Cache {
        &self.l2[core]
    }

    /// The shared L3 cache.
    pub fn l3_cache(&self) -> &Cache {
        &self.l3
    }

    /// Marked (prefetched, unused) lines lost to remote-write invalidations.
    pub fn prefetch_invalidated(&self) -> u64 {
        self.prefetch_invalidated
    }

    /// The DRAM model (for bandwidth/queueing stats).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The NoC model (for congestion stats).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Snapshots hierarchy-wide metrics into a labeled registry:
    /// demand/engine traffic counters, prefetch health, and the DRAM
    /// and NoC queueing histograms. Labels are stable and sorted, so
    /// two snapshots of identical runs compare equal.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let t = self.total_stats();
        reg.set("mem.accesses", t.accesses);
        reg.set("mem.l1_misses", t.l1_misses);
        reg.set("mem.l2_misses", t.l2_misses);
        reg.set("mem.l3_misses", t.l3_misses);
        reg.set("mem.engine_accesses", t.engine_accesses);
        reg.set("mem.engine_l2_misses", t.engine_l2_misses);
        reg.set("mem.prefetch_invalidated", self.prefetch_invalidated);
        reg.set("dram.accesses", self.dram.accesses());
        reg.set("noc.packets", self.noc.packets());
        reg.set("noc.hops", self.noc.total_hops());
        reg.insert_histogram("dram.queue_cycles", self.dram.queue_histogram().clone());
        reg.insert_histogram("noc.queue_cycles", self.noc.queue_histogram().clone());
        reg
    }

    /// Resets all statistics, keeping cache contents (post-warmup).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
        for s in &mut self.core_stats {
            *s = CoreMemStats::default();
        }
    }

    // ---- internals -------------------------------------------------------

    /// Remaining cycles until an in-flight prefetch of `line` arrives in
    /// `core`'s L2 (0 when already arrived). Consumes the arrival record.
    fn prefetch_arrival_stall(&mut self, core: usize, line: u64, now: Cycle) -> Cycle {
        match self.prefetch_ready[core].remove(line) {
            Some(ready) => ready.saturating_sub(now),
            None => 0,
        }
    }

    /// [`Self::prefetch_arrival_stall`], tracing the hit-under-miss span
    /// when a demand access catches an in-flight prefetch.
    fn hit_under_miss_stall(&mut self, core: usize, line: u64, now: Cycle) -> Cycle {
        let stall = self.prefetch_arrival_stall(core, line, now);
        if stall > 0 {
            self.tracer.emit(|| {
                TraceEvent::complete("hit_under_miss", "cache", core as u32, now, stall)
                    .with_arg("line", line)
            });
        }
        stall
    }

    /// Fetches a line from L3/DRAM on behalf of `core`; returns (latency
    /// beyond the private caches, servicing level) and fills the L3.
    fn fetch_from_shared(&mut self, core: usize, line: u64, now: Cycle) -> (Cycle, CacheLevel) {
        let bank = self.bank_of(line);
        let req = self.noc.route(core, bank, 16, now);
        let l3 = self.l3.access_line(line, false);
        if l3.hit {
            let resp = self.noc.route(bank, core, 64, now + req + self.l3_latency);
            return (req + self.l3_latency + resp, CacheLevel::L3);
        }
        self.core_stats[core].l3_misses += 1;
        let mem = self.dram.access(line, now + req + self.l3_latency);
        self.l3.fill_line(line, false, false);
        let resp = self
            .noc
            .route(bank, core, 64, now + req + self.l3_latency + mem);
        if self.tracer.is_enabled() {
            let queued = mem - self.dram.base_latency();
            let hops = self.noc.total_hops();
            self.tracer
                .emit(|| TraceEvent::counter("dram_queue", "dram", core as u32, now, queued));
            self.tracer
                .emit(|| TraceEvent::counter("noc_hops", "noc", core as u32, now, hops));
        }
        (req + self.l3_latency + mem + resp, CacheLevel::Memory)
    }

    /// Fill the private caches after a hit at an outer level.
    fn fill_private(&mut self, core: usize, line: u64, write: bool, depth: FillDepth, now: Cycle) {
        if matches!(depth, FillDepth::L1AndL2) {
            if let Some(ev) = self.l2[core].fill_line(line, write, false) {
                if ev.prefetch_unused {
                    self.pending_credits[core] += 1;
                    self.prefetch_ready[core].remove(ev.line_addr);
                }
                self.directory_remove_sharer_line(core, ev.line_addr);
                let line = ev.line_addr;
                let unused = ev.prefetch_unused as u64;
                self.tracer.emit(|| {
                    TraceEvent::instant("evict", "cache", core as u32, now)
                        .with_arg("line", line)
                        .with_arg("prefetch_unused", unused)
                });
            }
        }
        self.l1[core].fill_line(line, write, false);
    }

    /// Write-ownership: invalidate other cores' private copies and charge a
    /// coherence round-trip when any existed.
    fn ownership_cost(&mut self, core: usize, line: u64, now: Cycle) -> Cycle {
        let Some(mask) = self.directory.get_mut(line) else {
            self.directory.insert(line, 1u64 << core);
            return 0;
        };
        let others = *mask & !(1u64 << core);
        if others == 0 {
            *mask |= 1u64 << core;
            return 0;
        }
        *mask = 1u64 << core;
        let mut cost = 0;
        let mut m = others;
        while m != 0 {
            let other = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(ev) = self.l2[other].invalidate_line(line) {
                if ev.prefetch_unused {
                    self.pending_credits[other] += 1;
                    self.prefetch_ready[other].remove(ev.line_addr);
                    self.prefetch_invalidated += 1;
                }
            }
            self.l1[other].invalidate_line(line);
            // One invalidation round-trip dominates; extra sharers add a
            // small serialization cost.
            if cost == 0 {
                cost = self.noc.ideal_latency(core, other) * 2 + self.l3_latency;
            } else {
                cost += 2;
            }
            let _ = now;
        }
        cost
    }

    fn directory_add_sharer(&mut self, core: usize, line: u64) {
        *self.directory.or_insert(line, 0) |= 1u64 << core;
    }

    fn directory_remove_sharer_line(&mut self, core: usize, line_addr: u64) {
        if let Some(mask) = self.directory.get_mut(line_addr) {
            *mask &= !(1u64 << core);
            if *mask == 0 {
                self.directory.remove(line_addr);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum FillDepth {
    L1Only,
    L1AndL2,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(cores: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::small(cores))
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_l1() {
        let mut m = hierarchy(2);
        let r = m.access(0, 0x4000, AccessKind::Load, 0);
        assert_eq!(r.level, CacheLevel::Memory);
        assert!(r.latency > 200);
        let r2 = m.access(0, 0x4000, AccessKind::Load, r.latency);
        assert_eq!(r2.level, CacheLevel::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn second_core_hits_in_l3() {
        let mut m = hierarchy(2);
        m.access(0, 0x4000, AccessKind::Load, 0);
        let r = m.access(1, 0x4000, AccessKind::Load, 500);
        assert_eq!(r.level, CacheLevel::L3);
    }

    #[test]
    fn write_invalidate_remote_copies() {
        let mut m = hierarchy(2);
        m.access(0, 0x4000, AccessKind::Load, 0);
        m.access(1, 0x4000, AccessKind::Load, 500);
        // Core 1 writes: core 0's copy must be invalidated.
        let w = m.access(1, 0x4000, AccessKind::Store, 1000);
        assert!(w.latency > 4, "ownership acquisition must cost extra");
        // Core 0's next access misses its private caches.
        let r = m.access(0, 0x4000, AccessKind::Load, 1500);
        assert!(matches!(r.level, CacheLevel::L3 | CacheLevel::Memory));
    }

    #[test]
    fn prefetch_fill_marks_l2_and_demand_consumes() {
        let mut m = hierarchy(2);
        let p = m.prefetch_fill(0, 0x8000, 0);
        assert!(p.filled);
        assert!(m.l2_cache(0).probe_prefetched(0x8000));
        let r = m.access(0, 0x8000, AccessKind::Load, p.latency);
        assert_eq!(r.level, CacheLevel::L2);
        assert!(r.prefetch_consumed);
        assert_eq!(m.l2_cache(0).stats().prefetch_used.get(), 1);
    }

    #[test]
    fn prefetch_of_resident_line_does_not_consume_credit() {
        let mut m = hierarchy(2);
        m.access(0, 0x8000, AccessKind::Load, 0);
        let p = m.prefetch_fill(0, 0x8000, 100);
        assert!(!p.filled);
        assert_eq!(p.level, CacheLevel::L2);
    }

    #[test]
    fn evicted_unused_prefetch_returns_credit() {
        let mut m = MemoryHierarchy::new(&SimConfig::small(1));
        // Fill one set of the scaled L2 (16KB, 8 ways, 32 sets) with
        // prefetches, then overflow it.
        let set_stride = 32 * 64; // sets * line
        for i in 0..9u64 {
            m.prefetch_fill(0, i * set_stride as u64, 0);
        }
        assert!(m.drain_returned_credits(0) >= 1);
        assert_eq!(m.drain_returned_credits(0), 0, "drain clears pending");
    }

    #[test]
    fn engine_access_skips_l1() {
        let mut m = hierarchy(2);
        let r = m.engine_access(0, 0xC000, AccessKind::Load, 0);
        assert_eq!(r.level, CacheLevel::Memory);
        // Line is in L2 but not L1.
        assert!(m.l2_cache(0).probe(0xC000));
        let r2 = m.engine_access(0, 0xC000, AccessKind::Load, r.latency);
        assert_eq!(r2.level, CacheLevel::L2);
    }

    #[test]
    fn stats_accumulate_per_core() {
        let mut m = hierarchy(2);
        m.access(0, 0x1000, AccessKind::Load, 0);
        m.access(0, 0x1000, AccessKind::Load, 400);
        m.access(1, 0x2000, AccessKind::Load, 0);
        let s0 = m.core_stats(0);
        assert_eq!(s0.accesses, 2);
        assert_eq!(s0.l2_misses, 1);
        let total = m.total_stats();
        assert_eq!(total.accesses, 3);
        assert_eq!(total.l2_misses, 2);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = hierarchy(1);
        m.access(0, 0x1000, AccessKind::Load, 0);
        m.reset_stats();
        assert_eq!(m.core_stats(0).accesses, 0);
        let r = m.access(0, 0x1000, AccessKind::Load, 500);
        assert_eq!(r.level, CacheLevel::L1, "contents survived the reset");
    }

    #[test]
    fn demand_consumption_returns_credit() {
        let mut m = hierarchy(2);
        let p = m.prefetch_fill(0, 0x8000, 0);
        assert!(p.filled);
        m.access(0, 0x8000, AccessKind::Load, p.latency + 10);
        assert_eq!(m.drain_returned_credits(0), 1);
    }

    #[test]
    fn early_access_stalls_until_prefetch_arrives() {
        let mut m = hierarchy(2);
        let p = m.prefetch_fill(0, 0x8000, 0);
        assert!(p.latency > 100, "cold prefetch must take a memory trip");
        // Worker touches the line immediately: it must wait ~the full fill.
        let early = m.access(0, 0x8000, AccessKind::Load, 5);
        assert!(
            early.latency >= p.latency - 5,
            "early hit {} must stall for fill {}",
            early.latency,
            p.latency
        );
        // A later re-access is a plain L1 hit (the first access filled L1).
        let late = m.access(0, 0x8000, AccessKind::Load, p.latency + 100);
        assert_eq!(late.latency, 4);
    }

    #[test]
    fn atomic_counts_as_write() {
        assert!(AccessKind::Atomic.is_write());
        assert!(AccessKind::Store.is_write());
        assert!(!AccessKind::Load.is_write());
    }
}
