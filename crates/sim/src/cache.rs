//! Set-associative cache model with LRU replacement and per-line prefetch
//! metadata.
//!
//! The Minnow credit system (paper §5.3.1) augments each L2 line with one
//! *prefetch bit*: lines filled by the Minnow engine are marked, and when a
//! marked line is accessed or evicted the bit is cleared and a credit is
//! returned to the engine. [`Cache`] implements exactly that protocol and
//! reports everything the paper's Fig. 18 (MPKI) and Fig. 20 (prefetch
//! efficiency) need.
//!
//! # Storage layout
//!
//! Lines are stored structure-of-arrays: a packed `u64` tag array (with
//! `u64::MAX` as the invalid sentinel), a parallel `u64` LRU-timestamp
//! array, and two bitsets for the dirty and prefetch bits. A tag lookup in
//! an 8-way set therefore scans one 64-byte cache line of tags instead of
//! pointer-hopping eight `Option<Line>` slots, and the LRU victim scan is a
//! straight min-reduction over eight adjacent words. Every simulated
//! decision (hit/miss, victim choice, mark handling) is identical to the
//! previous array-of-structs representation — `tests/props.rs` checks that
//! against a naive reference model property-by-property.

use crate::config::CacheParams;
use crate::stats::Counter;

/// Tag value marking an invalid (empty) way. Real tags are line addresses
/// (`addr >> line_shift` with `line_shift >= 1`), which can never reach it.
const INVALID: u64 = u64::MAX;

/// A byte address pre-decomposed into the pieces every cache level needs.
///
/// All levels of the hierarchy share one line size, so the line address can
/// be computed once per demand access and passed down L1→L2→L3 instead of
/// being re-derived (shift + mask) at each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrParts {
    /// The original byte address.
    pub addr: u64,
    /// `addr >> line_shift` — the tag, and the unit the directory and
    /// prefetch-arrival tables are keyed by.
    pub line_addr: u64,
}

impl AddrParts {
    /// Decomposes `addr` for caches with the given line shift.
    #[inline]
    pub fn new(addr: u64, line_shift: u32) -> Self {
        AddrParts {
            addr,
            line_addr: addr >> line_shift,
        }
    }
}

/// What happened to a victim line when a fill forced an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the victim (`addr >> line_shift`).
    pub line_addr: u64,
    /// The victim was dirty and would be written back.
    pub dirty: bool,
    /// The victim still had its prefetch bit set — i.e. it was prefetched
    /// but never used. Its credit must be returned (paper §5.3.1).
    pub prefetch_unused: bool,
}

/// Result of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The line was resident.
    pub hit: bool,
    /// The line was resident *and* had its prefetch bit set; the bit has been
    /// cleared and the corresponding credit must be returned.
    pub prefetch_consumed: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: Counter,
    /// Demand lookups that missed.
    pub misses: Counter,
    /// Lines evicted to make room for fills.
    pub evictions: Counter,
    /// Fills performed on behalf of a prefetcher (marked lines).
    pub prefetch_fills: Counter,
    /// Prefetched lines consumed by a demand access before eviction.
    pub prefetch_used: Counter,
    /// Prefetched lines evicted before any demand access.
    pub prefetch_evicted_unused: Counter,
}

impl CacheStats {
    /// Prefetch efficiency as the paper defines it (Fig. 20): prefetched
    /// lines used before eviction over total prefetch fills.
    pub fn prefetch_efficiency(&self) -> f64 {
        let fills = self.prefetch_fills.get();
        if fills == 0 {
            return 1.0;
        }
        self.prefetch_used.get() as f64 / fills as f64
    }

    /// Demand miss ratio (misses / lookups), or 0.0 with no traffic.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

/// A single set-associative, write-allocate, LRU cache.
///
/// The cache is a *presence* model: it tracks which lines are resident, not
/// their data. Fills are explicit so that the surrounding
/// [hierarchy](crate::hierarchy) can decide inclusion/exclusion policy and
/// so prefetchers can insert marked lines.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    sets: usize,
    line_shift: u32,
    /// `sets * ways` packed tags; [`INVALID`] = empty way.
    tags: Vec<u64>,
    /// LRU timestamps parallel to `tags` (bigger = more recently used).
    last_use: Vec<u64>,
    /// Dirty bits, one per way slot.
    dirty: Bitset,
    /// Minnow prefetch bits (paper §5.3.1), one per way slot.
    prefetch: Bitset,
    /// Advances exactly when a recency timestamp is recorded (every hit and
    /// every fill). Misses that perform no fill leave it untouched: they
    /// write no timestamp, so bumping the clock for them could never change
    /// a victim choice — LRU only compares recorded timestamps.
    tick: u64,
    /// Resident lines whose prefetch bit is still set. Lets
    /// [`Cache::consume_mark_line`] — probed on *every* L1 hit by the
    /// hierarchy — answer `false` without a tag walk when nothing is
    /// marked, which is always the case in non-prefetching runs.
    marked: usize,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheParams::sets`]) or the
    /// line size is not a power of two of at least 2 bytes.
    pub fn new(params: CacheParams) -> Self {
        assert!(
            params.line_bytes.is_power_of_two() && params.line_bytes >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        let sets = params.sets();
        let slots = sets * params.ways;
        Cache {
            params,
            sets,
            line_shift: params.line_bytes.trailing_zeros(),
            tags: vec![INVALID; slots],
            last_use: vec![0; slots],
            dirty: Bitset::new(slots),
            prefetch: Bitset::new(slots),
            tick: 0,
            marked: 0,
            stats: CacheStats::default(),
        }
    }

    /// Geometry this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are kept, supporting warmup phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Maps a byte address to its line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// `log2(line_bytes)` — for building [`AddrParts`] once per access.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Pre-decomposes `addr` for this cache's geometry.
    #[inline]
    pub fn parts_of(&self, addr: u64) -> AddrParts {
        AddrParts::new(addr, self.line_shift)
    }

    /// First slot index of the set holding `line_addr`.
    #[inline]
    fn set_base(&self, line_addr: u64) -> usize {
        let set = if self.sets.is_power_of_two() {
            (line_addr as usize) & (self.sets - 1)
        } else {
            (line_addr as usize) % self.sets
        };
        set * self.params.ways
    }

    /// Index of the way holding `line_addr`, if resident.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<usize> {
        let base = self.set_base(line_addr);
        let ways = self.params.ways;
        self.tags[base..base + ways]
            .iter()
            .position(|&t| t == line_addr)
            .map(|w| base + w)
    }

    /// Demand access. Updates LRU, clears the prefetch bit on a hit to a
    /// marked line, and records hit/miss stats. The caller performs the fill
    /// on a miss via [`Cache::fill`].
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        self.access_line(self.line_of(addr), write)
    }

    /// [`Cache::access`] with the line address already computed.
    pub fn access_line(&mut self, line_addr: u64, write: bool) -> Lookup {
        if let Some(idx) = self.find(line_addr) {
            self.tick += 1;
            self.last_use[idx] = self.tick;
            if write {
                self.dirty.set(idx);
            }
            let prefetch_consumed = self.prefetch.get(idx);
            if prefetch_consumed {
                self.prefetch.clear(idx);
                self.marked -= 1;
                self.stats.prefetch_used.inc();
            }
            self.stats.hits.inc();
            return Lookup {
                hit: true,
                prefetch_consumed,
            };
        }
        self.stats.misses.inc();
        Lookup {
            hit: false,
            prefetch_consumed: false,
        }
    }

    /// Non-mutating presence probe (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        self.probe_line(self.line_of(addr))
    }

    /// [`Cache::probe`] with the line address already computed.
    #[inline]
    pub fn probe_line(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    /// Returns whether the line holding `addr` is resident with its prefetch
    /// bit still set (prefetched but not yet used).
    pub fn probe_prefetched(&self, addr: u64) -> bool {
        self.find(self.line_of(addr))
            .is_some_and(|idx| self.prefetch.get(idx))
    }

    /// Inserts the line holding `addr`. `prefetch` marks the line as a
    /// prefetch fill (paper §5.3.1). Returns the eviction, if any.
    pub fn fill(&mut self, addr: u64, write: bool, prefetch: bool) -> Option<Eviction> {
        self.fill_line(self.line_of(addr), write, prefetch)
    }

    /// [`Cache::fill`] with the line address already computed.
    ///
    /// Filling an already-resident line refreshes LRU; a demand fill
    /// (`prefetch == false`) over a marked line leaves the mark intact so the
    /// pending credit is still returned on first *demand access* — in
    /// practice the hierarchy always accesses before filling, so this path
    /// only matters for prefetch-over-prefetch, which is idempotent.
    pub fn fill_line(&mut self, line_addr: u64, write: bool, prefetch: bool) -> Option<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        if prefetch {
            self.stats.prefetch_fills.inc();
        }
        let base = self.set_base(line_addr);
        let ways = self.params.ways;

        // One pass over the packed tags: find a resident match, the first
        // free way, and the LRU victim (first minimum, matching the old
        // strict-`<` scan) all at once.
        let mut free = usize::MAX;
        let mut victim = base;
        let mut victim_use = u64::MAX;
        for idx in base..base + ways {
            let tag = self.tags[idx];
            if tag == line_addr {
                // Already resident: refresh.
                self.last_use[idx] = tick;
                if write {
                    self.dirty.set(idx);
                }
                return None;
            }
            if tag == INVALID {
                if free == usize::MAX {
                    free = idx;
                }
            } else if self.last_use[idx] < victim_use {
                victim_use = self.last_use[idx];
                victim = idx;
            }
        }

        if free != usize::MAX {
            self.install(free, line_addr, tick, write, prefetch);
            return None;
        }

        // Evict LRU.
        let evicted = Eviction {
            line_addr: self.tags[victim],
            dirty: self.dirty.get(victim),
            prefetch_unused: self.prefetch.get(victim),
        };
        self.stats.evictions.inc();
        if evicted.prefetch_unused {
            self.stats.prefetch_evicted_unused.inc();
        }
        self.install(victim, line_addr, tick, write, prefetch);
        Some(evicted)
    }

    /// Writes a new line into way slot `idx`, overwriting all metadata.
    #[inline]
    fn install(&mut self, idx: usize, line_addr: u64, tick: u64, dirty: bool, prefetch: bool) {
        self.tags[idx] = line_addr;
        self.last_use[idx] = tick;
        self.dirty.assign(idx, dirty);
        self.marked -= usize::from(self.prefetch.get(idx));
        self.marked += usize::from(prefetch);
        self.prefetch.assign(idx, prefetch);
    }

    /// Clears the prefetch mark on `addr`'s line without a full access
    /// (used when an inner-level hit consumes the prefetched data). Returns
    /// whether a mark was cleared; counts as a used prefetch.
    pub fn consume_mark(&mut self, addr: u64) -> bool {
        self.consume_mark_line(self.line_of(addr))
    }

    /// [`Cache::consume_mark`] with the line address already computed.
    #[inline]
    pub fn consume_mark_line(&mut self, line_addr: u64) -> bool {
        if self.marked == 0 {
            return false;
        }
        if let Some(idx) = self.find(line_addr) {
            if self.prefetch.get(idx) {
                self.prefetch.clear(idx);
                self.marked -= 1;
                self.stats.prefetch_used.inc();
                return true;
            }
        }
        false
    }

    /// Invalidates the line holding `addr` (directory-initiated).
    ///
    /// Returns the invalidated line's metadata as an [`Eviction`] so callers
    /// can return credits for marked lines; `None` if the line was absent.
    pub fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        self.invalidate_line(self.line_of(addr))
    }

    /// [`Cache::invalidate`] with the line address already computed.
    pub fn invalidate_line(&mut self, line_addr: u64) -> Option<Eviction> {
        let idx = self.find(line_addr)?;
        let out = Eviction {
            line_addr,
            dirty: self.dirty.get(idx),
            prefetch_unused: self.prefetch.get(idx),
        };
        if out.prefetch_unused {
            self.marked -= 1;
            self.stats.prefetch_evicted_unused.inc();
        }
        self.tags[idx] = INVALID;
        self.dirty.clear(idx);
        self.prefetch.clear(idx);
        Some(out)
    }

    /// Number of currently resident lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Number of resident lines whose prefetch bit is still set.
    pub fn marked_lines(&self) -> usize {
        let scanned = (0..self.tags.len())
            .filter(|&i| self.tags[i] != INVALID && self.prefetch.get(i))
            .count();
        debug_assert_eq!(scanned, self.marked, "marked-line counter drifted");
        scanned
    }
}

/// A plain `u64`-word bitset sized at construction.
#[derive(Debug, Clone)]
struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    fn new(bits: usize) -> Self {
        Bitset {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    #[inline]
    fn assign(&mut self, i: usize, v: bool) {
        let word = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        *word = (*word & !bit) | if v { bit } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheParams {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        c.fill(0x100, false, false);
        assert!(c.access(0x100, false).hit);
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        assert!(c.access(0x103F, false).hit);
        assert!(c.access(0x1038, false).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = sets*line = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.fill(a, false, false);
        c.fill(b, false, false);
        c.access(a, false); // refresh a: b is now LRU
        let ev = c.fill(d, false, false).expect("must evict");
        assert_eq!(ev.line_addr, c.line_of(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn prefetch_bit_cleared_on_access() {
        let mut c = tiny();
        c.fill(0x40, false, true);
        assert!(c.probe_prefetched(0x40));
        let l = c.access(0x40, false);
        assert!(l.hit && l.prefetch_consumed);
        assert!(!c.probe_prefetched(0x40));
        // Second access does not re-consume.
        assert!(!c.access(0x40, false).prefetch_consumed);
        assert_eq!(c.stats().prefetch_used.get(), 1);
        assert_eq!(c.stats().prefetch_fills.get(), 1);
    }

    #[test]
    fn prefetch_eviction_reports_unused() {
        let mut c = tiny();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.fill(a, false, true);
        c.fill(b, false, false);
        c.access(b, false);
        let ev = c.fill(d, false, false).expect("evicts a");
        assert!(ev.prefetch_unused);
        assert_eq!(c.stats().prefetch_evicted_unused.get(), 1);
        assert!((c.stats().prefetch_efficiency() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_flag() {
        let mut c = tiny();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.fill(a, true, false);
        c.fill(b, false, false);
        c.access(b, false);
        let ev = c.fill(d, false, false).expect("evicts a");
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x40, false, true);
        let ev = c.invalidate(0x40).expect("line present");
        assert!(ev.prefetch_unused);
        assert!(!c.probe(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn resident_and_marked_counts() {
        let mut c = tiny();
        c.fill(0x00, false, true);
        c.fill(0x40, false, false);
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(c.marked_lines(), 1);
    }

    #[test]
    fn refill_resident_line_is_idempotent() {
        let mut c = tiny();
        c.fill(0x80, false, true);
        assert!(c.fill(0x80, false, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // Two fills counted, one line used later => efficiency 0.5.
        c.access(0x80, false);
        assert!((c.stats().prefetch_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_defaults_to_one_without_prefetching() {
        let c = tiny();
        assert_eq!(c.stats().prefetch_efficiency(), 1.0);
    }

    #[test]
    fn reused_way_starts_with_clean_metadata() {
        let mut c = tiny();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        // Dirty + marked victim must not leak its bits to the newcomer.
        c.fill(a, true, true);
        c.fill(b, false, false);
        c.access(b, false);
        let ev = c.fill(d, false, false).expect("evicts a");
        assert!(ev.dirty && ev.prefetch_unused);
        assert!(!c.probe_prefetched(d));
        let ev2 = c.invalidate(d).expect("d resident");
        assert!(!ev2.dirty && !ev2.prefetch_unused);
    }

    #[test]
    fn line_addr_api_matches_byte_addr_api() {
        let mut by_addr = tiny();
        let mut by_line = tiny();
        let addrs = [0x0000u64, 0x0100, 0x0200, 0x0040, 0x0100, 0x1000];
        for (i, &addr) in addrs.iter().enumerate() {
            let write = i % 2 == 0;
            assert_eq!(
                by_addr.access(addr, write),
                by_line.access_line(by_line.line_of(addr), write)
            );
            assert_eq!(
                by_addr.fill(addr, write, i % 3 == 0),
                by_line.fill_line(by_line.line_of(addr), write, i % 3 == 0)
            );
        }
        assert_eq!(by_addr.resident_lines(), by_line.resident_lines());
        assert_eq!(by_addr.marked_lines(), by_line.marked_lines());
        assert_eq!(by_addr.stats().hits.get(), by_line.stats().hits.get());
    }

    /// Regression for the tick-advance fix: the internal clock must move
    /// exactly when a recency timestamp is recorded (hits and fills), and
    /// in particular a miss that performs no fill must leave it untouched.
    #[test]
    fn tick_advances_only_when_recency_is_recorded() {
        let mut c = tiny();
        assert_eq!(c.tick, 0);
        c.access(0x0000, false); // miss, no fill
        c.access(0x4000, false); // miss, no fill
        assert_eq!(c.tick, 0, "no-fill misses must not advance the clock");
        c.fill(0x0000, false, false);
        assert_eq!(c.tick, 1);
        c.access(0x0000, false); // hit
        assert_eq!(c.tick, 2);
        c.probe(0x0000); // probes never touch the clock
        c.consume_mark(0x0000);
        c.invalidate(0x0000);
        assert_eq!(c.tick, 2);
    }

    /// LRU decisions are identical whether or not no-fill misses bump the
    /// clock, because misses record no timestamp: only the relative order
    /// of *recorded* timestamps matters. This replays the same workload
    /// against a reference that models the old always-bump behavior and
    /// demands identical eviction choices.
    #[test]
    fn tick_fix_preserves_lru_order_against_always_bump_reference() {
        /// The pre-fix model: `Vec<Option<(line, last_use, ..)>>` with a
        /// tick bump on every access *and* every fill.
        struct AlwaysBump {
            slots: Vec<Option<(u64, u64)>>, // (line_addr, last_use)
            ways: usize,
            sets: usize,
            tick: u64,
        }
        impl AlwaysBump {
            fn set_base(&self, line: u64) -> usize {
                (line as usize % self.sets) * self.ways
            }
            fn access(&mut self, line: u64) -> bool {
                self.tick += 1;
                let base = self.set_base(line);
                for (l, u) in self.slots[base..base + self.ways].iter_mut().flatten() {
                    if *l == line {
                        *u = self.tick;
                        return true;
                    }
                }
                false
            }
            fn fill(&mut self, line: u64) -> Option<u64> {
                self.tick += 1;
                let base = self.set_base(line);
                for (l, u) in self.slots[base..base + self.ways].iter_mut().flatten() {
                    if *l == line {
                        *u = self.tick;
                        return None;
                    }
                }
                let mut victim = None;
                let mut victim_use = u64::MAX;
                for idx in base..base + self.ways {
                    match self.slots[idx] {
                        None => {
                            self.slots[idx] = Some((line, self.tick));
                            return None;
                        }
                        Some((_, u)) if u < victim_use => {
                            victim_use = u;
                            victim = Some(idx);
                        }
                        Some(_) => {}
                    }
                }
                let idx = victim.unwrap();
                let out = self.slots[idx].unwrap().0;
                self.slots[idx] = Some((line, self.tick));
                Some(out)
            }
        }

        let mut packed = tiny();
        let mut reference = AlwaysBump {
            slots: vec![None; 8],
            ways: 2,
            sets: 4,
            tick: 0,
        };
        // Deterministic address stream over 3 sets' worth of conflicting
        // lines, with plenty of no-fill misses interleaved.
        let mut state = 0x9e37_79b9u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (state >> 33) % 12;
            let addr = line * 64;
            let do_fill = state & 1 == 0;
            let hit = packed.access(addr, false).hit;
            assert_eq!(hit, reference.access(line), "presence diverged");
            if !hit && do_fill {
                let ev = packed.fill(addr, false, false);
                let ev_ref = reference.fill(line);
                assert_eq!(ev.map(|e| e.line_addr), ev_ref, "victim diverged");
            }
        }
    }
}
