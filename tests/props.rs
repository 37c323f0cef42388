//! Property-based tests over the core data structures and invariants.

use std::collections::VecDeque;

use proptest::prelude::*;

use minnow::bench::sweep::{Sweep, SweepConfig, SweepParams};
use minnow::engine::CreditPool;
use minnow::graph::Csr;
use minnow::runtime::split::split_task;
use minnow::runtime::worklist::PolicyKind;
use minnow::runtime::Task;
use minnow::sim::cache::Cache;
use minnow::sim::config::CacheParams;
use minnow::sim::contend::GapTracker;
use minnow::sim::noc::Noc;
use minnow::sim::stats::{CycleAccounting, CycleBin, Histogram};

fn any_task() -> impl Strategy<Value = Task> {
    (0u64..1000, 0u32..500).prop_map(|(p, n)| Task::new(p, n))
}

/// One cache operation for the oracle-equivalence property.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Demand access; on a miss, fill when the flag is set (mirroring the
    /// hierarchy's access-then-fill protocol).
    Access { addr: u64, write: bool, fill: bool },
    /// Prefetch fill (marked line).
    PrefetchFill { addr: u64 },
    /// Clear a mark without a full access.
    ConsumeMark { addr: u64 },
    /// Directory-initiated invalidation.
    Invalidate { addr: u64 },
}

fn any_cache_op() -> impl Strategy<Value = CacheOp> {
    // Addresses over 16 lines mapping onto 4 sets: heavy conflict traffic.
    let addr = (0u64..16).prop_map(|l| l * 64 + (l % 7));
    // The vendored proptest stub's `prop_oneof!` is unweighted; bias
    // toward demand traffic by listing the access arm twice.
    prop_oneof![
        (addr.clone(), any::<bool>(), any::<bool>())
            .prop_map(|(addr, write, fill)| CacheOp::Access { addr, write, fill }),
        (addr.clone(), any::<bool>(), any::<bool>())
            .prop_map(|(addr, write, fill)| CacheOp::Access { addr, write, fill }),
        addr.clone().prop_map(|addr| CacheOp::PrefetchFill { addr }),
        addr.clone().prop_map(|addr| CacheOp::ConsumeMark { addr }),
        addr.prop_map(|addr| CacheOp::Invalidate { addr }),
    ]
}

/// Naive array-of-structs reference cache: one `Option<Line>` per way,
/// scanned linearly, LRU victim chosen by strict-`<` first minimum — the
/// exact model the packed SoA [`Cache`] replaced. Tick semantics match
/// the production model's documented contract: the clock advances exactly
/// when a recency timestamp is recorded (hits and fills), never on
/// no-fill misses or metadata-only operations.
struct OracleCache {
    slots: Vec<Option<OracleLine>>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    tick: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OracleLine {
    line_addr: u64,
    last_use: u64,
    dirty: bool,
    prefetch: bool,
}

/// The oracle's answer for one operation, compared field-for-field with
/// the packed implementation's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OracleOutcome {
    Lookup { hit: bool, prefetch_consumed: bool },
    Fill { evicted: Option<(u64, bool, bool)> },
    Consumed(bool),
    Invalidated(Option<(bool, bool)>),
}

impl OracleCache {
    fn new(params: &CacheParams) -> Self {
        let sets = params.sets();
        OracleCache {
            slots: vec![None; sets * params.ways],
            sets,
            ways: params.ways,
            line_shift: params.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    fn set_base(&self, line_addr: u64) -> usize {
        (line_addr as usize % self.sets) * self.ways
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        let base = self.set_base(line_addr);
        (base..base + self.ways)
            .find(|&i| self.slots[i].map(|l| l.line_addr) == Some(line_addr))
    }

    fn access(&mut self, addr: u64, write: bool) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        if let Some(idx) = self.find(line_addr) {
            self.tick += 1;
            let line = self.slots[idx].as_mut().unwrap();
            line.last_use = self.tick;
            line.dirty |= write;
            let prefetch_consumed = line.prefetch;
            line.prefetch = false;
            OracleOutcome::Lookup {
                hit: true,
                prefetch_consumed,
            }
        } else {
            OracleOutcome::Lookup {
                hit: false,
                prefetch_consumed: false,
            }
        }
    }

    fn fill(&mut self, addr: u64, write: bool, prefetch: bool) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        self.tick += 1;
        let base = self.set_base(line_addr);
        if let Some(idx) = self.find(line_addr) {
            let line = self.slots[idx].as_mut().unwrap();
            line.last_use = self.tick;
            line.dirty |= write;
            return OracleOutcome::Fill { evicted: None };
        }
        let newcomer = OracleLine {
            line_addr,
            last_use: self.tick,
            dirty: write,
            prefetch,
        };
        if let Some(free) = (base..base + self.ways).find(|&i| self.slots[i].is_none()) {
            self.slots[free] = Some(newcomer);
            return OracleOutcome::Fill { evicted: None };
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.slots[i].unwrap().last_use)
            .unwrap();
        let old = self.slots[victim].unwrap();
        self.slots[victim] = Some(newcomer);
        OracleOutcome::Fill {
            evicted: Some((old.line_addr, old.dirty, old.prefetch)),
        }
    }

    fn consume_mark(&mut self, addr: u64) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        if let Some(idx) = self.find(line_addr) {
            let line = self.slots[idx].as_mut().unwrap();
            if line.prefetch {
                line.prefetch = false;
                return OracleOutcome::Consumed(true);
            }
        }
        OracleOutcome::Consumed(false)
    }

    fn invalidate(&mut self, addr: u64) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        match self.find(line_addr) {
            Some(idx) => {
                let old = self.slots[idx].take().unwrap();
                OracleOutcome::Invalidated(Some((old.dirty, old.prefetch)))
            }
            None => OracleOutcome::Invalidated(None),
        }
    }

    fn resident(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn marked(&self) -> usize {
        self.slots.iter().flatten().filter(|l| l.prefetch).count()
    }
}

/// Filter strings for the sweep-selection property: meaningful id
/// fragments plus arbitrary short strings over the id alphabet (the
/// proptest stub has no native string strategy, so build from indices).
fn any_filter() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = ['S', 'B', 'C', 'P', 'T', 'G', '/', 't', 'c', 'm', '1', 'z'];
    prop_oneof![
        Just("SSSP".to_string()),
        Just("/BFS/".to_string()),
        Just("minnow".to_string()),
        Just("wdp".to_string()),
        Just("serial".to_string()),
        Just(String::new()),
        Just("no-such-point".to_string()),
        prop::collection::vec(0usize..ALPHABET.len(), 0..5)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
    ]
}

fn any_sweep_params() -> impl Strategy<Value = SweepParams> {
    (0u64..1 << 48, 1usize..64, 1usize..64).prop_map(|(seed, headline, max)| SweepParams {
        scale: 0.02,
        seed,
        headline_threads: headline,
        max_threads: max,
    })
}

/// The occupancy timeline [`GapTracker`] replaced, moved here verbatim as
/// the differential oracle: a `VecDeque` window binary-searched from its
/// oldest booking.
#[derive(Debug, Default)]
struct OracleGapTracker {
    busy: VecDeque<(u64, u64)>,
}

/// The oracle's window cap (the production timeline's `MAX_INTERVALS`).
const ORACLE_MAX_INTERVALS: usize = 256;

impl OracleGapTracker {
    fn reserve(&mut self, now: u64, duration: u64) -> u64 {
        if duration == 0 {
            return now;
        }
        // Intervals are non-overlapping with both starts and ends strictly
        // increasing (each insert lands in a gap), so an interval ending at
        // or before `now` can neither host this reservation (its successor
        // would have to start >= now + duration > its own end) nor raise
        // `begin` above `now`. Binary-search past them instead of scanning:
        // in steady state almost the whole window is history.
        let mut lo = 0usize;
        let mut hi = self.busy.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.busy[mid].1 <= now {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut begin = now;
        let mut insert_at = self.busy.len();
        for i in lo..self.busy.len() {
            let (s, e) = self.busy[i];
            if begin + duration <= s {
                insert_at = i;
                break;
            }
            begin = begin.max(e);
        }
        self.busy.insert(insert_at, (begin, begin + duration));
        if self.busy.len() > ORACLE_MAX_INTERVALS {
            // Coalesce the two earliest intervals (closing the gap between
            // them) so past occupancy is never forgotten, only coarsened.
            let (s0, _) = self.busy.pop_front().expect("len > cap");
            if let Some(front) = self.busy.front_mut() {
                front.0 = s0.min(front.0);
            }
        }
        begin
    }

    fn horizon(&self) -> u64 {
        self.busy.back().map_or(0, |&(_, e)| e)
    }
}

/// The per-hop XY mesh router [`Noc`] replaced, kept as the differential
/// oracle (over the oracle timeline): tile coordinates by division on
/// every packet, one direction decision per hop.
struct OracleNoc {
    width: usize,
    hop_cycles: u64,
    link_bytes: usize,
    links: Vec<OracleGapTracker>,
    total_hops: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct OracleTile {
    x: usize,
    y: usize,
}

#[derive(Clone, Copy)]
enum OracleDir {
    East,
    West,
    North,
    South,
}

impl OracleNoc {
    fn new(width: usize, hop_cycles: u64, link_bytes: usize) -> Self {
        OracleNoc {
            width,
            hop_cycles,
            link_bytes,
            links: (0..width * width * 4).map(|_| OracleGapTracker::default()).collect(),
            total_hops: 0,
        }
    }

    fn tile_of(&self, id: usize) -> OracleTile {
        OracleTile {
            x: id % self.width,
            y: (id / self.width) % self.width,
        }
    }

    fn link_index(&self, tile: OracleTile, dir: OracleDir) -> usize {
        let d = match dir {
            OracleDir::East => 0,
            OracleDir::West => 1,
            OracleDir::North => 2,
            OracleDir::South => 3,
        };
        (tile.y * self.width + tile.x) * 4 + d
    }

    fn route(&mut self, src: usize, dst: usize, bytes: usize, now: u64) -> u64 {
        let mut at = now;
        let mut cur = self.tile_of(src);
        let dest = self.tile_of(dst);
        let occupancy = (bytes.max(1)).div_ceil(self.link_bytes) as u64;
        let mut hops: u64 = 0;

        while cur != dest {
            let dir = if cur.x < dest.x {
                OracleDir::East
            } else if cur.x > dest.x {
                OracleDir::West
            } else if cur.y < dest.y {
                OracleDir::South
            } else {
                OracleDir::North
            };
            let idx = self.link_index(cur, dir);
            at = self.links[idx].reserve(at, occupancy) + self.hop_cycles;
            hops += 1;
            cur = match dir {
                OracleDir::East => OracleTile { x: cur.x + 1, ..cur },
                OracleDir::West => OracleTile { x: cur.x - 1, ..cur },
                OracleDir::South => OracleTile { y: cur.y + 1, ..cur },
                OracleDir::North => OracleTile { y: cur.y - 1, ..cur },
            };
        }
        if hops == 0 {
            at += self.hop_cycles;
            hops = 1;
        }
        self.total_hops += hops;
        at - now
    }
}

/// A timeline request stream shaped like measured fabric traffic, from a
/// seed: `(now, duration)` pairs placed relative to the newest booking.
///
/// * `0` — prefetch-style stale hops: 1-cycle bookings a few dozen cycles
///   apart, most requested 10^4–10^5 cycles (hundreds of bookings) behind
///   the newest;
/// * `1` — sparse hops: bookings ~5·10^5 cycles apart, so a full window
///   spans over 10^8 cycles, a quarter requested deep inside it;
/// * `2` — bursts of back-to-back 1-cycle requests at one cycle, booking
///   runs of up to 200 consecutive cycles;
/// * `3` — mixed 1-, 8- and 512-cycle bookings, near and behind the newest.
fn fabric_stream(shape: u32, seed: u64, len: usize) -> Vec<(u64, u64)> {
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut newest = 1u64 << 30;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        match shape {
            0 => {
                newest += next(64);
                let behind = if next(10) < 6 { 10_000 + next(90_000) } else { next(200) };
                out.push((newest - behind, 1));
            }
            1 => {
                newest += 400_000 + next(200_000);
                let behind = if next(4) == 0 { next(100_000_000) } else { next(1_000) };
                out.push((newest - behind, 1));
            }
            2 => {
                newest += next(300);
                let at = newest - next(2_000);
                for _ in 0..1 + next(200) {
                    out.push((at, 1));
                }
            }
            _ => {
                newest += next(100);
                let duration = match next(10) {
                    0 => 512,
                    1 | 2 => 8,
                    _ => 1,
                };
                let behind = if next(3) == 0 { next(50_000) } else { next(100) };
                out.push((newest - behind, duration));
            }
        }
    }
    out.truncate(len);
    out
}

/// One fabric-timeline request, placed relative to the newest booking when
/// replayed: `(placement, offset, duration class, lock hold)`.
fn any_timeline_request() -> impl Strategy<Value = (u32, u64, u32, u64)> {
    (0u32..100, 0u64..64, 0u32..3, 6u64..41)
}

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Lifo),
        (1usize..32).prop_map(PolicyKind::Chunked),
        (0u32..8).prop_map(PolicyKind::Obim),
        Just(PolicyKind::Strict),
    ]
}

proptest! {
    /// Every policy returns exactly the multiset of pushed tasks.
    #[test]
    fn worklists_conserve_tasks(tasks in prop::collection::vec(any_task(), 0..200),
                                kind in any_policy()) {
        let mut wl = kind.build();
        for &t in &tasks {
            wl.push(t);
        }
        prop_assert_eq!(wl.len(), tasks.len());
        let mut out = Vec::new();
        while let Some(t) = wl.pop() {
            out.push(t);
        }
        prop_assert!(wl.is_empty());
        let mut a: Vec<_> = tasks.iter().map(|t| (t.priority, t.node)).collect();
        let mut b: Vec<_> = out.iter().map(|t| (t.priority, t.node)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// OBIM pops never go back to a strictly smaller bucket unless a more
    /// urgent task was pushed in between (drain-only check).
    #[test]
    fn obim_buckets_drain_in_order(tasks in prop::collection::vec(any_task(), 1..200),
                                   lg in 0u32..6) {
        let mut wl = PolicyKind::Obim(lg).build();
        for &t in &tasks {
            wl.push(t);
        }
        let mut last_bucket = 0u64;
        while let Some(t) = wl.pop() {
            let b = t.bucket(lg);
            prop_assert!(b >= last_bucket, "bucket went backwards: {b} < {last_bucket}");
            last_bucket = b;
        }
    }

    /// Strict priority pops a non-decreasing priority sequence.
    #[test]
    fn strict_priority_sorts(tasks in prop::collection::vec(any_task(), 1..200)) {
        let mut wl = PolicyKind::Strict.build();
        for &t in &tasks {
            wl.push(t);
        }
        let mut last = 0u64;
        while let Some(t) = wl.pop() {
            prop_assert!(t.priority >= last);
            last = t.priority;
        }
    }

    /// Task splitting covers each edge slot exactly once and preserves
    /// priority and node.
    #[test]
    fn split_partitions_exactly(degree in 0usize..40_000,
                                threshold in 1u32..5_000,
                                priority in 0u64..100) {
        let parts = split_task(Task::new(priority, 3), degree, threshold);
        let mut covered = 0usize;
        let mut next = 0usize;
        for p in &parts {
            prop_assert_eq!(p.priority, priority);
            prop_assert_eq!(p.node, 3);
            let r = p.resolve_range(degree);
            prop_assert_eq!(r.start, next, "ranges must be contiguous");
            prop_assert!(r.len() <= threshold as usize || parts.len() == 1);
            covered += r.len();
            next = r.end;
        }
        prop_assert_eq!(covered, degree);
    }

    /// Credit pools conserve credits under arbitrary consume/release
    /// interleavings.
    #[test]
    fn credit_pool_conserves(total in 1u32..64, ops in prop::collection::vec(any::<bool>(), 0..500)) {
        let mut pool = CreditPool::new(total);
        let mut outstanding = 0u32;
        for consume in ops {
            if consume {
                if pool.try_consume() {
                    outstanding += 1;
                }
            } else if outstanding > 0 {
                pool.release(1);
                outstanding -= 1;
            }
            prop_assert!(pool.check_conservation());
            prop_assert!(pool.available() <= total);
        }
    }

    /// The cache never exceeds its capacity, and a fill makes the line
    /// immediately visible.
    #[test]
    fn cache_capacity_and_presence(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let params = CacheParams { size_bytes: 2048, ways: 4, line_bytes: 64, latency: 1 };
        let mut cache = Cache::new(params);
        for &a in &addrs {
            cache.fill(a, false, false);
            prop_assert!(cache.probe(a), "just-filled line must be present");
            prop_assert!(cache.resident_lines() <= params.lines());
        }
    }

    /// Oracle equivalence for the packed SoA cache: replay an arbitrary
    /// operation stream against both the production [`Cache`] and the naive
    /// array-of-structs [`OracleCache`] it replaced, and demand identical
    /// decisions op by op — hit/miss, consumed marks, victim identity and
    /// metadata, invalidation results — plus identical resident/marked
    /// counts at every step.
    #[test]
    fn packed_cache_matches_naive_oracle(ops in prop::collection::vec(any_cache_op(), 1..400)) {
        let params = CacheParams { size_bytes: 512, ways: 2, line_bytes: 64, latency: 1 };
        let mut packed = Cache::new(params);
        let mut oracle = OracleCache::new(&params);
        for (step, op) in ops.into_iter().enumerate() {
            let (got, want) = match op {
                CacheOp::Access { addr, write, fill } => {
                    let l = packed.access(addr, write);
                    let want = oracle.access(addr, write);
                    let got = OracleOutcome::Lookup {
                        hit: l.hit,
                        prefetch_consumed: l.prefetch_consumed,
                    };
                    prop_assert_eq!(got, want, "lookup diverged at step {}: {:?}", step, op);
                    if !l.hit && fill {
                        let ev = packed.fill(addr, write, false);
                        (
                            OracleOutcome::Fill {
                                evicted: ev.map(|e| (e.line_addr, e.dirty, e.prefetch_unused)),
                            },
                            oracle.fill(addr, write, false),
                        )
                    } else {
                        (got, want)
                    }
                }
                CacheOp::PrefetchFill { addr } => {
                    let ev = packed.fill(addr, false, true);
                    (
                        OracleOutcome::Fill {
                            evicted: ev.map(|e| (e.line_addr, e.dirty, e.prefetch_unused)),
                        },
                        oracle.fill(addr, false, true),
                    )
                }
                CacheOp::ConsumeMark { addr } => (
                    OracleOutcome::Consumed(packed.consume_mark(addr)),
                    oracle.consume_mark(addr),
                ),
                CacheOp::Invalidate { addr } => (
                    OracleOutcome::Invalidated(
                        packed.invalidate(addr).map(|e| (e.dirty, e.prefetch_unused)),
                    ),
                    oracle.invalidate(addr),
                ),
            };
            prop_assert_eq!(got, want, "decision diverged at step {}: {:?}", step, op);
            prop_assert_eq!(packed.resident_lines(), oracle.resident(),
                "resident count diverged at step {}", step);
            prop_assert_eq!(packed.marked_lines(), oracle.marked(),
                "marked count diverged at step {}", step);
        }
    }

    /// Gap-tracker reservations never overlap, regardless of request order.
    #[test]
    fn gap_tracker_reservations_disjoint(reqs in prop::collection::vec((0u64..10_000, 1u64..50), 1..100)) {
        let mut g = GapTracker::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (now, dur) in reqs {
            let begin = g.reserve(now, dur);
            prop_assert!(begin >= now);
            for &(s, e) in &intervals {
                prop_assert!(begin + dur <= s || begin >= e,
                    "overlap: [{begin},{}) vs [{s},{e})", begin + dur);
            }
            intervals.push((begin, begin + dur));
        }
    }

    /// The contiguous-window timeline books exactly what the `VecDeque`
    /// implementation it replaced books — every begin time and the final
    /// horizon — over streams long enough to reach the 256-interval cap,
    /// the front coalescing and the buffer compaction. Requests follow the
    /// fabric's shape: most land within a few bookings of the newest one,
    /// some ahead of it, some deep in the window, some before all of it.
    #[test]
    fn gap_tracker_matches_vecdeque_oracle(
        reqs in prop::collection::vec(any_timeline_request(), 300..2000),
    ) {
        let mut fast = GapTracker::new();
        let mut oracle = OracleGapTracker::default();
        let mut newest = 1u64 << 20;
        for (step, (placement, offset, class, hold)) in reqs.into_iter().enumerate() {
            // A NoC link hop, a DRAM channel burst, a worklist lock hold.
            let duration = match class {
                0 => 1,
                1 => 8,
                _ => hold,
            };
            let now = match placement {
                0..=79 => newest.saturating_sub(offset),
                80..=89 => newest + offset,
                90..=94 => newest.saturating_sub(4_000 + offset * 50),
                _ => offset * 16,
            };
            let begin = oracle.reserve(now, duration);
            prop_assert_eq!(fast.reserve(now, duration), begin,
                "step {}: reserve({}, {}) diverged", step, now, duration);
            if placement < 90 {
                newest = begin;
            }
        }
        prop_assert_eq!(fast.horizon(), oracle.horizon());
    }

    /// The timeline books what the oracle books — every begin time and
    /// the horizon after every request — on streams shaped like the
    /// fabric's measured traffic (see [`fabric_stream`]).
    #[test]
    fn gap_tracker_matches_oracle_on_fabric_shaped_streams(shape in 0u32..4,
                                                           seed in any::<u64>()) {
        let mut fast = GapTracker::new();
        let mut oracle = OracleGapTracker::default();
        for (step, (now, duration)) in fabric_stream(shape, seed, 3_000).into_iter().enumerate() {
            let begin = oracle.reserve(now, duration);
            prop_assert_eq!(fast.reserve(now, duration), begin,
                "shape {} step {}: reserve({}, {}) diverged", shape, step, now, duration);
            prop_assert_eq!(fast.horizon(), oracle.horizon(), "shape {} step {}", shape, step);
        }
    }

    /// The mesh routes every packet exactly as the per-hop XY router it
    /// replaced: latency and hop count agree after every packet, on 2x2,
    /// 4x4 and 8x8 meshes,
    /// for request and response packets and multi-cycle ones.
    #[test]
    fn noc_matches_per_hop_xy_oracle(width_ix in 0usize..3,
                                     packets in prop::collection::vec(
                                         (0usize..64, 0usize..64, 0usize..3, 0u64..40, 0u32..4),
                                         1..600)) {
        let width = [2, 4, 8][width_ix];
        let mut noc = Noc::new(width, 3, 64);
        let mut oracle = OracleNoc::new(width, 3, 64);
        let mut clock = 1u64 << 20;
        for (step, (src, dst, bytes_ix, dt, stale)) in packets.into_iter().enumerate() {
            let bytes = [16, 64, 512][bytes_ix];
            clock += dt;
            // A quarter are issued from a stale clock, far behind the rest.
            let now = if stale == 0 { clock - 5_000 - dt * 100 } else { clock };
            let want = oracle.route(src, dst, bytes, now);
            prop_assert_eq!(noc.route(src, dst, bytes, now), want,
                "step {}: {} -> {} ({} B at {})", step, src, dst, bytes, now);
            prop_assert_eq!(noc.total_hops(), oracle.total_hops);
        }
    }

    /// Sweep enumeration is complete and duplicate-free for every named
    /// sweep under arbitrary parameters, and per-point seeds depend only
    /// on the workload (all configurations of one workload must share an
    /// input graph).
    #[test]
    fn sweeps_enumerate_unique_points(params in any_sweep_params()) {
        for name in Sweep::NAMES {
            let sweep = Sweep::named(name, &params).unwrap();
            prop_assert!(!sweep.points.is_empty(), "{name} enumerated nothing");
            let mut ids: Vec<&str> = sweep.points.iter().map(|p| p.id.as_str()).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "{} has duplicate ids", name);
            let mut seed_of = std::collections::HashMap::new();
            for point in &sweep.points {
                let prior = seed_of.insert(point.run.kind, point.run.seed);
                prop_assert!(prior.is_none_or(|s| s == point.run.seed),
                    "{}: {} configs disagree on the input seed", name, point.run.kind);
            }
        }
    }

    /// Filtered selection picks exactly the matching points — none
    /// duplicated, none missing, enumeration order preserved — for any
    /// filter string.
    #[test]
    fn sweep_filter_selects_exactly_the_matches(params in any_sweep_params(),
                                                filter in any_filter()) {
        let sweep = Sweep::fig15(&params);
        let cfg = SweepConfig::serial().with_filter(filter.clone());
        let picked: Vec<&str> = sweep.selected(&cfg).iter().map(|p| p.id.as_str()).collect();
        let want: Vec<&str> = sweep.points.iter()
            .map(|p| p.id.as_str())
            .filter(|id| id.contains(filter.as_str()))
            .collect();
        prop_assert_eq!(picked, want);
        // No filter selects everything.
        prop_assert_eq!(sweep.selected(&SweepConfig::serial()).len(), sweep.points.len());
    }

    /// The credit ceiling holds under arbitrary consume/release
    /// interleavings with multi-credit releases, and the pool's own
    /// accounting (available + outstanding == total) never drifts.
    #[test]
    fn credit_pool_never_exceeds_ceiling(total in 1u32..64,
                                         ops in prop::collection::vec((any::<bool>(), 1u32..8), 0..500)) {
        let mut pool = CreditPool::new(total);
        let mut outstanding = 0u32;
        let mut denied = 0u64;
        for (consume, n) in ops {
            if consume {
                if pool.try_consume() {
                    outstanding += 1;
                } else {
                    denied += 1;
                    prop_assert_eq!(pool.available(), 0, "denial only when empty");
                }
            } else {
                let give_back = n.min(outstanding);
                if give_back > 0 {
                    pool.release(give_back);
                    outstanding -= give_back;
                }
            }
            prop_assert!(pool.available() <= pool.total(), "ceiling exceeded");
            prop_assert_eq!(pool.available() + outstanding, total, "credits leaked");
            prop_assert!(pool.check_conservation());
        }
        prop_assert_eq!(pool.starvations(), denied);
        prop_assert_eq!(pool.consumed() - pool.returned(), outstanding as u64);
    }

    /// Splitting a value stream at any point and merging the two
    /// histograms is exact: counts, sum, and every bucket match the
    /// histogram that recorded the whole stream.
    #[test]
    fn histogram_merge_preserves_any_split(values in prop::collection::vec(any::<u64>(), 0..300),
                                           cut in 0usize..300) {
        let cut = cut.min(values.len());
        let mut whole = Histogram::default();
        for &v in &values {
            whole.record(v);
        }
        let mut left = Histogram::default();
        for &v in &values[..cut] {
            left.record(v);
        }
        let mut right = Histogram::default();
        for &v in &values[cut..] {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.sum(), whole.sum());
        prop_assert_eq!(left.count(), values.len() as u64);
        prop_assert_eq!(left.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
        for bucket in 0..minnow::sim::stats::HISTOGRAM_BUCKETS {
            prop_assert_eq!(left.bucket_count(bucket), whole.bucket_count(bucket),
                "bucket {} diverged after merge", bucket);
        }
    }

    /// Histogram merge is associative: (a + b) + c == a + (b + c).
    #[test]
    fn histogram_merge_is_associative(a in prop::collection::vec(any::<u64>(), 0..100),
                                      b in prop::collection::vec(any::<u64>(), 0..100),
                                      c in prop::collection::vec(any::<u64>(), 0..100)) {
        let build = |vs: &[u64]| {
            let mut h = Histogram::default();
            for &v in vs {
                h.record(v);
            }
            h
        };
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.sum(), right.sum());
        for bucket in 0..minnow::sim::stats::HISTOGRAM_BUCKETS {
            prop_assert_eq!(left.bucket_count(bucket), right.bucket_count(bucket));
        }
    }

    /// Cycle-bin accumulation commutes: charging the same multiset of
    /// (core, bin, cycles) in any order yields identical books, and
    /// closing distributes the identical drain.
    #[test]
    fn cycle_accounting_is_order_independent(
        cores in 1usize..8,
        charges in prop::collection::vec((0usize..8, 0usize..5, 0u64..1000), 0..200),
    ) {
        let charge_all = |acct: &mut CycleAccounting, order: &[(usize, usize, u64)]| {
            for &(core, bin, cycles) in order {
                acct.charge(core % cores, CycleBin::ALL[bin], cycles);
            }
        };
        let mut forward = CycleAccounting::new(cores);
        charge_all(&mut forward, &charges);
        let mut reversed = CycleAccounting::new(cores);
        let back: Vec<_> = charges.iter().rev().copied().collect();
        charge_all(&mut reversed, &back);
        let makespan = (0..cores).map(|c| forward.core(c).total()).max().unwrap_or(0);
        forward.close(makespan);
        reversed.close(makespan);
        prop_assert!(forward.verify_closed(makespan).is_ok());
        for core in 0..cores {
            for bin in CycleBin::ALL {
                prop_assert_eq!(forward.core(core).get(bin), reversed.core(core).get(bin),
                    "core {} bin {} depends on charge order", core, bin.name());
            }
            prop_assert_eq!(forward.core(core).total(), makespan);
        }
        prop_assert_eq!(forward.merged().total(), makespan * cores as u64);
    }

    /// CSR construction round-trips an arbitrary edge list.
    #[test]
    fn csr_roundtrip(edges in prop::collection::vec((0u32..50, 0u32..50), 0..300)) {
        let g = Csr::from_edges(50, &edges, None);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.edges(), edges.len());
        let mut want = edges.clone();
        want.sort_unstable();
        let mut got = Vec::new();
        for v in 0..50u32 {
            for &u in g.neighbors(v) {
                got.push((v, u));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
