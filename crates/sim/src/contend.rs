//! Virtual-time serialization for shared software structures.
//!
//! Concurrent worklists, OBIM buckets, and lock-protected maps serialize
//! their critical sections. [`SharedResource`] models one such serialization
//! point: an acquisition at virtual time `now` occupies the earliest free
//! interval at or after `now`, and pays an extra *hand-off* cost when the
//! previous holder was a different core (the lock/queue cache line must
//! ping-pong through the coherence fabric).
//!
//! Because the simulated executor advances one thread through several
//! operations before returning to others, acquisition requests do **not**
//! arrive in virtual-time order. The resource therefore keeps a window of
//! future busy intervals and gap-fills: a request at `t=0` slots into an
//! idle gap even if a later-issued request already reserved `t=500`.
//!
//! This single mechanism produces the paper's software-worklist pathologies:
//! rising cycles-per-operation with thread count (Fig. 11), the worklist
//! share of the cycle breakdown (Fig. 5), and CC's scalability collapse past
//! 16 threads (Fig. 15).

use crate::cycles::Cycle;
use crate::stats::Counter;

/// Maximum tracked future busy intervals; the oldest are dropped beyond
/// this (far more than any realistic number of in-flight operations).
const MAX_INTERVALS: usize = 256;

/// A single-server occupancy timeline that accepts out-of-order requests.
///
/// `reserve(now, duration)` books the earliest interval of `duration` at or
/// after `now`, gap-filling between existing reservations. Used by
/// [`SharedResource`], NoC links, and DRAM channels — anywhere one physical
/// resource serves requests arriving at non-monotonic virtual times.
/// `PartialEq` compares the live booked window, not entries already
/// coalesced away.
#[derive(Debug, Clone, Default)]
pub struct GapTracker {
    /// Booked intervals; `busy[head..]` is the live window. Entries before
    /// `head` were coalesced away and are compacted out in batches, so the
    /// window stays one contiguous slice.
    busy: Vec<(Cycle, Cycle)>,
    head: usize,
}

impl PartialEq for GapTracker {
    fn eq(&self, other: &Self) -> bool {
        self.window() == other.window()
    }
}

impl Eq for GapTracker {}

impl GapTracker {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        GapTracker::default()
    }

    fn window(&self) -> &[(Cycle, Cycle)] {
        &self.busy[self.head..]
    }

    /// Books the earliest `duration`-cycle slot at or after `now`; returns
    /// the slot's begin time.
    pub fn reserve(&mut self, now: Cycle, duration: Cycle) -> Cycle {
        if duration == 0 {
            return now;
        }
        // Intervals are non-overlapping with both starts and ends strictly
        // increasing (each insert lands in a gap), so an interval ending at
        // or before `now` can neither host this reservation (its successor
        // would have to start >= now + duration > its own end) nor raise
        // `begin` above `now`. Skip past them by galloping back from the
        // newest booking — almost every request lands within a few
        // bookings of it — then binary-searching inside that bracket.
        let live = self.window();
        let mut hi = live.len(); // every live[hi..] ends after `now`
        let mut step = 1;
        let lo = loop {
            if step > hi {
                break 0;
            }
            let probe = hi - step;
            if live[probe].1 <= now {
                break probe + 1;
            }
            hi = probe;
            step *= 2;
        };
        let first = lo + live[lo..hi].partition_point(|&(_, e)| e <= now);
        let mut begin = now;
        let mut insert_at = live.len();
        for (i, &(s, e)) in live.iter().enumerate().skip(first) {
            if begin + duration <= s {
                insert_at = i;
                break;
            }
            begin = begin.max(e);
        }
        self.busy
            .insert(self.head + insert_at, (begin, begin + duration));
        if self.busy.len() - self.head > MAX_INTERVALS {
            // Coalesce the two earliest intervals (closing the gap between
            // them) so past occupancy is never forgotten, only coarsened.
            let (s0, _) = self.busy[self.head];
            self.head += 1;
            let front = &mut self.busy[self.head];
            front.0 = s0.min(front.0);
            if self.head >= MAX_INTERVALS {
                self.busy.drain(..self.head);
                self.head = 0;
            }
        }
        begin
    }

    /// The latest reserved end time (0 when idle).
    pub fn horizon(&self) -> Cycle {
        self.window().last().map_or(0, |&(_, e)| e)
    }
}

/// Result of acquiring a [`SharedResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquire {
    /// When the critical section began (>= request time; includes any
    /// hand-off transfer).
    pub start: Cycle,
    /// When the resource was released again.
    pub done: Cycle,
    /// Cycles between the request and the start of the critical section.
    pub waited: Cycle,
}

/// One serialization point in virtual time.
#[derive(Debug, Clone)]
pub struct SharedResource {
    timeline: GapTracker,
    last_core: Option<usize>,
    handoff_cost: Cycle,
    acquisitions: Counter,
    handoffs: Counter,
}

impl SharedResource {
    /// Creates an idle resource. `handoff_cost` is the extra latency paid
    /// when consecutive holders are different cores (coherence transfer of
    /// the protected cache line, typically an L3 round trip).
    pub fn new(handoff_cost: Cycle) -> Self {
        SharedResource {
            timeline: GapTracker::new(),
            last_core: None,
            handoff_cost,
            acquisitions: Counter::new(),
            handoffs: Counter::new(),
        }
    }

    /// Acquires the resource for `core` at time `now`, holding it `hold`
    /// cycles (plus a hand-off transfer when the holder changes).
    pub fn acquire(&mut self, core: usize, now: Cycle, hold: Cycle) -> Acquire {
        self.acquisitions.inc();
        let handoff = match self.last_core {
            Some(prev) if prev != core => {
                self.handoffs.inc();
                self.handoff_cost
            }
            _ => 0,
        };
        self.last_core = Some(core);
        let duration = handoff + hold;
        let begin = self.timeline.reserve(now, duration);
        let start = begin + handoff;
        let done = begin + duration;
        Acquire {
            start,
            done,
            waited: start - now,
        }
    }

    /// The latest time any reserved interval ends (0 when idle forever).
    pub fn horizon(&self) -> Cycle {
        self.timeline.horizon()
    }

    /// Total acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Acquisitions that required a cross-core hand-off.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_same_core_has_no_wait() {
        let mut r = SharedResource::new(50);
        let a = r.acquire(0, 100, 10);
        assert_eq!(a, Acquire { start: 100, done: 110, waited: 0 });
        let b = r.acquire(0, 200, 10);
        assert_eq!(b.waited, 0);
        assert_eq!(r.handoffs(), 0);
    }

    #[test]
    fn back_to_back_same_core_serializes() {
        let mut r = SharedResource::new(50);
        r.acquire(0, 0, 10);
        let b = r.acquire(0, 5, 10);
        assert_eq!(b.start, 10);
        assert_eq!(b.waited, 5);
    }

    #[test]
    fn cross_core_handoff_costs_extra() {
        let mut r = SharedResource::new(50);
        r.acquire(0, 0, 10);
        let b = r.acquire(1, 0, 10);
        // Slot opens at 10; 50 cycles of line transfer, then 10 held.
        assert_eq!(b.start, 60);
        assert_eq!(b.done, 70);
        assert_eq!(r.handoffs(), 1);
    }

    #[test]
    fn early_request_fills_idle_gap() {
        let mut r = SharedResource::new(0);
        // A thread raced ahead and reserved far in the future.
        r.acquire(0, 1000, 10);
        // Another thread requests much earlier: must NOT queue behind it.
        let b = r.acquire(0, 0, 10);
        assert_eq!(b.start, 0);
        assert_eq!(b.waited, 0);
        // And a third fits between the two.
        let c = r.acquire(0, 500, 10);
        assert_eq!(c.start, 500);
        assert_eq!(r.horizon(), 1010);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut r = SharedResource::new(0);
        r.acquire(0, 0, 10); // [0,10)
        r.acquire(0, 15, 10); // [15,25)
        // 5-cycle gap at [10,15) cannot hold 10 cycles: lands at 25.
        let c = r.acquire(0, 8, 10);
        assert_eq!(c.start, 25);
        assert_eq!(c.waited, 17);
    }

    #[test]
    fn contention_grows_with_participants() {
        let finish_of = |cores: usize| {
            let mut r = SharedResource::new(40);
            let mut finish = 0;
            for i in 0..100 {
                let a = r.acquire(i % cores, 0, 20);
                finish = finish.max(a.done);
            }
            finish
        };
        assert!(finish_of(8) > finish_of(1));
    }

    #[test]
    fn interval_window_is_bounded() {
        let mut r = SharedResource::new(0);
        for i in 0..10_000u64 {
            r.acquire(0, i * 100, 10);
        }
        assert!(r.acquisitions() == 10_000);
        // Window stayed bounded (internal invariant; horizon still sane).
        assert!(r.horizon() >= 999_900);
    }

    #[test]
    fn coalesced_bookings_are_compacted_away() {
        let mut t = GapTracker::new();
        for i in 0..10_000u64 {
            t.reserve(i * 100, 10);
            assert!(
                t.busy.len() <= 2 * MAX_INTERVALS,
                "retired bookings pile up"
            );
        }
        assert_eq!(t.window().len(), MAX_INTERVALS);
        // Coalescing keeps the earliest start: the past is coarsened, never
        // forgotten.
        assert_eq!(t.window()[0].0, 0);
        // Equality sees the live window, not where it sits in the buffer.
        let packed = GapTracker {
            busy: t.window().to_vec(),
            head: 0,
        };
        assert_ne!(t.head, 0);
        assert_eq!(t, packed);
    }

    #[test]
    fn heap_is_bounded_however_sparse_the_bookings() {
        let mut t = GapTracker::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut newest = 0;
        for i in 0..100_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // 10^5 bookings over 10^9 cycles: mostly 1-cycle link hops,
            // some longer, a quarter landing deep behind the newest.
            let now = if i % 4 == 0 {
                newest - (state % 100_000_000).min(newest)
            } else {
                newest + state % 40_000
            };
            let duration = if i % 97 == 0 { 8 } else { 1 };
            newest = newest.max(t.reserve(now, duration));
            let heap = t.busy.capacity() * std::mem::size_of::<(Cycle, Cycle)>();
            assert!(heap <= 8 << 10, "{heap} bytes");
        }
        assert!(t.horizon() > 1_000_000_000, "{}", t.horizon());
    }

    #[test]
    fn acquisitions_and_handoffs_are_counted() {
        let mut r = SharedResource::new(10);
        r.acquire(0, 0, 5);
        r.acquire(1, 0, 5);
        assert_eq!(r.acquisitions(), 2);
        assert_eq!(r.handoffs(), 1);
    }
}
