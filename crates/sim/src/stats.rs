//! Statistics primitives shared by all models: counters, log2-bucketed
//! histograms with exact merge, and the *closed* per-core cycle-accounting
//! bins behind the Fig. 5 breakdown (every simulated cycle lands in exactly
//! one bin).

use std::fmt;

use crate::cycles::Cycle;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. Buckets are *fixed*, so merging two histograms is
/// exact: the merge of two recordings equals the recording of the
/// concatenated stream, bucket for bucket, with count and sum preserved
/// (the sum is kept in a `u128` so it cannot saturate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a value.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Half-open value range `[lo, hi)` covered by a bucket (`hi` is
    /// `u64::MAX` for the last bucket, which is closed at the top).
    pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
        assert!(bucket < HISTOGRAM_BUCKETS, "bucket out of range");
        match bucket {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), 1 << b),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of a sample.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.counts[Self::bucket_of(value)] += n;
        self.sum += value as u128 * n as u128;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Count in one bucket.
    pub fn bucket_count(&self, bucket: usize) -> u64 {
        self.counts[bucket]
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Merges another histogram into this one (exact: equivalent to
    /// having recorded both streams into a single histogram).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// An upper bound below which at least `fraction` of the samples
    /// fall (bucket-granular; `None` when empty).
    pub fn quantile_bound(&self, fraction: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = (count as f64 * fraction.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.2}", self.count(), self.mean())
    }
}

/// One bin of the closed cycle accounting: where a worker-core cycle
/// went. Every simulated cycle of every core lands in exactly one bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleBin {
    /// Issue-limited useful compute.
    Useful,
    /// Worklist/scheduler operations (instructions, serialization, line
    /// ping-pong, accelerator-call stalls).
    Worklist,
    /// Memory stalls on task data after MLP overlap.
    Memory,
    /// Atomic/fence serialization.
    Fence,
    /// Branch misprediction penalties.
    Branch,
    /// Idle polling while the worklist was momentarily empty, and
    /// superstep load imbalance in BSP engines.
    Idle,
    /// Tail cycles between a core's last activity and the run's
    /// makespan (cores that finished early).
    Drain,
}

impl CycleBin {
    /// All bins, in presentation order.
    pub const ALL: [CycleBin; 7] = [
        CycleBin::Useful,
        CycleBin::Worklist,
        CycleBin::Memory,
        CycleBin::Fence,
        CycleBin::Branch,
        CycleBin::Idle,
        CycleBin::Drain,
    ];

    /// Number of bins.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase label for reports and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            CycleBin::Useful => "useful",
            CycleBin::Worklist => "worklist",
            CycleBin::Memory => "memory",
            CycleBin::Fence => "fence",
            CycleBin::Branch => "branch",
            CycleBin::Idle => "idle",
            CycleBin::Drain => "drain",
        }
    }

    fn index(self) -> usize {
        match self {
            CycleBin::Useful => 0,
            CycleBin::Worklist => 1,
            CycleBin::Memory => 2,
            CycleBin::Fence => 3,
            CycleBin::Branch => 4,
            CycleBin::Idle => 5,
            CycleBin::Drain => 6,
        }
    }
}

/// One core's cycle bins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreBins {
    bins: [u64; CycleBin::COUNT],
}

impl CoreBins {
    /// Cycles in one bin.
    pub fn get(&self, bin: CycleBin) -> u64 {
        self.bins[bin.index()]
    }

    /// Adds cycles to a bin.
    #[inline]
    pub fn charge(&mut self, bin: CycleBin, cycles: u64) {
        self.bins[bin.index()] += cycles;
    }

    /// Sum over all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Adds another core's bins into this one (for cross-core rollups).
    pub fn merge(&mut self, other: &CoreBins) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }
}

/// Closed per-core cycle accounting for one simulated run.
///
/// The executor charges every clock advance of every worker core to
/// exactly one [`CycleBin`]; [`CycleAccounting::close`] then assigns
/// each core's tail (makespan minus its final clock) to
/// [`CycleBin::Drain`]. After closing, **each core's bins sum exactly
/// to the run's makespan** — no cycle is lost or double-counted —
/// which [`CycleAccounting::verify_closed`] checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccounting {
    cores: Vec<CoreBins>,
    closed_to: Option<Cycle>,
}

impl CycleAccounting {
    /// Zeroed accounting for `cores` worker cores.
    pub fn new(cores: usize) -> Self {
        CycleAccounting {
            cores: vec![CoreBins::default(); cores],
            closed_to: None,
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// One core's bins.
    pub fn core(&self, core: usize) -> &CoreBins {
        &self.cores[core]
    }

    /// Charges cycles on one core to a bin.
    #[inline]
    pub fn charge(&mut self, core: usize, bin: CycleBin, cycles: u64) {
        self.cores[core].charge(bin, cycles);
    }

    /// Sum of one bin across all cores.
    pub fn bin_total(&self, bin: CycleBin) -> u64 {
        self.cores.iter().map(|c| c.get(bin)).sum()
    }

    /// All cores' bins merged into one.
    pub fn merged(&self) -> CoreBins {
        let mut m = CoreBins::default();
        for c in &self.cores {
            m.merge(c);
        }
        m
    }

    /// The makespan this accounting was closed to, if any.
    pub fn closed_to(&self) -> Option<Cycle> {
        self.closed_to
    }

    /// Closes the books at `makespan`: each core's remaining cycles up
    /// to the makespan land in [`CycleBin::Drain`].
    ///
    /// # Panics
    ///
    /// Panics if any core was charged beyond the makespan — that would
    /// mean a cycle was double-counted upstream.
    pub fn close(&mut self, makespan: Cycle) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            let busy = core.total();
            assert!(
                busy <= makespan,
                "core {i} charged {busy} cycles past makespan {makespan}"
            );
            core.charge(CycleBin::Drain, makespan - busy);
        }
        self.closed_to = Some(makespan);
    }

    /// Checks the closed-accounting invariant: every core's bins sum
    /// exactly to `makespan`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first core whose bins do not sum to
    /// the makespan, or if the books were never closed.
    pub fn verify_closed(&self, makespan: Cycle) -> Result<(), String> {
        if self.closed_to != Some(makespan) {
            return Err(format!(
                "accounting closed to {:?}, expected {makespan}",
                self.closed_to
            ));
        }
        for (i, core) in self.cores.iter().enumerate() {
            let total = core.total();
            if total != makespan {
                return Err(format!(
                    "core {i}: bins sum to {total}, makespan is {makespan}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(format!("{c}"), "0");
    }

    #[test]
    fn histogram_buckets_values_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b);
            if b < 64 {
                assert_eq!(Histogram::bucket_of(hi), b + 1);
            }
        }
    }

    #[test]
    fn histogram_merge_is_exact() {
        let samples = [0u64, 1, 1, 7, 8, 1000, u64::MAX];
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let (left, right) = samples.split_at(3);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &s in left {
            a.record(s);
        }
        for &s in right {
            b.record(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), samples.len() as u64);
        assert_eq!(a.sum(), samples.iter().map(|&s| s as u128).sum());
    }

    #[test]
    fn histogram_quantile_bound_brackets_samples() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_bound(0.5), None);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        // The p50 bucket bound must cover at least half the samples.
        let p50 = h.quantile_bound(0.5).unwrap();
        assert!((2..100).contains(&p50), "p50 bound {p50}");
        assert_eq!(h.quantile_bound(1.0), Some(128));
    }

    #[test]
    fn accounting_closes_every_cycle() {
        let mut acct = CycleAccounting::new(2);
        acct.charge(0, CycleBin::Useful, 70);
        acct.charge(0, CycleBin::Memory, 30);
        acct.charge(1, CycleBin::Worklist, 40);
        assert!(acct.verify_closed(100).is_err(), "not yet closed");
        acct.close(100);
        acct.verify_closed(100).unwrap();
        assert_eq!(acct.core(0).get(CycleBin::Drain), 0);
        assert_eq!(acct.core(1).get(CycleBin::Drain), 60);
        assert_eq!(acct.bin_total(CycleBin::Drain), 60);
        assert_eq!(acct.merged().total(), 200);
        assert!(acct.verify_closed(99).is_err(), "wrong makespan rejected");
    }

    #[test]
    #[should_panic(expected = "past makespan")]
    fn accounting_rejects_overcharged_core() {
        let mut acct = CycleAccounting::new(1);
        acct.charge(0, CycleBin::Useful, 10);
        acct.close(5);
    }
}
