//! Multi-channel DRAM model (paper Table 3: 12-channel DDR4-2400; Fig. 21
//! sweeps 1..12 channels).
//!
//! Each channel is a single-server queue in virtual time: a 64B line access
//! costs the base latency plus any queueing delay behind earlier requests on
//! the same channel. Lines are interleaved across channels, so reducing the
//! channel count reduces aggregate bandwidth and — once the offered load
//! exceeds it — inflates effective memory latency, which is exactly the
//! latency-bound → bandwidth-bound transition the paper discusses.

use crate::contend::GapTracker;
use crate::cycles::Cycle;
use crate::stats::{Counter, Distribution, Histogram};

/// Multi-channel DRAM with per-channel queueing.
#[derive(Debug, Clone)]
pub struct Dram {
    base_latency: Cycle,
    service: Cycle,
    channels: Vec<GapTracker>,
    accesses: Counter,
    queueing: Distribution,
    queue_hist: Histogram,
}

impl Dram {
    /// Creates an idle DRAM model.
    ///
    /// * `channels` — number of independent channels (≥ 1),
    /// * `base_latency` — uncontended access latency in cycles,
    /// * `service` — per-64B-line channel occupancy in cycles (the inverse of
    ///   per-channel bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `service == 0`.
    pub fn new(channels: usize, base_latency: Cycle, service: Cycle) -> Self {
        assert!(channels > 0, "need at least one DRAM channel");
        assert!(service > 0, "channel service time must be positive");
        Dram {
            base_latency,
            service,
            channels: vec![GapTracker::new(); channels],
            accesses: Counter::new(),
            queueing: Distribution::new(),
            queue_hist: Histogram::new(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Services one cache-line access to `line_addr` starting at `now`;
    /// returns the total latency including queueing.
    pub fn access(&mut self, line_addr: u64, now: Cycle) -> Cycle {
        self.accesses.inc();
        // Channel interleave on line address bits (hash to spread strides).
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let ch = (h % self.channels.len() as u64) as usize;
        let start = self.channels[ch].reserve(now, self.service);
        let queued = start - now;
        self.queueing.record(queued as f64);
        self.queue_hist.record(queued);
        self.base_latency + queued
    }

    /// Uncontended access latency in cycles.
    pub fn base_latency(&self) -> Cycle {
        self.base_latency
    }

    /// Total accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Queueing-delay distribution (cycles spent waiting for a channel).
    pub fn queueing(&self) -> &Distribution {
        &self.queueing
    }

    /// Log2-bucketed histogram of per-access queueing delays (exactly
    /// mergeable across sweeps, unlike the running distribution).
    pub fn queue_histogram(&self) -> &Histogram {
        &self.queue_hist
    }

    /// Mean achieved latency (base + mean queueing).
    pub fn mean_latency(&self) -> f64 {
        self.base_latency as f64 + self.queueing.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_costs_base_latency() {
        let mut d = Dram::new(4, 200, 8);
        assert_eq!(d.access(0x40, 0), 200);
        assert_eq!(d.accesses(), 1);
    }

    #[test]
    fn same_channel_back_to_back_queues() {
        let mut d = Dram::new(1, 200, 8);
        let a = d.access(0, 0);
        let b = d.access(1, 0); // one channel: must queue behind `a`
        assert_eq!(a, 200);
        assert_eq!(b, 208);
    }

    #[test]
    fn more_channels_reduce_queueing() {
        let run = |channels: usize| {
            let mut d = Dram::new(channels, 200, 8);
            let mut total = 0u64;
            for i in 0..1000u64 {
                total += d.access(i, 0);
            }
            total
        };
        let narrow = run(1);
        let wide = run(12);
        assert!(wide < narrow, "12 channels must outrun 1: {wide} vs {narrow}");
    }

    #[test]
    fn idle_periods_drain_queues() {
        let mut d = Dram::new(1, 200, 8);
        d.access(0, 0);
        // Much later: channel idle again, no queueing.
        assert_eq!(d.access(1, 10_000), 200);
    }

    #[test]
    fn mean_latency_reflects_contention() {
        let mut d = Dram::new(1, 100, 50);
        for i in 0..10 {
            d.access(i, 0);
        }
        assert!(d.mean_latency() > 100.0);
        assert!(d.queueing().max().unwrap() >= 50.0 * 9.0 - 1.0);
    }
}
