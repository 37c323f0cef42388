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

/// Multi-channel DRAM with per-channel queueing.
#[derive(Debug, Clone)]
pub struct Dram {
    base_latency: Cycle,
    service: Cycle,
    channels: Vec<GapTracker>,
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
        }
    }

    /// Services one cache-line access to `line_addr` starting at `now`;
    /// returns the total latency including queueing.
    pub fn access(&mut self, line_addr: u64, now: Cycle) -> Cycle {
        // Channel interleave on line address bits (hash to spread strides).
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let ch = (h % self.channels.len() as u64) as usize;
        let start = self.channels[ch].reserve(now, self.service);
        self.base_latency + (start - now)
    }

    /// Uncontended access latency in cycles.
    pub fn base_latency(&self) -> Cycle {
        self.base_latency
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_costs_base_latency() {
        let mut d = Dram::new(4, 200, 8);
        assert_eq!(d.access(0x40, 0), 200);
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
    fn queueing_reflects_contention() {
        let mut d = Dram::new(1, 100, 50);
        // One channel, ten requests at once: waits of 0, 50, ..., 450
        // on top of the base latency.
        let latencies: Vec<u64> = (0..10).map(|i| d.access(i, 0)).collect();
        let expected: Vec<u64> = (0..10).map(|k| 100 + 50 * k).collect();
        assert_eq!(latencies, expected);
    }
}
