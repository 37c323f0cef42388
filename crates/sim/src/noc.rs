//! Mesh network-on-chip model (paper Table 3: 8x8 mesh, 512 bits/cycle/link,
//! X-Y routing, 3 cycles/hop).
//!
//! Packets are routed dimension-ordered (X first, then Y). Every directed
//! link keeps a `next_free` virtual time; a packet crossing a busy link waits
//! for it, which yields emergent congestion when many cores hammer the same
//! L3 bank or memory controller.

use crate::contend::GapTracker;
use crate::cycles::Cycle;
use crate::stats::{Counter, Distribution, Histogram};

/// A tile coordinate on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Column (x) index.
    pub x: usize,
    /// Row (y) index.
    pub y: usize,
}

/// Mesh NoC with per-link queueing.
#[derive(Debug, Clone)]
pub struct Noc {
    width: usize,
    hop_cycles: Cycle,
    link_bytes: usize,
    /// Per-link occupancy timelines, indexed by `link_index`; 4
    /// directions/tile. Gap-filling tolerates out-of-order request times.
    links: Vec<GapTracker>,
    packets: Counter,
    total_hops: Counter,
    queueing: Distribution,
    queue_hist: Histogram,
}

/// Direction of a directed mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Noc {
    /// Creates an idle `width x width` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `hop_cycles == 0`, or `link_bytes == 0`.
    pub fn new(width: usize, hop_cycles: Cycle, link_bytes: usize) -> Self {
        assert!(width > 0, "mesh width must be positive");
        assert!(hop_cycles > 0, "hop latency must be positive");
        assert!(link_bytes > 0, "link width must be positive");
        Noc {
            width,
            hop_cycles,
            link_bytes,
            links: vec![GapTracker::new(); width * width * 4],
            packets: Counter::new(),
            total_hops: Counter::new(),
            queueing: Distribution::new(),
            queue_hist: Histogram::new(),
        }
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Maps a flat tile id (core id) to mesh coordinates, row-major.
    pub fn tile_of(&self, id: usize) -> Tile {
        Tile {
            x: id % self.width,
            y: (id / self.width) % self.width,
        }
    }

    fn link_index(&self, tile: Tile, dir: Dir) -> usize {
        let d = match dir {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        };
        (tile.y * self.width + tile.x) * 4 + d
    }

    /// Routes a `bytes`-byte packet from tile `src` to tile `dst` starting at
    /// `now`; returns total network latency (hops + queueing + serialization).
    ///
    /// A zero-hop route (src == dst) costs one hop of latency (local ring
    /// stop), matching ZSim-style models.
    pub fn route(&mut self, src: usize, dst: usize, bytes: usize, now: Cycle) -> Cycle {
        self.packets.inc();
        let mut at = now;
        let mut cur = self.tile_of(src);
        let dest = self.tile_of(dst);
        // Serialization: a packet occupies each link for ceil(bytes/link_bytes).
        let occupancy = (bytes.max(1)).div_ceil(self.link_bytes) as Cycle;
        let mut hops: u64 = 0;
        let mut queued: Cycle = 0;

        while cur != dest {
            let dir = if cur.x < dest.x {
                Dir::East
            } else if cur.x > dest.x {
                Dir::West
            } else if cur.y < dest.y {
                Dir::South
            } else {
                Dir::North
            };
            let idx = self.link_index(cur, dir);
            let start = self.links[idx].reserve(at, occupancy);
            queued += start - at;
            at = start + self.hop_cycles;
            hops += 1;
            cur = match dir {
                Dir::East => Tile { x: cur.x + 1, ..cur },
                Dir::West => Tile { x: cur.x - 1, ..cur },
                Dir::South => Tile { y: cur.y + 1, ..cur },
                Dir::North => Tile { y: cur.y - 1, ..cur },
            };
        }
        if hops == 0 {
            at += self.hop_cycles;
            hops = 1;
        }
        self.total_hops.add(hops);
        self.queueing.record(queued as f64);
        self.queue_hist.record(queued);
        at - now
    }

    /// Uncontended latency between two tiles (diagnostic; no state change).
    pub fn ideal_latency(&self, src: usize, dst: usize) -> Cycle {
        let a = self.tile_of(src);
        let b = self.tile_of(dst);
        let hops = (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)).max(1) as Cycle;
        hops * self.hop_cycles
    }

    /// Total packets routed.
    pub fn packets(&self) -> u64 {
        self.packets.get()
    }

    /// Mean hops per packet.
    pub fn mean_hops(&self) -> f64 {
        if self.packets.get() == 0 {
            0.0
        } else {
            self.total_hops.get() as f64 / self.packets.get() as f64
        }
    }

    /// Queueing-delay distribution across routed packets.
    pub fn queueing(&self) -> &Distribution {
        &self.queueing
    }

    /// Log2-bucketed histogram of per-packet link-queueing delays
    /// (exactly mergeable, for metrics snapshots).
    pub fn queue_histogram(&self) -> &Histogram {
        &self.queue_hist
    }

    /// Total hops crossed by all packets (link occupancy proxy).
    pub fn total_hops(&self) -> u64 {
        self.total_hops.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_latency_matches_manhattan_distance() {
        let mut noc = Noc::new(8, 3, 64);
        // Tile 0 = (0,0); tile 63 = (7,7): 14 hops.
        let lat = noc.route(0, 63, 64, 0);
        assert_eq!(lat, 14 * 3);
        assert_eq!(noc.ideal_latency(0, 63), 42);
    }

    #[test]
    fn local_route_costs_one_hop() {
        let mut noc = Noc::new(4, 3, 64);
        assert_eq!(noc.route(5, 5, 64, 0), 3);
        assert_eq!(noc.ideal_latency(5, 5), 3);
    }

    #[test]
    fn contention_delays_second_packet() {
        let mut noc = Noc::new(4, 3, 64);
        // Two big packets over the same first link at the same time.
        let first = noc.route(0, 3, 512, 0);
        let second = noc.route(0, 3, 512, 0);
        assert!(second > first, "queued packet must be slower: {first} vs {second}");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut noc = Noc::new(4, 3, 64);
        let a = noc.route(0, 1, 64, 0);
        let b = noc.route(14, 15, 64, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_accumulate() {
        let mut noc = Noc::new(4, 3, 64);
        noc.route(0, 5, 64, 0);
        noc.route(0, 5, 64, 100);
        assert_eq!(noc.packets(), 2);
        assert!(noc.mean_hops() > 0.0);
        assert_eq!(noc.queueing().count(), 2);
    }

    #[test]
    fn tile_mapping_is_row_major() {
        let noc = Noc::new(8, 3, 64);
        assert_eq!(noc.tile_of(0), Tile { x: 0, y: 0 });
        assert_eq!(noc.tile_of(7), Tile { x: 7, y: 0 });
        assert_eq!(noc.tile_of(8), Tile { x: 0, y: 1 });
        assert_eq!(noc.tile_of(63), Tile { x: 7, y: 7 });
    }
}
