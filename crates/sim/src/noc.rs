//! Mesh network-on-chip model (paper Table 3: 8x8 mesh, 512 bits/cycle/link,
//! X-Y routing, 3 cycles/hop).
//!
//! Packets are routed dimension-ordered (X first, then Y). Every directed
//! link keeps an occupancy timeline; a packet crossing a busy link waits
//! for it, which yields emergent congestion when many cores hammer the same
//! L3 bank or memory controller. Tile coordinates are precomputed, so a
//! route is two strided runs of link indices with no division.

use crate::contend::GapTracker;
use crate::cycles::Cycle;
use crate::stats::Counter;

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
    /// Coordinates of every tile id, row-major.
    tiles: Vec<Tile>,
    /// Per-link occupancy timelines, indexed `tile * 4 + direction`
    /// (east, west, north, south). Gap-filling tolerates out-of-order
    /// request times.
    links: Vec<GapTracker>,
    total_hops: Counter,
}

const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

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
            tiles: (0..width * width)
                .map(|id| Tile {
                    x: id % width,
                    y: id / width,
                })
                .collect(),
            links: vec![GapTracker::new(); width * width * 4],
            total_hops: Counter::new(),
        }
    }

    /// Maps a flat tile id (core id) to mesh coordinates, row-major; ids
    /// past the last tile wrap around.
    pub fn tile_of(&self, id: usize) -> Tile {
        match self.tiles.get(id) {
            Some(&tile) => tile,
            None => self.tiles[id % self.tiles.len()],
        }
    }

    /// Routes a `bytes`-byte packet from tile `src` to tile `dst` starting at
    /// `now`; returns total network latency (hops + queueing + serialization).
    ///
    /// A zero-hop route (src == dst) costs one hop of latency (local ring
    /// stop), matching ZSim-style models.
    pub fn route(&mut self, src: usize, dst: usize, bytes: usize, now: Cycle) -> Cycle {
        let a = self.tile_of(src);
        let b = self.tile_of(dst);
        // Serialization: a packet occupies each link for ceil(bytes/link_bytes).
        let occupancy = (bytes.max(1)).div_ceil(self.link_bytes) as Cycle;
        // X leg along row `a.y`, then Y leg along column `b.x`: link
        // indices step by one tile (4) or one row (4 * width).
        let row = 4 * self.width;
        let (x_first, x_step) = if a.x < b.x {
            ((a.y * self.width + a.x) * 4 + EAST, 4)
        } else {
            ((a.y * self.width + a.x) * 4 + WEST, 4usize.wrapping_neg())
        };
        let (y_first, y_step) = if a.y < b.y {
            ((a.y * self.width + b.x) * 4 + SOUTH, row)
        } else {
            ((a.y * self.width + b.x) * 4 + NORTH, row.wrapping_neg())
        };
        let x_hops = a.x.abs_diff(b.x);
        let y_hops = a.y.abs_diff(b.y);
        let mut at = now;
        for (first, step, hops) in [(x_first, x_step, x_hops), (y_first, y_step, y_hops)] {
            let mut idx = first;
            for _ in 0..hops {
                at = self.links[idx].reserve(at, occupancy) + self.hop_cycles;
                idx = idx.wrapping_add(step);
            }
        }
        let hops = x_hops + y_hops;
        if hops == 0 {
            at += self.hop_cycles;
        }
        self.total_hops.add(hops.max(1) as u64);
        at - now
    }

    /// Uncontended latency between two tiles (diagnostic; no state change).
    pub fn ideal_latency(&self, src: usize, dst: usize) -> Cycle {
        let a = self.tile_of(src);
        let b = self.tile_of(dst);
        let hops = (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)).max(1) as Cycle;
        hops * self.hop_cycles
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
        // Tile 0 = (0,0), tile 5 = (1,1): two hops each; a local route
        // counts as one.
        noc.route(0, 5, 64, 0);
        noc.route(0, 5, 64, 100);
        noc.route(5, 5, 64, 200);
        assert_eq!(noc.total_hops(), 5);
    }

    #[test]
    fn tile_mapping_is_row_major() {
        let noc = Noc::new(8, 3, 64);
        assert_eq!(noc.tile_of(0), Tile { x: 0, y: 0 });
        assert_eq!(noc.tile_of(7), Tile { x: 7, y: 0 });
        assert_eq!(noc.tile_of(8), Tile { x: 0, y: 1 });
        assert_eq!(noc.tile_of(63), Tile { x: 7, y: 7 });
        assert_eq!(noc.tile_of(64 + 9), Tile { x: 1, y: 1 });
    }
}
