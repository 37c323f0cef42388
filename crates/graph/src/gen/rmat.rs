//! RMAT / Kronecker generator — the Graph500 `rmat16-2e22` analogue
//! (Table 1: scale-free, one node with 18.4M edges = 27% of the graph).
//!
//! Recursive-matrix sampling with the Graph500 partition probabilities
//! produces heavy-tailed degree distributions including a single dominant
//! hub — the property that motivates the paper's *task splitting*
//! optimization (§6.2.1: "the maximum speedup cannot exceed 3.65x" without
//! it) and G500's cache-overflow behaviour at high prefetch credits (§6.3.2).

use rand::Rng;

use super::rng;
use crate::csr::{Csr, NodeId};

/// Configuration for the RMAT generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the node count.
    pub scale: u32,
    /// Edges per node (Graph500 uses 16).
    pub edge_factor: usize,
    /// Partition probabilities; must sum to ~1.
    pub a: f64,
    /// Top-right partition probability.
    pub b: f64,
    /// Bottom-left partition probability.
    pub c: f64,
}

impl RmatConfig {
    /// Graph500 reference parameters (a=0.57, b=c=0.19, d=0.05).
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0` or `scale > 28`.
    pub fn graph500(scale: u32, edge_factor: usize) -> Self {
        assert!(scale > 0 && scale <= 28, "scale out of supported range");
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// Node count implied by the scale.
    pub fn nodes(&self) -> usize {
        1usize << self.scale
    }
}

/// Streams the raw directed RMAT edge samples (self-loops already dropped,
/// **before** symmetrization and dedup), invoking `f` per edge.
///
/// This is the bounded-memory face of the generator: `minnow-ingest --gen`
/// writes these samples straight to an edge-list or Graph500 file without
/// holding them, and ingesting that file with symmetrize + dedup +
/// `nodes_hint = cfg.nodes()` reproduces [`generate`]'s graph exactly
/// (same seed, same sampling sequence).
pub fn for_each_edge(cfg: &RmatConfig, seed: u64, mut f: impl FnMut(NodeId, NodeId)) {
    let mut r = rng(seed);
    let m = cfg.nodes() * cfg.edge_factor;
    let thresholds = Thresholds::of(cfg);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..cfg.scale {
            let (du, dv) = thresholds.quadrant(r.gen());
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            f(u as NodeId, v as NodeId);
        }
    }
}

/// The cumulative partition bounds `a`, `a + b` and `a + b + c`, summed
/// in that order.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    a: f64,
    ab: f64,
    abc: f64,
}

impl Thresholds {
    fn of(cfg: &RmatConfig) -> Thresholds {
        Thresholds {
            a: cfg.a,
            ab: cfg.a + cfg.b,
            abc: cfg.a + cfg.b + cfg.c,
        }
    }

    /// The `(row, column)` bits of the quadrant a draw `x` picks: top-left
    /// below `a`, else top-right below `a + b`, else bottom-left below
    /// `a + b + c`, else bottom-right. Computed from all three comparisons
    /// at once with that precedence, so no level costs a mispredicted
    /// branch.
    fn quadrant(self, x: f64) -> (usize, usize) {
        let (p, q, r) = (x < self.a, x < self.ab, x < self.abc);
        let du = !(p | q);
        let dv = !p & (q | !r);
        (du as usize, dv as usize)
    }
}

/// Generates the symmetric RMAT graph.
pub fn generate(cfg: &RmatConfig, seed: u64) -> Csr {
    let n = cfg.nodes();
    let mut edges = Vec::with_capacity(n * cfg.edge_factor);
    for_each_edge(cfg, seed, |u, v| edges.push((u, v)));
    Csr::from_edges(n, &edges, None).symmetrize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_has_dominant_hub() {
        let g = generate(&RmatConfig::graph500(12, 16), 3);
        g.validate().unwrap();
        let (_, maxd) = g.max_degree();
        let avg = g.edges() as f64 / g.nodes() as f64;
        assert!(
            maxd as f64 > 30.0 * avg,
            "scale-free hub expected: max {maxd}, avg {avg:.1}"
        );
    }

    #[test]
    fn hub_owns_significant_edge_share() {
        // The paper's rmat16-2e22 has one node with 27% of all edges.
        let g = generate(&RmatConfig::graph500(12, 16), 3);
        let (_, maxd) = g.max_degree();
        let share = maxd as f64 / g.edges() as f64;
        assert!(share > 0.01, "hub share {share:.4} too small");
    }

    #[test]
    fn low_diameter_small_world() {
        use crate::stats::GraphStats;
        let g = generate(&RmatConfig::graph500(10, 16), 5);
        let s = GraphStats::compute(&g, 0);
        assert!(s.est_diameter <= 12, "RMAT diameter {}", s.est_diameter);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&RmatConfig::graph500(8, 8), 1);
        let b = generate(&RmatConfig::graph500(8, 8), 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_zero_scale() {
        let _ = RmatConfig::graph500(0, 16);
    }

    /// The level choice as a chain of branches, the shape the sampler had
    /// before [`Thresholds::quadrant`].
    fn chain(cfg: &RmatConfig, x: f64) -> (usize, usize) {
        if x < cfg.a {
            (0, 0)
        } else if x < cfg.a + cfg.b {
            (0, 1)
        } else if x < cfg.a + cfg.b + cfg.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// [`for_each_edge`] with the chain in place of the quadrant bits.
    fn chain_edges(cfg: &RmatConfig, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut r = rng(seed);
        let mut edges = Vec::new();
        for _ in 0..cfg.nodes() * cfg.edge_factor {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..cfg.scale {
                let (du, dv) = chain(cfg, r.gen());
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u != v {
                edges.push((u as NodeId, v as NodeId));
            }
        }
        edges
    }

    fn configs() -> Vec<RmatConfig> {
        let g500 = RmatConfig::graph500(9, 8);
        vec![
            g500,
            RmatConfig { b: 0.0, ..g500 },
            RmatConfig { c: 0.0, ..g500 },
            RmatConfig {
                b: 0.0,
                c: 0.0,
                ..g500
            },
            RmatConfig { a: 0.0, ..g500 },
            RmatConfig {
                a: 1.0,
                b: 0.0,
                c: 0.0,
                ..g500
            },
            // Bounds out of order: the chain's precedence still decides.
            RmatConfig {
                a: 0.6,
                b: -0.3,
                c: 0.5,
                ..g500
            },
            RmatConfig {
                a: 0.25,
                b: 0.25,
                c: 0.25,
                ..g500
            },
        ]
    }

    #[test]
    fn quadrant_bits_match_the_branch_chain_on_every_draw() {
        for cfg in configs() {
            let mut streamed = Vec::new();
            for_each_edge(&cfg, 17, |u, v| streamed.push((u, v)));
            assert_eq!(streamed, chain_edges(&cfg, 17), "{cfg:?}");
        }
    }

    #[test]
    fn quadrant_bits_match_the_branch_chain_on_the_thresholds() {
        for cfg in configs() {
            let t = Thresholds::of(&cfg);
            for bound in [t.a, t.ab, t.abc, 0.0, 1.0] {
                for x in [
                    bound,
                    f64::from_bits(bound.to_bits().wrapping_sub(1)),
                    f64::from_bits(bound.to_bits() + 1),
                    -bound,
                ] {
                    assert_eq!(t.quadrant(x), chain(&cfg, x), "{cfg:?} x={x:e}");
                }
            }
        }
    }

    #[test]
    fn streamed_samples_reproduce_generate() {
        use crate::ingest::{ingest_to_csr, IngestOptions};
        use crate::io::GraphSource;
        let cfg = RmatConfig::graph500(8, 8);
        let mut text = String::new();
        for_each_edge(&cfg, 11, |u, v| {
            text.push_str(&format!("{u} {v}\n"));
        });
        let (ingested, _) = ingest_to_csr(
            GraphSource::EdgeList,
            text.as_bytes(),
            &IngestOptions {
                symmetrize: true,
                dedup: true,
                drop_self_loops: true,
                nodes_hint: Some(cfg.nodes() as u64),
                ..IngestOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ingested, generate(&cfg, 11));
    }
}
