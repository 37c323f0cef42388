//! Golden-value regression tests: pinned simulator outputs for every
//! workload under the three headline scheduler configurations, the
//! prefetch-credit sweep's endpoints, and the BSP and hardware-prefetcher
//! engines.
//!
//! The simulator is fully deterministic — same configuration, same
//! report, bit for bit — so any drift in these numbers means the timing
//! model, a scheduler, or an input generator changed behaviour. That is
//! sometimes intentional (a modelling fix); when it is, regenerate the
//! tables with:
//!
//! ```sh
//! cargo run --release --bin minnow-sweep -- fig16 \
//!     --scale 0.04 --seed 42 --stdout
//! cargo run --release --bin minnow-sweep -- credits \
//!     --scale 0.04 --seed 42 --stdout
//! ```
//!
//! and update the entries below. What this test makes impossible is
//! *silent* drift: a refactor that changes cycle counts without anyone
//! noticing.

use minnow::algos::WorkloadKind;
use minnow::bench::runner::{BenchRun, HwKind, SchedSpec};
use minnow::bench::sweep::{run_sweep, Sweep, SweepConfig, SweepParams};

/// The exact sweep the goldens were generated from. `headline_threads`
/// is pinned (not read from the environment) so `MINNOW_BENCH_THREADS`
/// cannot change what this test runs.
fn golden_params() -> SweepParams {
    SweepParams {
        scale: 0.04,
        seed: 42,
        headline_threads: 16,
        max_threads: 64,
    }
}

/// (point id, makespan cycles, instructions, L2 misses).
///
/// Pinning instructions and misses also pins MPKI (= misses * 1000 /
/// instructions), the Fig. 18 metric, without comparing floats.
const GOLDEN: [(&str, u64, u64, u64); 21] = [
    ("fig16/SSSP/software", 42_935, 110_648, 5_106),
    ("fig16/SSSP/minnow", 38_344, 79_858, 4_818),
    ("fig16/SSSP/wdp", 23_180, 83_398, 2_157),
    ("fig16/BFS/software", 58_337, 155_076, 10_488),
    ("fig16/BFS/minnow", 61_201, 111_218, 10_958),
    ("fig16/BFS/wdp", 36_048, 101_256, 2_478),
    ("fig16/G500/software", 45_469, 59_104, 2_933),
    ("fig16/G500/minnow", 61_051, 49_630, 2_329),
    ("fig16/G500/wdp", 45_980, 48_312, 646),
    ("fig16/CC/software", 39_771, 90_297, 5_459),
    ("fig16/CC/minnow", 50_102, 56_740, 5_294),
    ("fig16/CC/wdp", 35_922, 54_261, 2_695),
    ("fig16/PR/software", 646_070, 1_824_664, 93_833),
    ("fig16/PR/minnow", 586_541, 1_116_268, 96_883),
    ("fig16/PR/wdp", 550_900, 1_217_713, 77_677),
    ("fig16/TC/software", 16_166, 52_513, 1_222),
    ("fig16/TC/minnow", 29_859, 54_569, 1_163),
    ("fig16/TC/wdp", 27_548, 54_485, 722),
    ("fig16/BC/software", 14_935, 24_978, 2_801),
    ("fig16/BC/minnow", 12_900, 19_502, 2_207),
    ("fig16/BC/wdp", 6_100, 21_191, 831),
];

/// (point id, makespan cycles, instructions, L2 misses) for the credit
/// sweep's extremes and one point between. `c1` starves the prefetcher on
/// nearly every pump and `c256` almost never, so together they pin the
/// credit throttle and the pipeline's stall path.
const GOLDEN_CREDITS: [(&str, u64, u64, u64); 9] = [
    ("credits/BFS/c1", 60_762, 112_404, 10_618),
    ("credits/BFS/c8", 43_117, 103_622, 5_379),
    ("credits/BFS/c256", 47_656, 105_193, 6_656),
    ("credits/PR/c1", 562_939, 1_146_742, 91_210),
    ("credits/PR/c8", 555_180, 1_238_545, 71_379),
    ("credits/PR/c256", 547_860, 1_223_910, 79_170),
    ("credits/TC/c1", 28_980, 54_475, 1_146),
    ("credits/TC/c8", 28_472, 54_449, 1_068),
    ("credits/TC/c256", 27_311, 54_467, 615),
];

/// Runs `sweep` serially and fails, listing every drifted entry, unless
/// each golden point's makespan, instructions and L2 misses match.
fn assert_matches_golden(sweep: &Sweep, golden: &[(&str, u64, u64, u64)]) {
    let result = run_sweep(sweep, &SweepConfig::serial());
    let mut drift = Vec::new();
    for &(id, makespan, instructions, l2_misses) in golden {
        let r = result.report(id);
        assert!(!r.timed_out, "{id} timed out");
        if (r.makespan, r.instructions, r.l2_misses) != (makespan, instructions, l2_misses) {
            drift.push(format!(
                "{id}: makespan {} (golden {makespan}), instructions {} (golden \
                 {instructions}), l2_misses {} (golden {l2_misses})",
                r.makespan, r.instructions, r.l2_misses
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "simulator output drifted from the golden table (see the module \
         docs to regenerate if the change is intentional):\n{}",
        drift.join("\n")
    );
}

#[test]
fn reports_match_golden_values() {
    let sweep = Sweep::fig16(&golden_params());
    assert_eq!(
        sweep.points.len(),
        GOLDEN.len(),
        "fig16 enumerates one point per golden entry"
    );
    assert_matches_golden(&sweep, &GOLDEN);
}

#[test]
fn credit_sweep_matches_golden_values() {
    let mut sweep = Sweep::credits(&golden_params());
    sweep
        .points
        .retain(|p| GOLDEN_CREDITS.iter().any(|&(id, ..)| id == p.id));
    assert_eq!(
        sweep.points.len(),
        GOLDEN_CREDITS.len(),
        "the credits sweep enumerates every golden point"
    );
    assert_matches_golden(&sweep, &GOLDEN_CREDITS);
}

#[test]
fn golden_points_show_wdp_improving_mpki() {
    // A shape check on the pinned values themselves (no simulation):
    // worklist-directed prefetching must cut L2 MPKI vs the same Minnow
    // configuration without prefetching — the paper's central
    // memory-side claim. (Software is not the right baseline here: its
    // worklist overhead inflates the instruction denominator.)
    for chunk in GOLDEN.chunks(3) {
        let [_, (base_id, _, base_instr, base_miss), (_, _, wdp_instr, wdp_miss)] = chunk else {
            panic!("golden table is grouped as software/minnow/wdp triples");
        };
        let base_mpki = *base_miss as f64 * 1000.0 / *base_instr as f64;
        let wdp_mpki = *wdp_miss as f64 * 1000.0 / *wdp_instr as f64;
        assert!(
            wdp_mpki < base_mpki,
            "{base_id}: WDP MPKI {wdp_mpki:.1} not below offload-only {base_mpki:.1}"
        );
    }
}

/// (point id, makespan cycles, instructions, L2 misses, engine counter)
/// for the engines the fig16 and credit tables leave out: the BSP
/// engine, unbucketed and bucketed, and Minnow with each table-based
/// hardware prefetcher, on every workload at 4 cores, scale 0.03, seed
/// 42. The engine counter is `supersteps` for BSP points and
/// `prefetch_fills` for hardware-prefetcher points. Regenerate by
/// running this test: a drift message prints every entry's new values.
const GOLDEN_ENGINES: [(&str, u64, u64, u64, u64); 28] = [
    ("engines/SSSP/bsp", 121_814, 41_256, 2_340, 42),
    ("engines/SSSP/bsp-b0", 199_144, 33_753, 1_787, 112),
    ("engines/SSSP/minnow-hw-stride", 66_297, 39_001, 1_893, 4),
    ("engines/SSSP/minnow-hw-imp", 66_297, 39_001, 1_892, 5),
    ("engines/BFS/bsp", 129_002, 66_042, 5_677, 6),
    ("engines/BFS/bsp-b0", 129_002, 66_042, 5_677, 6),
    ("engines/BFS/minnow-hw-stride", 121_812, 65_197, 5_581, 12),
    ("engines/BFS/minnow-hw-imp", 121_620, 65_199, 5_585, 23),
    ("engines/G500/bsp", 113_661, 42_120, 1_791, 4),
    ("engines/G500/bsp-b0", 113_661, 42_120, 1_791, 4),
    ("engines/G500/minnow-hw-stride", 88_498, 42_667, 1_001, 780),
    ("engines/G500/minnow-hw-imp", 85_390, 42_565, 998, 753),
    ("engines/CC/bsp", 90_161, 45_469, 2_978, 4),
    ("engines/CC/bsp-b0", 307_038, 34_647, 2_022, 249),
    ("engines/CC/minnow-hw-stride", 69_241, 38_179, 2_171, 579),
    ("engines/CC/minnow-hw-imp", 68_169, 38_166, 2_110, 651),
    ("engines/PR/bsp", 1_234_355, 718_460, 54_940, 61),
    ("engines/PR/bsp-b0", 1_941_342, 1_017_440, 77_266, 113),
    ("engines/PR/minnow-hw-stride", 1_080_260, 826_118, 57_773, 4_211),
    ("engines/PR/minnow-hw-imp", 1_015_924, 782_024, 52_264, 5_937),
    ("engines/TC/bsp", 25_084, 31_601, 502, 1),
    ("engines/TC/bsp-b0", 25_084, 31_601, 502, 1),
    ("engines/TC/minnow-hw-stride", 31_083, 31_637, 495, 13),
    ("engines/TC/minnow-hw-imp", 30_493, 31_615, 502, 1),
    ("engines/BC/bsp", 33_040, 15_790, 998, 2),
    ("engines/BC/bsp-b0", 33_040, 15_790, 998, 2),
    ("engines/BC/minnow-hw-stride", 26_714, 14_424, 831, 73),
    ("engines/BC/minnow-hw-imp", 26_642, 14_422, 827, 79),
];

/// The engines [`GOLDEN_ENGINES`] pins, in table order.
fn engine_specs() -> [SchedSpec; 4] {
    [
        SchedSpec::Bsp(None),
        SchedSpec::Bsp(Some(0)),
        SchedSpec::MinnowWithHw(HwKind::Stride),
        SchedSpec::MinnowWithHw(HwKind::Imp),
    ]
}

#[test]
fn bsp_and_hw_prefetcher_reports_match_golden_values() {
    let mut drift = Vec::new();
    let mut seen = 0;
    for kind in WorkloadKind::ALL {
        for sched in engine_specs() {
            let id = format!("engines/{kind}/{}", sched.label());
            let mut run = BenchRun::new(kind, 4, sched.clone());
            run.scale = 0.03;
            run.seed = 42;
            let r = run.execute();
            assert!(!r.timed_out, "{id} timed out");
            let counter = match sched {
                SchedSpec::Bsp(_) => r.supersteps,
                _ => r.prefetch_fills,
            };
            let got = (r.makespan, r.instructions, r.l2_misses, counter);
            let golden = GOLDEN_ENGINES
                .iter()
                .find(|&&(g, ..)| g == id)
                .map(|&(_, m, i, l, c)| (m, i, l, c));
            if golden != Some(got) {
                drift.push(format!(
                    "    (\"{id}\", {}, {}, {}, {}), // golden {golden:?}",
                    got.0, got.1, got.2, got.3
                ));
            }
            seen += 1;
        }
    }
    assert!(
        drift.is_empty(),
        "BSP / hardware-prefetcher output drifted from the golden table \
         (regenerate only if the change is intentional):\n{}",
        drift.join("\n")
    );
    assert_eq!(seen, GOLDEN_ENGINES.len(), "one golden entry per point");
}
