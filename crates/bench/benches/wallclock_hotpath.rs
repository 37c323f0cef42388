//! Host wall-clock benchmarks of the simulator's hot path.
//!
//! These time the *simulator itself* — not the simulated machine — on the
//! layers that dominate its host time:
//!
//! * the packed SoA cache model (`Cache::access`/`fill` throughput),
//! * the gap-filling occupancy timeline behind NoC links, DRAM channels,
//!   and software serialization points (`GapTracker::reserve`),
//! * the prefetch pipeline of a WDP engine starved of credits
//!   (`PrefetchPipeline::pump`),
//! * full executor runs of one fig16-style point per scheduler, i.e. the
//!   dequeue → record → charge → enqueue inner loop end to end.
//!
//! Run with `cargo bench --bench wallclock_hotpath`. Coarser whole-sweep
//! numbers (the `BENCH_sweep.json` artifact) come from
//! `minnow-sweep <sweep> --bench-out`, which measures the same code on
//! the real figure workloads.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use minnow_algos::WorkloadKind;
use minnow_bench::runner::BenchRun;
use minnow_core::wdp::PrefetchPipeline;
use minnow_sim::cache::Cache;
use minnow_sim::config::CacheParams;
use minnow_sim::contend::GapTracker;
use minnow_sim::hierarchy::{AccessKind, MemoryHierarchy};
use minnow_sim::config::SimConfig;

/// A small deterministic LCG for address streams (no external RNG in
/// benches: the stream must be identical run to run).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn bench_packed_cache(c: &mut Criterion) {
    let params = CacheParams {
        size_bytes: 256 * 1024,
        ways: 8,
        line_bytes: 64,
        latency: 11,
    };
    c.bench_function("hotpath/cache_access_fill_mixed", |b| {
        b.iter_batched(
            || Cache::new(params),
            |mut cache| {
                let mut state = 0x1234_5678u64;
                for _ in 0..8192 {
                    let addr = lcg(&mut state) & 0xF_FFFF;
                    let write = state & 4 == 0;
                    if !cache.access(addr, write).hit {
                        cache.fill(addr, write, false);
                    }
                }
                black_box(cache.stats().misses.get())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_gap_tracker(c: &mut Criterion) {
    // The request shape the fabric sees mid-simulation: nine in ten
    // requests land within a few bookings of the newest one, the rest come
    // from far in the past (prefetches stamped with a stale issue clock).
    // Once warm, the window sits at its 256-interval cap.
    c.bench_function("hotpath/gap_tracker_reserve_steady_state", |b| {
        b.iter_batched(
            GapTracker::new,
            |mut t| {
                let mut state = 0x9e37_79b9u64;
                let mut newest: u64 = 1 << 20;
                for _ in 0..4096u64 {
                    let r = lcg(&mut state);
                    if r.is_multiple_of(10) {
                        black_box(t.reserve(newest - (1 << 16) - r % 4096, 8));
                    } else {
                        newest = t.reserve(newest + r % 64 - 32, 8);
                    }
                }
                black_box(t.horizon())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_prefetch_pump_starved(c: &mut Criterion) {
    // An engine whose 32 credits all sit in lines no demand access
    // consumes: every pump after the first stops on the credit check with
    // a full load buffer, where most PR/wdp pumps end.
    let cfg = SimConfig::small(1);
    let mut mem = MemoryHierarchy::new(&cfg);
    let mut pipeline = PrefetchPipeline::new(&cfg.engine, 32);
    pipeline.enqueue_program((0..64u64).map(|i| 0x100_0000 + i * 64));
    let mut now = 1_000_000;
    pipeline.pump(0, now, &mut mem);
    c.bench_function("hotpath/prefetch_pump_credit_starved", |b| {
        b.iter(|| {
            for _ in 0..4096 {
                now += 16;
                pipeline.pump(0, black_box(now), &mut mem);
            }
            black_box(pipeline.stats().credit_stalls)
        });
    });
}

fn bench_hierarchy_demand_stream(c: &mut Criterion) {
    c.bench_function("hotpath/hierarchy_demand_stream", |b| {
        b.iter_batched(
            || MemoryHierarchy::new(&SimConfig::scaled(8, 16)),
            |mut mem| {
                let mut state = 0xfeed_beefu64;
                let mut now = 0;
                for i in 0..4096u64 {
                    let core = (i % 8) as usize;
                    let addr = lcg(&mut state) & 0x3F_FFFF;
                    let kind = match state % 8 {
                        0 => AccessKind::Atomic,
                        1 | 2 => AccessKind::Store,
                        _ => AccessKind::Load,
                    };
                    let r = mem.access(core, addr, kind, now);
                    now += r.latency / 16;
                }
                black_box(mem.total_stats().accesses)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_executor_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/executor_fig16_point");
    for (label, run) in [
        ("software", BenchRun::software_default(WorkloadKind::Bfs, 4)),
        ("minnow", BenchRun::minnow(WorkloadKind::Bfs, 4)),
        ("wdp", BenchRun::minnow_wdp(WorkloadKind::Bfs, 4)),
    ] {
        let mut run = run;
        run.scale = 0.02;
        run.seed = 42;
        let graph = run.input();
        g.bench_function(label, |b| {
            b.iter(|| black_box(run.execute_on(graph.clone())).tasks)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_packed_cache,
    bench_gap_tracker,
    bench_prefetch_pump_starved,
    bench_hierarchy_demand_stream,
    bench_executor_end_to_end
);
criterion_main!(benches);
