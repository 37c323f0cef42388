//! Trace-export schema contract: traced runs emit a deterministic
//! event stream whose Chrome `trace_event` JSON export parses, whose
//! phases and categories come from the pinned vocabulary, and whose
//! per-process timestamps are monotonic. A golden event-count summary
//! pins the exact stream for one small workload so any change to what
//! the simulator traces shows up in review.

use std::collections::BTreeMap;

use minnow::algos::WorkloadKind;
use minnow::bench::json_read::Json;
use minnow::bench::runner::BenchRun;
use minnow::bench::sweep::{run_sweep, Sweep, SweepConfig, SweepParams};
use minnow::sim::trace::{chrome_trace_json, event_summary, TraceEvent, TracePhase, Tracer};

// ---------------------------------------------------------------------
// The traced workload every schema test shares: small, fixed seed.
// ---------------------------------------------------------------------

fn traced_events() -> (Vec<TraceEvent>, u64) {
    let mut run = BenchRun::minnow_wdp(WorkloadKind::Bfs, 2);
    run.scale = 0.03;
    run.seed = 42;
    let tracer = Tracer::enabled();
    let report = run.execute_traced(&tracer);
    assert_eq!(tracer.dropped(), 0, "small run must fit under the cap");
    (tracer.take_events(), report.makespan)
}

/// Every `(phase, category)` pair the simulator may emit. New
/// instrumentation must extend this vocabulary deliberately.
const VOCABULARY: &[(&str, &str)] = &[
    ("X", "cache"),
    ("X", "prefetch"),
    ("X", "sched"),
    ("X", "task"),
    ("i", "cache"),
    ("i", "sched"),
    ("i", "task"),
    ("C", "dram"),
    ("C", "noc"),
];

#[test]
fn events_use_the_pinned_vocabulary_and_sorted_timestamps() {
    let (events, _makespan) = traced_events();
    assert!(!events.is_empty());
    let mut last_ts = 0;
    for ev in &events {
        let pair = (ev.phase.code(), ev.cat);
        assert!(
            VOCABULARY.contains(&pair),
            "unpinned phase/category pair {pair:?} (event {:?})",
            ev.name
        );
        assert!(ev.ts >= last_ts, "take_events must sort by timestamp");
        last_ts = ev.ts;
        if ev.phase == TracePhase::Counter {
            assert_eq!(
                ev.args.first().map(|(k, _)| *k),
                Some("value"),
                "counters carry their sample under `value`"
            );
        }
    }
}

#[test]
fn chrome_export_parses_and_round_trips_the_events() {
    let (events, _) = traced_events();
    let doc = Json::parse(&chrome_trace_json(&events, 3)).expect("export parses");
    assert_eq!(
        doc.str_field("displayTimeUnit"),
        Ok("ns"),
        "document must set a display unit"
    );
    let exported = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(exported.len(), events.len());
    for (ev, json) in events.iter().zip(exported) {
        assert_eq!(json.str_field("name"), Ok(ev.name));
        assert_eq!(json.str_field("cat"), Ok(ev.cat));
        assert_eq!(json.str_field("ph"), Ok(ev.phase.code()));
        assert_eq!(json.u64_field("ts"), Ok(ev.ts));
        assert_eq!(json.u64_field("pid"), Ok(3));
        assert_eq!(json.u64_field("tid"), Ok(u64::from(ev.tid)));
        match ev.phase {
            TracePhase::Complete => assert_eq!(json.u64_field("dur"), Ok(ev.dur)),
            TracePhase::Instant => assert_eq!(json.str_field("s"), Ok("t"), "instant scope"),
            TracePhase::Counter => {}
        }
        let args = json.get("args").expect("args object");
        for (key, value) in &ev.args {
            assert_eq!(args.u64_field(key), Ok(*value), "arg {key} of {}", ev.name);
        }
    }
}

#[test]
fn sweep_trace_doc_names_processes_and_orders_timestamps() {
    let params = SweepParams {
        scale: 0.03,
        seed: 1234,
        headline_threads: 4,
        max_threads: 4,
    };
    let sweep = Sweep::smoke(&params);
    let result = run_sweep(&sweep, &SweepConfig::serial().with_trace());
    let doc_text = result.chrome_trace_json().expect("tracing was on");
    let doc = Json::parse(&doc_text).expect("trace document parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());

    // Every sweep point gets a process_name metadata event, and within
    // each process the non-metadata timestamps are monotonic.
    let mut named_pids = Vec::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        let pid = ev.u64_field("pid").unwrap();
        let phase = ev.str_field("ph").unwrap();
        assert!(
            ["X", "i", "C", "M"].contains(&phase),
            "unknown phase {phase}"
        );
        if phase == "M" {
            assert_eq!(ev.str_field("name"), Ok("process_name"));
            let label = ev.get("args").unwrap().str_field("name").unwrap();
            assert!(
                result.points.iter().any(|p| p.id == label),
                "metadata names a sweep point: {label}"
            );
            named_pids.push(pid);
            continue;
        }
        let ts = ev.u64_field("ts").unwrap();
        let prev = last_ts.entry(pid).or_insert(0);
        assert!(*prev <= ts, "pid {pid}: timestamps must be monotonic");
        *prev = ts;
    }
    named_pids.sort_unstable();
    assert_eq!(
        named_pids,
        (0..result.points.len() as u64).collect::<Vec<_>>(),
        "one named process per sweep point"
    );
}

#[test]
fn golden_event_count_summary() {
    let (events, _) = traced_events();
    let summary = event_summary(&events);
    let golden: BTreeMap<String, u64> = GOLDEN_SUMMARY
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(
        summary, golden,
        "traced event stream changed; if intentional, update GOLDEN_SUMMARY"
    );
}

/// Exact per-`cat/name` event counts for the BFS minnow-wdp run at
/// scale 0.03, seed 42, 2 threads. Regenerate by printing
/// `event_summary(&traced_events().0)` after a deliberate change.
const GOLDEN_SUMMARY: &[(&str, u64)] = &[
    ("cache/evict", 4988),
    ("cache/fill", 5314),
    ("cache/hit_under_miss", 1),
    ("dram/dram_queue", 1839),
    ("noc/noc_hops", 1839),
    ("prefetch/wdp", 5314),
    ("sched/dequeue", 747),
    ("sched/enqueue", 746),
    ("sched/poll", 37),
    ("sched/refill", 49),
    ("sched/spill", 737),
    ("task/execute", 747),
    ("task/retire", 747),
];

#[test]
fn tracing_never_perturbs_results() {
    for (label, run) in [
        (
            "BFS/software",
            BenchRun::software_default(WorkloadKind::Bfs, 4),
        ),
        ("SSSP/minnow", BenchRun::minnow(WorkloadKind::Sssp, 4)),
        ("BFS/minnow-wdp", BenchRun::minnow_wdp(WorkloadKind::Bfs, 4)),
        (
            "SSSP/bsp",
            BenchRun::new(
                WorkloadKind::Sssp,
                4,
                minnow::bench::runner::SchedSpec::Bsp(None),
            ),
        ),
    ] {
        let mut run = run;
        run.scale = 0.03;
        let plain = run.execute();
        let traced = run.execute_traced(&Tracer::enabled());
        assert_eq!(plain.makespan, traced.makespan, "{label}: makespan");
        assert_eq!(plain.tasks, traced.tasks, "{label}: tasks");
        assert_eq!(plain.instructions, traced.instructions, "{label}: instructions");
        assert_eq!(plain.breakdown, traced.breakdown, "{label}: breakdown");
        assert_eq!(plain.l2_misses, traced.l2_misses, "{label}: l2 misses");
        assert_eq!(plain.mem_accesses, traced.mem_accesses, "{label}: accesses");
        assert_eq!(
            plain.accounting.merged().total(),
            traced.accounting.merged().total(),
            "{label}: accounting total"
        );
    }
}
