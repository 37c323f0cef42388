//! Determinism contract of the parallel sweep engine: the JSON-lines
//! artifact is byte-identical whether points run one at a time or fan
//! out across a thread pool, and identical across repeated runs.
//!
//! The wall-clock speedup check at the bottom is gated on the machine's
//! available parallelism (CI containers are often single-core; a 1-core
//! box cannot show parallel speedup, but it *can* — and does — verify
//! byte-identical output at any pool width).

use minnow::bench::sweep::{run_sweep, Sweep, SweepConfig, SweepParams};

fn tiny_params() -> SweepParams {
    SweepParams {
        scale: 0.03,
        seed: 1234,
        headline_threads: 4,
        max_threads: 4,
    }
}

#[test]
fn pool_width_never_changes_the_artifact() {
    let sweep = Sweep::smoke(&tiny_params());
    let serial = run_sweep(&sweep, &SweepConfig::serial());
    let eight = run_sweep(&sweep, &SweepConfig::serial().with_threads(8));
    assert_eq!(
        serial.jsonl(),
        eight.jsonl(),
        "--threads 8 must be byte-identical to serial execution"
    );
    assert_eq!(serial.points.len(), sweep.points.len());
}

#[test]
fn repeated_runs_are_byte_identical() {
    let sweep = Sweep::smoke(&tiny_params());
    let cfg = SweepConfig::serial().with_threads(3);
    let first = run_sweep(&sweep, &cfg);
    let second = run_sweep(&sweep, &cfg);
    assert_eq!(first.jsonl(), second.jsonl());
    // Summaries agree on everything outside the volatile section.
    let stable = |s: &str| s.split(",\"volatile\"").next().unwrap().to_string();
    assert_eq!(
        stable(&first.summary_json()),
        stable(&second.summary_json())
    );
}

#[test]
fn filtered_subset_matches_the_full_run() {
    let sweep = Sweep::fig16(&tiny_params());
    let full = run_sweep(&sweep, &SweepConfig::serial());
    let filtered = run_sweep(
        &sweep,
        &SweepConfig::serial().with_threads(4).with_filter("/BFS/"),
    );
    assert!(!filtered.points.is_empty());
    for point in &filtered.points {
        let whole = full.report(&point.id);
        assert_eq!(
            point.report.makespan, whole.makespan,
            "{}: filtering must not perturb a point's result",
            point.id
        );
    }
}

#[test]
fn tracing_never_changes_the_artifact() {
    let sweep = Sweep::smoke(&tiny_params());
    let plain = run_sweep(&sweep, &SweepConfig::serial());
    let traced_cfg = SweepConfig::serial().with_threads(4).with_trace();
    let traced = run_sweep(&sweep, &traced_cfg);
    assert_eq!(
        plain.jsonl(),
        traced.jsonl(),
        "--trace-out must leave the JSON-lines artifact byte-identical"
    );
    assert_eq!(
        plain.breakdown_jsonl(),
        traced.breakdown_jsonl(),
        "the cycle-accounting artifact must not depend on tracing"
    );
    assert!(
        plain.chrome_trace_json().is_none(),
        "untraced sweeps export no trace document"
    );
    // The trace itself is deterministic for a fixed seed, at any pool
    // width.
    let again = run_sweep(&sweep, &SweepConfig::serial().with_trace());
    assert_eq!(
        traced.chrome_trace_json(),
        again.chrome_trace_json(),
        "trace export must be deterministic run-to-run"
    );
    assert!(traced.chrome_trace_json().is_some());
}

/// The wall-clock benchmark document (`--bench-out`) is a pure
/// observation: producing it never perturbs the simulated results, so
/// the JSONL artifact stays byte-identical whether or not it is asked
/// for — the same contract tracing honors above.
#[test]
fn bench_document_never_changes_the_artifact() {
    let params = tiny_params();
    let sweep = Sweep::smoke(&params);
    let plain = run_sweep(&sweep, &SweepConfig::serial());
    let benched = run_sweep(&sweep, &SweepConfig::serial());
    let bench = benched.bench_json(&params);
    assert!(!bench.is_empty());
    assert_eq!(
        plain.jsonl(),
        benched.jsonl(),
        "--bench-out must leave the JSON-lines artifact byte-identical"
    );
    assert_eq!(
        plain.breakdown_jsonl(),
        benched.breakdown_jsonl(),
        "the cycle-accounting artifact must not depend on bench export"
    );
    // Rendering the bench document is non-destructive: the simulated
    // artifact is unchanged afterwards, and re-rendering sees the same
    // (volatile) measurements.
    assert_eq!(benched.jsonl(), plain.jsonl());
    assert_eq!(bench, benched.bench_json(&params));
}

/// The benchmark document describes itself: it records the host
/// fingerprint and the sweep's scale and seed.
#[test]
fn bench_document_records_host_scale_and_seed() {
    let params = tiny_params();
    let result = run_sweep(&Sweep::smoke(&params), &SweepConfig::serial());
    let doc = minnow::bench::json_read::Json::parse(&result.bench_json(&params))
        .expect("valid JSON");
    let host = doc.get("host").expect("host fingerprint");
    assert!(host.get("cpu_model").and_then(|v| v.as_str()).is_some());
    assert!(host.get("available_parallelism").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert_eq!(doc.get("scale").and_then(|v| v.as_f64()), Some(params.scale));
    assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(params.seed));
}

/// Schema contract of the benchmark document: versioned schema tag, one
/// entry per sweep point carrying wall time and throughput, and stable
/// simulated fields that agree with the JSONL artifact.
#[test]
fn bench_document_schema_and_content() {
    let params = tiny_params();
    let sweep = Sweep::smoke(&params);
    let result = run_sweep(&sweep, &SweepConfig::serial().with_threads(2));
    let bench = result.bench_json(&params);

    assert!(
        bench.starts_with("{\"schema\":\"minnow-bench-wallclock/v2\""),
        "bench document must lead with its schema tag: {bench}"
    );
    for field in [
        "\"sweep\":\"smoke\"",
        "\"pool_threads\":2",
        "\"wall_ms\":",
        "\"total_tasks\":",
        "\"total_mem_accesses\":",
        "\"tasks_per_sec\":",
        "\"accesses_per_sec\":",
        "\"points\":[",
    ] {
        assert!(bench.contains(field), "bench document lacks {field}: {bench}");
    }
    // One point entry per sweep point, each with the per-point fields.
    assert_eq!(
        bench.matches("\"wall_us\":").count(),
        sweep.points.len(),
        "one wall_us measurement per point"
    );
    for point in &result.points {
        assert!(
            bench.contains(&format!("\"id\":\"{}\"", point.id)),
            "bench document is missing point {}",
            point.id
        );
        // The simulated (stable) fields embedded in the bench document
        // must agree with the canonical artifact. Every point's wall time
        // follows its id.
        assert!(
            bench.contains(&format!("\"id\":\"{}\",\"wall_us\":", point.id)),
            "point {} entry malformed",
            point.id
        );
        assert!(
            bench.contains(&format!("\"makespan\":{}", point.report.makespan)),
            "point {} makespan missing from bench document",
            point.id
        );
    }
    // Totals are the sums of the per-point simulated counters, and
    // every point ran tasks.
    let tasks: u64 = result.points.iter().map(|p| p.report.tasks).sum();
    assert!(bench.contains(&format!("\"total_tasks\":{tasks}")));
    let doc = minnow::bench::json_read::Json::parse(&bench).expect("valid JSON");
    let points = doc
        .get("points")
        .and_then(|v| v.as_array())
        .expect("points");
    assert_eq!(points.len(), sweep.points.len());
    let mut doc_tasks = 0;
    for point in points {
        point.u64_field("wall_us").expect("wall_us");
        let tasks = point.u64_field("tasks").expect("tasks");
        assert!(tasks > 0, "{point:?} ran no tasks");
        doc_tasks += tasks;
    }
    assert_eq!(doc.u64_field("total_tasks"), Ok(doc_tasks));
}

#[test]
fn breakdown_rows_are_closed() {
    let sweep = Sweep::smoke(&tiny_params());
    let result = run_sweep(&sweep, &SweepConfig::serial());
    for point in &result.points {
        point
            .report
            .accounting
            .verify_closed(point.report.makespan)
            .unwrap_or_else(|e| panic!("{}: {e}", point.id));
    }
    // The breakdown artifact shows the same: each row's bins sum to
    // makespan × cores.
    let jsonl = result.breakdown_jsonl();
    let rows: Vec<&str> = jsonl.lines().collect();
    assert_eq!(rows.len(), result.points.len());
    for line in rows {
        let row = minnow::bench::json_read::Json::parse(line).expect("valid JSON");
        let bins: u64 = minnow::sim::CycleBin::ALL
            .iter()
            .map(|bin| row.u64_field(bin.name()).expect("bin"))
            .sum();
        let want = row.u64_field("makespan").unwrap() * row.u64_field("cores").unwrap();
        assert_eq!(bins, want, "{line}");
    }
    // And the textual table reflects that: every artifact line exists.
    let table = result.breakdown_table();
    for point in &result.points {
        assert!(
            table.contains(&point.id),
            "breakdown table is missing {}",
            point.id
        );
    }
}

/// Ingested inputs honor the same determinism contract: sweeping a
/// graph loaded from a text edge list, from its `minnow-csr-image/v2`
/// rendering via buffered reads, and from the same image via mmap must
/// produce byte-identical artifacts — the input path is an execution
/// detail, never part of the simulated result.
#[test]
fn ingested_inputs_are_byte_identical_across_text_image_and_mmap_paths() {
    use minnow::bench::runner::InputSpec;
    use minnow::graph::image::LoadMode;
    use minnow::graph::ingest::{ingest_file_to_image, IngestOptions};

    let dir = std::env::temp_dir().join(format!("minnow-sweep-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A bidirectional 48-node ring in canonical (src, dst) order, so the
    // external-sort image and the in-file-order text load agree exactly.
    let text_path = dir.join("ring.el");
    let mut text = String::new();
    for u in 0..48u32 {
        let prev = (u + 47) % 48;
        let next = (u + 1) % 48;
        text.push_str(&format!("{u} {}\n{u} {}\n", prev.min(next), prev.max(next)));
    }
    std::fs::write(&text_path, text).unwrap();
    let image_path = dir.join("ring.mcsr");
    ingest_file_to_image(&text_path, None, &image_path, &IngestOptions::default()).unwrap();

    let sweep = Sweep::smoke(&tiny_params());
    let spec = |path: &std::path::Path, mode: LoadMode| {
        let mut s = InputSpec::new(path);
        s.mode = mode;
        s
    };
    let from_text = run_sweep(
        &sweep,
        &SweepConfig::serial().with_input(spec(&text_path, LoadMode::Auto)),
    );
    let from_image = run_sweep(
        &sweep,
        &SweepConfig::serial().with_input(spec(&image_path, LoadMode::Read)),
    );
    assert_eq!(
        from_text.jsonl(),
        from_image.jsonl(),
        "image ingestion must not perturb the artifact"
    );
    assert_eq!(from_text.breakdown_jsonl(), from_image.breakdown_jsonl());
    #[cfg(unix)]
    {
        let mapped = run_sweep(
            &sweep,
            &SweepConfig::serial().with_input(spec(&image_path, LoadMode::Mmap)),
        );
        assert_eq!(
            from_text.jsonl(),
            mapped.jsonl(),
            "mmap loading must not perturb the artifact"
        );
        assert_eq!(from_text.breakdown_jsonl(), mapped.breakdown_jsonl());
    }
    // The pool-width invariance contract holds for external inputs too.
    let pooled = run_sweep(
        &sweep,
        &SweepConfig::serial()
            .with_threads(4)
            .with_input(spec(&image_path, LoadMode::Auto)),
    );
    assert_eq!(from_text.jsonl(), pooled.jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_pool_speeds_up_the_sweep() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping wall-clock speedup check: only {cores} core(s) available");
        return;
    }
    // A fig15-style scalability sweep, scoped down so the test stays
    // quick while each point is still long enough to measure.
    let sweep = Sweep::fig15(&SweepParams {
        scale: 0.06,
        seed: 99,
        headline_threads: 4,
        max_threads: 8,
    });
    let serial = run_sweep(&sweep, &SweepConfig::serial());
    let parallel = run_sweep(&sweep, &SweepConfig::serial().with_threads(8));
    assert_eq!(serial.jsonl(), parallel.jsonl());
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "8-thread pool on {cores} cores only {speedup:.2}x faster than serial"
    );
}
