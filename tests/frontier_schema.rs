//! Schema contract for the `minnow-explore-frontier/v1` artifact.
//!
//! Downstream consumers (plot scripts, CI diffs, the EXPERIMENTS.md
//! walkthrough) parse the frontier JSONL by field name; this test pins
//! the versioned schema — header fields, per-row fields and their
//! types, row ordering, and the semantic invariants (Pareto flags are
//! exactly the non-dominated rows; the baseline anchors the frontier
//! at area 0, speedup 1).

use minnow::explore::json_read::Json;
use minnow::explore::{
    explore, write_frontier_artifacts, ExploreConfig, ExploreOutcome, Space, Strategy,
    FRONTIER_SCHEMA,
};

fn artifact() -> (String, String) {
    let dir = std::env::temp_dir().join(format!("minnow-frontier-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ExploreConfig {
        space: Space::smoke(),
        strategy: Strategy::Grid,
        seed: 42,
        pool_threads: 4,
        max_fresh_evals: None,
        journal_path: dir.join("smoke.journal.jsonl"),
        verbose: false,
    };
    let ExploreOutcome::Complete { frontier, .. } = explore(&cfg).expect("exploration failed")
    else {
        panic!("unbudgeted exploration paused");
    };
    let (jsonl_path, table_path) = write_frontier_artifacts(&dir, &frontier).unwrap();
    let jsonl = std::fs::read_to_string(jsonl_path).unwrap();
    let table = std::fs::read_to_string(table_path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (jsonl, table)
}

#[test]
fn frontier_artifact_honors_the_v1_schema() {
    let (jsonl, table) = artifact();
    let mut lines = jsonl.lines();

    // Header: versioned schema plus the search identity and cost.
    let header = Json::parse(lines.next().expect("empty artifact")).unwrap();
    assert_eq!(header.str_field("schema").unwrap(), FRONTIER_SCHEMA);
    assert_eq!(header.str_field("space").unwrap(), "smoke");
    assert_eq!(header.str_field("strategy").unwrap(), "grid");
    assert_eq!(header.u64_field("seed").unwrap(), 42);
    let rungs = header.get("rungs").and_then(Json::as_array).unwrap();
    assert!(!rungs.is_empty() && rungs.iter().all(|r| r.as_f64().is_some()));
    let configs = header.u64_field("configs").unwrap();
    let evaluated = header.u64_field("evaluated").unwrap();
    let evals = header.u64_field("evals").unwrap();
    assert!(evaluated <= configs && evaluated <= evals);
    assert!(header.u64_field("sim_tasks").unwrap() > 0);

    // Rows: every field present with its schema type.
    let rows: Vec<Json> = lines.map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(rows.len() as u64, evaluated, "one row per evaluated config");
    for row in &rows {
        row.str_field("id").unwrap();
        row.str_field("workload").unwrap();
        assert!(row.u64_field("threads").unwrap() >= 1);
        let baseline = row.bool_field("baseline").unwrap();
        for optional in ["credits", "l2_kb", "local_queue", "refill"] {
            let v = row.get(optional).unwrap_or_else(|| panic!("missing {optional}"));
            match v {
                Json::Null => assert!(
                    baseline || optional == "credits",
                    "only baselines (or no-prefetch credits) may be null: {optional}"
                ),
                Json::Int(_) | Json::Number(_) => {
                    assert!(!baseline, "baseline rows carry null axes");
                }
                other => panic!("{optional} must be number or null, got {other:?}"),
            }
        }
        row.u64_field("rung").unwrap();
        assert!(row.f64_field("scale").unwrap() > 0.0);
        assert!(row.u64_field("makespan").unwrap() > 0);
        assert!(row.u64_field("tasks").unwrap() > 0);
        assert!(row.f64_field("speedup").unwrap() > 0.0);
        assert!(row.f64_field("area_mm2").unwrap() >= 0.0);
        row.bool_field("pareto").unwrap();
    }

    // Ordering: area ascending, speedup descending within equal area.
    let key = |r: &Json| (r.f64_field("area_mm2").unwrap(), -r.f64_field("speedup").unwrap());
    assert!(
        rows.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
        "rows must sort by (area asc, speedup desc)"
    );

    // The baseline anchor: area 0, speedup exactly 1, on the frontier.
    let anchor = rows.iter().find(|r| r.bool_field("baseline").unwrap()).unwrap();
    assert_eq!(anchor.f64_field("area_mm2").unwrap(), 0.0);
    assert_eq!(anchor.f64_field("speedup").unwrap(), 1.0);
    assert!(anchor.bool_field("pareto").unwrap());

    // Pareto flags are exactly the non-dominated rows of each
    // (workload, threads) group — recomputed here from the parsed
    // artifact, independently of the producer's implementation.
    for (i, row) in rows.iter().enumerate() {
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            j != i
                && other.str_field("workload").unwrap() == row.str_field("workload").unwrap()
                && other.u64_field("threads").unwrap() == row.u64_field("threads").unwrap()
                && other.f64_field("area_mm2").unwrap() <= row.f64_field("area_mm2").unwrap()
                && other.f64_field("speedup").unwrap() >= row.f64_field("speedup").unwrap()
                && (other.f64_field("area_mm2").unwrap() < row.f64_field("area_mm2").unwrap()
                    || other.f64_field("speedup").unwrap() > row.f64_field("speedup").unwrap())
        });
        assert_eq!(
            row.bool_field("pareto").unwrap(),
            !dominated,
            "pareto flag wrong for {}",
            row.str_field("id").unwrap()
        );
    }

    // The human-readable table: three header lines, a column line, one
    // line per row.
    assert_eq!(table.lines().count(), 3 + 1 + rows.len());
    assert!(table.starts_with("space smoke  strategy grid  seed 42"));
}
