//! End-to-end contracts of the design-space explorer:
//!
//! * **Early stopping pays for itself** — successive halving on the
//!   golden Fig. 16-style space recovers exactly the full grid's
//!   Pareto-optimal set while simulating at most half the grid's total
//!   task count (the acceptance bound; the actual counts are logged).
//! * **Interruption is invisible** — a search driven in budgeted
//!   slices (pause, re-invoke, resume from the journal) produces a
//!   frontier byte-identical to an uninterrupted run's, and a journal
//!   whose final line was truncated by a kill re-simulates exactly the
//!   lost evaluation.
//! * **Journals are bound to their search** — resuming with a
//!   different seed is refused rather than silently mixing results.

use std::path::PathBuf;

use minnow::explore::{
    explore, ExploreConfig, ExploreError, ExploreOutcome, FrontierDoc, Space, Strategy,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "minnow-explore-it-{}-{name}.journal.jsonl",
        std::process::id()
    ))
}

fn config(space: Space, strategy: Strategy, journal: PathBuf) -> ExploreConfig {
    ExploreConfig {
        space,
        strategy,
        seed: 42,
        pool_threads: 4,
        max_fresh_evals: None,
        journal_path: journal,
        verbose: false,
    }
}

fn run_to_completion(cfg: &ExploreConfig) -> FrontierDoc {
    match explore(cfg).expect("exploration failed") {
        ExploreOutcome::Complete { frontier, .. } => frontier,
        ExploreOutcome::Paused { .. } => panic!("unbudgeted exploration paused"),
    }
}

#[test]
fn halving_matches_grid_pareto_at_half_the_simulated_tasks() {
    let grid_journal = tmp("accept-grid");
    let halving_journal = tmp("accept-halving");
    let _ = std::fs::remove_file(&grid_journal);
    let _ = std::fs::remove_file(&halving_journal);

    let grid = run_to_completion(&config(
        Space::golden_fig16(),
        Strategy::Grid,
        grid_journal.clone(),
    ));
    let halving = run_to_completion(&config(
        Space::golden_fig16(),
        Strategy::Halving { eta: 4 },
        halving_journal.clone(),
    ));

    // The oracle evaluated everything; halving pruned most of it away.
    assert_eq!(grid.evaluated, Space::golden_fig16().configs().len());
    assert!(halving.evaluated < grid.evaluated);

    // Same Pareto-optimal set (ids are deterministic, so exact match).
    assert_eq!(
        halving.pareto_ids(),
        grid.pareto_ids(),
        "halving must recover the grid's Pareto set"
    );
    // And the Pareto rows agree on the measured numbers, not just ids:
    // survivors were re-measured at the same final rung on the same
    // seeded graph.
    for id in grid.pareto_ids() {
        let g = grid.rows.iter().find(|r| r.id == id).unwrap();
        let h = halving.rows.iter().find(|r| r.id == id).unwrap();
        assert_eq!(g.makespan, h.makespan, "{id} makespan differs");
        assert_eq!(g.tasks, h.tasks, "{id} tasks differ");
    }

    // The acceptance bound: at most half the grid's simulated tasks.
    eprintln!(
        "early-stopping cost: halving {} sim tasks vs grid {} ({}%)",
        halving.sim_tasks,
        grid.sim_tasks,
        halving.sim_tasks * 100 / grid.sim_tasks
    );
    assert!(
        halving.sim_tasks * 2 <= grid.sim_tasks,
        "halving simulated {} tasks, grid {}: early stopping must cost at most half",
        halving.sim_tasks,
        grid.sim_tasks
    );

    std::fs::remove_file(&grid_journal).unwrap();
    std::fs::remove_file(&halving_journal).unwrap();
}

#[test]
fn budget_sliced_search_produces_a_byte_identical_frontier() {
    let sliced_journal = tmp("sliced");
    let straight_journal = tmp("straight");
    let _ = std::fs::remove_file(&sliced_journal);
    let _ = std::fs::remove_file(&straight_journal);

    // Drive the search in slices of two fresh simulations, pausing and
    // re-invoking — the CLI's `--max-evals` / exit-code-3 loop.
    let mut sliced_cfg = config(
        Space::smoke(),
        Strategy::Halving { eta: 2 },
        sliced_journal.clone(),
    );
    sliced_cfg.max_fresh_evals = Some(2);
    let mut invocations = 0;
    let sliced = loop {
        invocations += 1;
        assert!(invocations < 50, "budget loop did not converge");
        match explore(&sliced_cfg).expect("budgeted slice failed") {
            ExploreOutcome::Complete { frontier, .. } => break frontier,
            ExploreOutcome::Paused { fresh, .. } => assert!(fresh <= 2),
        }
    };
    assert!(invocations >= 3, "smoke halving must pause at least twice");

    let straight = run_to_completion(&config(
        Space::smoke(),
        Strategy::Halving { eta: 2 },
        straight_journal.clone(),
    ));
    assert_eq!(
        sliced.to_jsonl(),
        straight.to_jsonl(),
        "interrupted-and-resumed frontier must be byte-identical"
    );

    std::fs::remove_file(&sliced_journal).unwrap();
    std::fs::remove_file(&straight_journal).unwrap();
}

#[test]
fn truncated_journal_resimulates_only_the_lost_evaluation() {
    let journal = tmp("truncate");
    let _ = std::fs::remove_file(&journal);
    let cfg = config(Space::smoke(), Strategy::Grid, journal.clone());
    let first = run_to_completion(&cfg);

    // Chop the journal mid-way through its final record — the on-disk
    // footprint of a process killed during a write.
    let text = std::fs::read_to_string(&journal).unwrap();
    let keep = text.trim_end().rfind('\n').unwrap() + 1;
    let cut = keep + (text.len() - keep) / 2;
    std::fs::write(&journal, &text[..cut]).unwrap();

    match explore(&cfg).expect("resume over a truncated journal failed") {
        ExploreOutcome::Complete { frontier, fresh, .. } => {
            assert_eq!(fresh, 1, "exactly the lost evaluation re-runs");
            assert_eq!(frontier.to_jsonl(), first.to_jsonl());
        }
        ExploreOutcome::Paused { .. } => panic!("unbudgeted resume paused"),
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_refuses_a_different_search_identity() {
    let journal = tmp("identity");
    let _ = std::fs::remove_file(&journal);
    let cfg = config(Space::smoke(), Strategy::Grid, journal.clone());
    run_to_completion(&cfg);

    let mut reseeded = cfg.clone();
    reseeded.seed = 43;
    match explore(&reseeded) {
        Err(ExploreError::Journal(msg)) => {
            assert!(msg.contains("different search"), "unexpected message: {msg}");
        }
        other => panic!("reseeded resume must fail with a journal error, got {other:?}"),
    }

    let mut restrategized = cfg.clone();
    restrategized.strategy = Strategy::Halving { eta: 2 };
    assert!(matches!(
        explore(&restrategized),
        Err(ExploreError::Journal(_))
    ));
    std::fs::remove_file(&journal).unwrap();
}
