//! Crash consistency of the two append-only files: the `minnow-serve`
//! result store (`minnow-serve-store/v1`) and the explorer's journal
//! (`minnow-explore-journal/v1`). Each is cut at every byte offset, the
//! footprint of a process killed at any point of a write. After every
//! cut the open must succeed without panicking, recover exactly the
//! entries whose JSON line was whole before the cut, and accept one more
//! append that a later open still finds. One key holds non-ASCII text,
//! so some cuts land inside a multi-byte character.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minnow::bench::eval::EvalReport;
use minnow::explore::{EvalRecord, Journal, JournalHeader, Rung};
use minnow::serve::store::StoredEval;
use minnow::serve::{ServeStats, Store};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minnow-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// For each line of `bytes` (header included), the offset of its
/// newline: a cut at or past it leaves the line's JSON whole.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect()
}

/// How many body lines (after the header) are whole at `cut`.
fn whole_body_lines(ends: &[usize], cut: usize) -> usize {
    ends.iter()
        .filter(|&&end| end <= cut)
        .count()
        .saturating_sub(1)
}

fn eval(makespan: u64) -> StoredEval {
    StoredEval {
        report: EvalReport {
            makespan,
            tasks: 1,
            ..EvalReport::default()
        },
        sim_wall_us: 3,
    }
}

fn open_store(path: &Path) -> Store {
    Store::open(
        Some(path.to_path_buf()),
        u64::MAX,
        Arc::new(ServeStats::new()),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn store_recovers_the_whole_lines_at_every_cut() {
    let dir = scratch("store");
    let keys = ["adhoc|bfs", "space/café|cc", "sweep/smoke|sssp"];
    let full_path = dir.join("full.jsonl");
    {
        let store = open_store(&full_path);
        for (i, key) in keys.iter().enumerate() {
            store.insert(key, &eval(100 + i as u64));
        }
    }
    let full = std::fs::read(&full_path).unwrap();
    let ends = line_ends(&full);
    assert_eq!(
        ends.len(),
        1 + keys.len(),
        "header plus one line per insert"
    );
    let cafe = full.windows(2).position(|w| w == "é".as_bytes()).unwrap();
    assert!(cafe + 1 < full.len(), "some cut falls inside `é`");

    for cut in 0..=full.len() {
        let path = dir.join(format!("cut-{cut}.jsonl"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let whole = whole_body_lines(&ends, cut);
        {
            let store = open_store(&path);
            assert_eq!(store.len(), whole, "cut at {cut}");
            for (i, key) in keys.iter().enumerate().take(whole) {
                let got = store
                    .get(key)
                    .unwrap_or_else(|| panic!("cut at {cut}: lost {key}"));
                assert_eq!(got.report.makespan, 100 + i as u64, "cut at {cut}");
            }
            store.insert("after", &eval(7));
        }
        let reopened = open_store(&path);
        assert_eq!(
            reopened.len(),
            whole + 1,
            "cut at {cut}: the append after it"
        );
        assert_eq!(
            reopened.get("after").map(|e| e.report.makespan),
            Some(7),
            "cut at {cut}"
        );
        std::fs::remove_file(&path).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn header() -> JournalHeader {
    JournalHeader {
        space: "café".into(),
        seed: 42,
        strategy: "grid".into(),
        rungs: vec![Rung::Scale(0.02)],
    }
}

fn record(seq: u64, id: &str) -> EvalRecord {
    EvalRecord {
        seq,
        id: id.into(),
        rung: 0,
        scale: 0.02,
        seed: 7,
        makespan: 1000 + seq,
        tasks: 10,
        instructions: 50,
        l2_misses: 3,
        mem_accesses: 20,
        timed_out: false,
        wall_us: 11,
    }
}

#[test]
fn journal_recovers_the_whole_lines_at_every_cut() {
    let dir = scratch("journal");
    let ids = ["cfg-a", "cfg-é", "cfg-c"];
    let full_path = dir.join("full.jsonl");
    {
        let mut journal = Journal::open(&full_path, header()).unwrap();
        journal.append_batch(vec![record(0, ids[0])]).unwrap();
        journal
            .append_batch(vec![record(1, ids[1]), record(2, ids[2])])
            .unwrap();
    }
    let full = std::fs::read(&full_path).unwrap();
    let ends = line_ends(&full);
    assert_eq!(ends.len(), 1 + ids.len());

    // A fresh path per cut: the process-wide snapshot index is keyed by
    // path, so each first open below reads its file from scratch.
    for cut in 0..=full.len() {
        let path = dir.join(format!("cut-{cut}.jsonl"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let whole = whole_body_lines(&ends, cut);
        let mut journal =
            Journal::open(&path, header()).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(journal.resumed(), whole, "cut at {cut}");
        for (seq, id) in ids.iter().enumerate().take(whole) {
            assert_eq!(
                journal.get(id, 0).map(|r| r.makespan),
                Some(1000 + seq as u64),
                "cut at {cut}"
            );
        }
        journal.append_batch(vec![record(9, "after")]).unwrap();
        drop(journal);

        // Reopen a copy under a new path, so the check reads the bytes
        // on disk rather than the snapshot this process kept.
        let copy = dir.join(format!("cut-{cut}-copy.jsonl"));
        std::fs::copy(&path, &copy).unwrap();
        let reopened = Journal::open(&copy, header())
            .unwrap_or_else(|e| panic!("cut at {cut}, after an append: {e}"));
        assert_eq!(reopened.resumed(), whole + 1, "cut at {cut}");
        assert_eq!(reopened.get("after", 0).map(|r| r.makespan), Some(1009));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&copy).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
