//! The binaries as processes: what only a command line, an exit code or
//! a second invocation can show. Each test drives a built binary through
//! `CARGO_BIN_EXE_<name>`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use minnow::algos::WorkloadKind;
use minnow::bench::sweep::{derive_seed, run_sweep, Sweep, SweepConfig, SweepParams};
use minnow::graph::io::write_edge_list;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minnow-binaries-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("starting {exe}: {e}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// A point record with its `sweep` and `id` fields blanked, so records
/// from different front ends compare on everything else.
fn normalised(record: &str) -> String {
    let id_end = record.find(",\"workload\":").expect("a point record");
    format!("{{\"sweep\":\"\",\"id\":\"\"{}", &record[id_end..])
}

#[test]
fn run_json_is_the_smoke_sweeps_point_record() {
    let params = SweepParams {
        scale: 0.02,
        seed: 7,
        headline_threads: 2,
        max_threads: 2,
    };
    let sweep = Sweep::smoke(&params);
    let result = run_sweep(&sweep, &SweepConfig::serial());
    let jsonl = result.jsonl();
    let records: Vec<&str> = jsonl.lines().collect();
    assert_eq!(records.len(), 6);
    for (point, record) in sweep.points.iter().zip(records) {
        let kind = point.run.kind;
        let seed = derive_seed(params.seed, kind.name()).to_string();
        let mut args = vec![
            kind.name(),
            "--threads",
            "2",
            "--scale",
            "0.02",
            "--seed",
            &seed,
            "--json",
        ];
        let sched = point.id.rsplit('/').next().unwrap();
        args.extend(["--sched", sched]);
        if sched == "wdp" {
            args.extend(["--credits", "16"]);
        }
        let out = run_bin(env!("CARGO_BIN_EXE_minnow-run"), &args);
        assert!(out.status.success(), "{}: {}", point.id, stderr(&out));
        assert!(
            stderr(&out).contains("result: verified"),
            "{}: {}",
            point.id,
            stderr(&out)
        );
        assert_eq!(
            normalised(stdout(&out).trim_end()),
            normalised(record),
            "{}",
            point.id
        );
    }
}

#[test]
fn tc_on_an_edge_list_file_is_verified() {
    let dir = scratch("tc-input");
    let path = dir.join("dblp.txt");
    let graph = WorkloadKind::Tc.input(0.02, 3);
    write_edge_list(&graph, std::fs::File::create(&path).unwrap()).unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_minnow-run"),
        &[
            "tc",
            "--input",
            path.to_str().unwrap(),
            "--threads",
            "2",
            "--sched",
            "minnow",
        ],
    );
    let text = stdout(&out);
    assert!(out.status.success(), "{text}{}", stderr(&out));
    let header = format!(
        "TC on {} nodes / {} edges, 2 threads",
        graph.nodes(),
        graph.edges()
    );
    assert!(text.starts_with(&header), "{text}");
    assert!(text.contains("result:       verified"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_command_lines_exit_nonzero_with_the_usage() {
    let refused: [(&[&str], &str); 4] = [
        (&["bfs", "--graph", "g.gr"], "unknown flag `--graph`"),
        (&["dfs"], "unknown workload `dfs`"),
        (
            &["cc", "--sched", "minnow-wdp"],
            "unknown scheduler `minnow-wdp`",
        ),
        (
            &["bfs", "--input", "/nonexistent/minnow-graph.txt"],
            "input /nonexistent/minnow-graph.txt",
        ),
    ];
    for (args, want) in refused {
        let out = run_bin(env!("CARGO_BIN_EXE_minnow-run"), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        // A bad command line gets the usage; an unreadable input does not.
        let usage = !args.contains(&"--input");
        assert_eq!(err.contains("usage: minnow-run"), usage, "{args:?}: {err}");
    }
    // The client parses the same scheduler vocabulary before it connects,
    // and refuses `--policy`, as the daemon runs the paper policy only.
    for (flag, value, want) in [
        ("--sched", "minnow-wdp", "unknown scheduler `minnow-wdp`"),
        ("--policy", "fifo", "the daemon runs the paper policy only"),
    ] {
        let out = run_bin(
            env!("CARGO_BIN_EXE_minnow-client"),
            &["--socket", "/nonexistent/minnow.sock", "eval", flag, value],
        );
        assert_eq!(out.status.code(), Some(1));
        assert!(stderr(&out).contains(want), "{}", stderr(&out));
    }
}

/// Runs the explorer's smoke search into `out`, at most `max_evals`
/// fresh simulations per invocation.
fn explore(out: &Path, max_evals: Option<&str>) -> Output {
    let mut args = vec![
        "smoke",
        "--strategy",
        "halving",
        "--eta",
        "2",
        "--seed",
        "7",
        "--threads",
        "2",
    ];
    args.extend(["--out", out.to_str().unwrap()]);
    if let Some(n) = max_evals {
        args.extend(["--max-evals", n]);
    }
    run_bin(env!("CARGO_BIN_EXE_minnow-explore"), &args)
}

#[test]
fn budget_sliced_explorer_pauses_with_3_and_resumes_to_the_same_frontier() {
    let dir = scratch("explore");
    let (whole, sliced) = (dir.join("whole"), dir.join("sliced"));
    let out = explore(&whole, None);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut pauses = 0;
    loop {
        let out = explore(&sliced, Some("2"));
        match out.status.code() {
            Some(0) => break,
            Some(3) => pauses += 1,
            code => panic!("exit {code:?}: {}", stderr(&out)),
        }
        assert!(pauses < 20, "the sliced search never finished");
    }
    assert!(
        pauses > 0,
        "a 2-evaluation budget must pause the smoke search"
    );
    let frontier = |d: &Path| std::fs::read(d.join("smoke.frontier.jsonl")).unwrap();
    assert_eq!(
        frontier(&sliced),
        frontier(&whole),
        "resumed frontier differs"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
