//! The binaries as processes: what only a command line, an exit code or
//! a second invocation can show. Each test drives a built binary through
//! `CARGO_BIN_EXE_<name>`.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use minnow::algos::WorkloadKind;
use minnow::bench::json_read::Json;
use minnow::bench::sweep::{derive_seed, run_sweep, Sweep, SweepConfig, SweepParams};
use minnow::graph::io::write_edge_list;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minnow-binaries-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_bin<S: AsRef<OsStr>>(exe: &str, args: &[S]) -> Output {
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
    // The client parses the same scheduler and policy vocabulary before
    // it connects; a point it accepts fails only at the connect.
    let client = |args: &[&str], want: &str| {
        let mut argv = vec!["--socket", "/nonexistent/minnow.sock", "eval"];
        argv.extend(args);
        let out = run_bin(env!("CARGO_BIN_EXE_minnow-client"), &argv);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(want), "{args:?}: {}", stderr(&out));
    };
    client(&["--sched", "minnow-wdp"], "unknown scheduler `minnow-wdp`");
    client(
        &["--policy", "fifo"],
        "--policy applies to --sched software only",
    );
    client(
        &["--sched", "software", "--policy", "random"],
        "unknown policy `random`",
    );
    client(
        &["--sched", "software", "--policy", "fifo"],
        "connect /nonexistent/minnow.sock",
    );
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

/// `exe args` under `ulimit -v kib` through `sh -c`, or `None`, with a
/// note, where there is no `sh` whose `ulimit -v` works.
fn under_ulimit<S: AsRef<OsStr>>(kib: u64, exe: &str, args: &[S]) -> Option<Output> {
    let probe = Command::new("sh")
        .args(["-c", &format!("ulimit -v {kib}")])
        .output();
    if !probe.is_ok_and(|out| out.status.success()) {
        eprintln!("note: no `sh` with `ulimit -v` here; the memory-ceiling run is skipped");
        return None;
    }
    let script = format!("ulimit -v {kib} && exec \"$0\" \"$@\"");
    let out = Command::new("sh")
        .args(["-c", &script, exe])
        .args(args)
        .output()
        .expect("starting sh");
    Some(out)
}

/// Whether `taskset -c 0` can pin a process here; prints a note when it
/// cannot, and the caller skips its one-CPU run.
fn taskset_pins() -> bool {
    let ok = Command::new("taskset")
        .args(["-c", "0", "true"])
        .output()
        .is_ok_and(|out| out.status.success());
    if !ok {
        eprintln!("note: no working `taskset` here; the one-CPU run is skipped");
    }
    ok
}

/// `exe` as a command, pinned to CPU 0 by `taskset` when `one_cpu`.
fn command(exe: &str, one_cpu: bool) -> Command {
    if one_cpu {
        let mut cmd = Command::new("taskset");
        cmd.args(["-c", "0", exe]);
        cmd
    } else {
        Command::new(exe)
    }
}

/// `exe args` pinned to CPU 0 by `taskset`, or `None`, with a note,
/// where `taskset` is missing or cannot pin.
fn on_one_cpu<S: AsRef<OsStr>>(exe: &str, args: &[S]) -> Option<Output> {
    taskset_pins().then(|| {
        command(exe, true)
            .args(args)
            .output()
            .expect("starting taskset")
    })
}

/// The RMAT scale of the ingest checks: small enough for a debug build,
/// large enough that a 1 MiB budget spills several runs.
const RMAT_SCALE: u32 = 14;

/// Streams the seed-42 RMAT samples at [`RMAT_SCALE`] to `dir/rmat.el`.
fn rmat_edge_list(dir: &Path) -> PathBuf {
    let path = dir.join("rmat.el");
    let spec = format!("rmat:{RMAT_SCALE}:16");
    let out = run_bin(
        env!("CARGO_BIN_EXE_minnow-ingest"),
        &["--gen", &spec, "--seed", "42", "-o", path.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

/// `minnow-ingest`'s arguments for the simulator's RMAT recipe from
/// `input` to `image` under `budget_mb`, then `extra`.
fn ingest_args(input: &Path, image: &Path, budget_mb: &str, extra: &[&str]) -> Vec<String> {
    let nodes = (1u64 << RMAT_SCALE).to_string();
    let args = [
        input.to_str().unwrap(),
        "-o",
        image.to_str().unwrap(),
        "--budget-mb",
        budget_mb,
        "--symmetrize",
        "--dedup",
        "--drop-self-loops",
        "--nodes",
        &nodes,
    ];
    args.iter().chain(extra).map(|a| a.to_string()).collect()
}

/// The sorted runs an ingest's summary line reports.
fn runs_reported(out: &Output) -> u64 {
    let err = stderr(out);
    let head = err.split(" sorted run(s)").next().unwrap();
    head.rsplit('(')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("{err}"))
}

#[test]
fn ingest_writes_one_image_at_every_budget_on_one_cpu_and_under_a_memory_ceiling() {
    let dir = scratch("ingest-budgets");
    let input = rmat_edge_list(&dir);
    let exe = env!("CARGO_BIN_EXE_minnow-ingest");
    let ingest = |name: &str, budget_mb: &str| {
        let image = dir.join(name);
        let args = ingest_args(&input, &image, budget_mb, &[]);
        (image, args)
    };

    // The external sort keeps to its budget: an 8 MiB ingest runs inside
    // a 1 GiB address space (the binary and allocator take most of it).
    let (reference, args) = ingest("ceiling.mcsr", "8");
    let out = under_ulimit(1 << 20, exe, &args).unwrap_or_else(|| run_bin(exe, &args));
    assert!(out.status.success(), "{}", stderr(&out));
    let want = std::fs::read(&reference).unwrap();

    for (name, budget_mb) in [("fat.mcsr", "256"), ("thin.mcsr", "1")] {
        let (image, args) = ingest(name, budget_mb);
        let out = run_bin(exe, &args);
        assert!(out.status.success(), "{}", stderr(&out));
        if budget_mb == "1" {
            assert!(runs_reported(&out) >= 4, "{}", stderr(&out));
        }
        assert!(
            std::fs::read(&image).unwrap() == want,
            "{budget_mb} MiB image differs"
        );
    }

    // On one CPU the sort, spill and sink stages run inline.
    let (image, args) = ingest("one-cpu.mcsr", "8");
    if let Some(out) = on_one_cpu(exe, &args) {
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(
            std::fs::read(&image).unwrap() == want,
            "one-CPU image differs"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_image_sweeps_byte_identically_mapped_and_read() {
    let dir = scratch("image-modes");
    let input = rmat_edge_list(&dir);
    let image = dir.join("rmat.mcsr");
    let args = ingest_args(&input, &image, "8", &[]);
    let out = run_bin(env!("CARGO_BIN_EXE_minnow-ingest"), &args);
    assert!(out.status.success(), "{}", stderr(&out));
    let exe = env!("CARGO_BIN_EXE_minnow-sweep");
    let args = |mode: &str, filter: &str| {
        let out_dir = dir.join(mode);
        let args = [
            "smoke",
            "--filter",
            filter,
            "--threads",
            "1",
            "--input",
            image.to_str().unwrap(),
            "--input-mode",
            mode,
            "--out",
            out_dir.to_str().unwrap(),
        ];
        (out_dir.join("smoke.jsonl"), args.map(String::from))
    };
    // Every smoke BFS point (software, minnow, wdp) by each load path.
    let sweep = |mode: &str| {
        let (jsonl, args) = args(mode, "/BFS/");
        let out = run_bin(exe, &args);
        assert!(out.status.success(), "{mode}: {}", stderr(&out));
        std::fs::read(jsonl).unwrap()
    };
    let mapped = sweep("mmap");
    assert_eq!(mapped.iter().filter(|&&b| b == b'\n').count(), 3);
    assert!(sweep("read") == mapped, "mmap and read sweeps differ");
    // On one CPU the mapped load hashes inline, before its checks; one
    // point is enough to compare that load.
    let (jsonl, one_cpu) = args("auto", "/BFS/wdp");
    if let Some(out) = on_one_cpu(exe, &one_cpu) {
        assert!(out.status.success(), "{}", stderr(&out));
        let mapped = std::str::from_utf8(&mapped).unwrap();
        let wdp: Vec<&str> = mapped
            .lines()
            .filter(|l| l.contains("\"id\":\"smoke/BFS/wdp\""))
            .collect();
        let got = std::fs::read_to_string(jsonl).unwrap();
        assert!(
            got.lines().collect::<Vec<_>>() == wdp,
            "one-CPU sweep differs"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_bench_out_records_the_ingest_and_its_loads() {
    let dir = scratch("ingest-bench-out");
    let input = rmat_edge_list(&dir);
    let image = dir.join("rmat.mcsr");
    let doc_path = dir.join("BENCH_ingest.json");
    let args = ingest_args(
        &input,
        &image,
        "1",
        &["--bench-out", doc_path.to_str().unwrap()],
    );
    let out = run_bin(env!("CARGO_BIN_EXE_minnow-ingest"), &args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&doc_path).unwrap();
    let doc = Json::parse(text.trim_end()).unwrap();
    assert_eq!(
        doc.str_field("schema").unwrap(),
        "minnow-ingest-throughput/v1"
    );
    assert_eq!(doc.u64_field("nodes").unwrap(), 1 << RMAT_SCALE);
    assert!(doc.u64_field("edges_kept").unwrap() > 0);
    assert_eq!(doc.u64_field("runs").unwrap(), runs_reported(&out));
    assert!(doc.u64_field("runs").unwrap() >= 1);
    let modes: &[&str] = if cfg!(all(unix, target_endian = "little")) {
        &["mmap", "read"]
    } else {
        &["read"]
    };
    for mode in modes {
        for field in [format!("load_{mode}_ms"), format!("load_{mode}_median_ms")] {
            assert!(doc.f64_field(&field).unwrap() > 0.0, "{field}: {text}");
        }
    }
    let host = doc.get("host").unwrap();
    assert!(host.u64_field("available_parallelism").unwrap() >= 1);
    assert!(!host.str_field("cpu_model").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_oversized_declared_node_count_is_refused_under_a_memory_ceiling() {
    let dir = scratch("huge-gr");
    let path = dir.join("huge.gr");
    // 4294967295 nodes fit a node id, but not their row pointers in 4 GB.
    std::fs::write(&path, "p sp 4294967295 0\n").unwrap();
    let exe = env!("CARGO_BIN_EXE_minnow-run");
    let args = ["sssp", "--input", path.to_str().unwrap()];
    let Some(out) = under_ulimit(4_000_000, exe, &args) else {
        return;
    };
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("cannot allocate the row pointers of 4294967295 nodes"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `minnow-serve` daemon or worker process; killed on drop unless
/// [`Process::finish`] saw it exit.
struct Process {
    child: Option<Child>,
    what: &'static str,
}

impl Process {
    /// Starts `minnow-serve args`, its stderr in `log`.
    fn serve(what: &'static str, one_cpu: bool, log: &Path, args: &[&str]) -> Process {
        let child = command(env!("CARGO_BIN_EXE_minnow-serve"), one_cpu)
            .args(args)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log).unwrap())
            .spawn()
            .unwrap_or_else(|e| panic!("starting the {what}: {e}"));
        Process {
            child: Some(child),
            what,
        }
    }

    /// Waits up to a minute for the process to exit and asserts that it
    /// exited cleanly.
    fn finish(mut self) {
        let mut child = self.child.take().unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("the {} did not exit", self.what);
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "the {} exited with {status}", self.what);
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `minnow-client --socket sock args`.
fn client(sock: &Path, one_cpu: bool, args: &[&str]) -> Output {
    command(env!("CARGO_BIN_EXE_minnow-client"), one_cpu)
        .args(["--socket", sock.to_str().unwrap()])
        .args(args)
        .output()
        .expect("starting minnow-client")
}

/// Waits for the daemon on `sock` to answer a ping.
fn await_daemon(sock: &Path, one_cpu: bool) {
    let out = client(sock, one_cpu, &["--wait", "30", "ping"]);
    assert!(
        out.status.success(),
        "daemon never came up: {}",
        stderr(&out)
    );
}

/// Stops the daemon on `sock` and waits for it to exit.
fn shut_down(daemon: Process, sock: &Path, one_cpu: bool) {
    let out = client(sock, one_cpu, &["shutdown"]);
    assert!(out.status.success(), "{}", stderr(&out));
    daemon.finish();
}

/// The smoke sweep three ways, all byte-compared with the direct
/// `minnow-sweep` artifacts: from a cold daemon, which simulates every
/// point and persists it; then from a restarted daemon on that store,
/// which must serve every point from it, so `--require-cached` passes.
/// The restarted daemon has not seen another seed, so the same sweep
/// at that seed under `--require-cached` must fail.
fn served_sweep_matches_the_direct_sweep(tag: &str, one_cpu: bool) {
    let dir = scratch(tag);
    let sock = dir.join("serve.sock");
    let sweep = ["smoke", "--scale", "0.02", "--seed", "7"];
    let direct = dir.join("direct");
    let out = command(env!("CARGO_BIN_EXE_minnow-sweep"), one_cpu)
        .args(sweep)
        .args(["--threads", "1", "--out", direct.to_str().unwrap()])
        .output()
        .expect("starting minnow-sweep");
    assert!(out.status.success(), "{}", stderr(&out));
    let read = |path: PathBuf| std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let want = (
        read(direct.join("smoke.jsonl")),
        read(direct.join("smoke.breakdown.jsonl")),
    );

    let (store, daemon_out) = (dir.join("store.jsonl"), dir.join("daemon"));
    let daemon_args = [
        "--socket",
        sock.to_str().unwrap(),
        "--executors",
        "1",
        "--store",
        store.to_str().unwrap(),
        "--out",
        daemon_out.to_str().unwrap(),
    ];
    for pass in ["cold", "warm"] {
        let daemon = Process::serve(
            "daemon",
            one_cpu,
            &dir.join(format!("{pass}.log")),
            &daemon_args,
        );
        await_daemon(&sock, one_cpu);
        let (jsonl, breakdown) = (
            dir.join(format!("{pass}.jsonl")),
            dir.join(format!("{pass}.breakdown.jsonl")),
        );
        let mut args = vec!["sweep"];
        args.extend(sweep);
        if pass == "warm" {
            args.push("--require-cached");
        }
        args.extend(["--out", jsonl.to_str().unwrap()]);
        args.extend(["--breakdown", breakdown.to_str().unwrap()]);
        let out = client(&sock, one_cpu, &args);
        assert!(out.status.success(), "{pass}: {}", stderr(&out));
        assert!(
            read(jsonl) == want.0,
            "{pass} JSONL differs from the direct sweep"
        );
        assert!(
            read(breakdown) == want.1,
            "{pass} breakdown differs from the direct sweep"
        );
        if pass == "warm" {
            let out = client(&sock, one_cpu, &["stats"]);
            assert!(out.status.success(), "{}", stderr(&out));
            let unseen = dir.join("unseen.jsonl");
            let out = client(
                &sock,
                one_cpu,
                &[
                    "sweep",
                    "smoke",
                    "--scale",
                    "0.02",
                    "--seed",
                    "8",
                    "--require-cached",
                    "--out",
                    unseen.to_str().unwrap(),
                ],
            );
            assert!(!out.status.success(), "an unseen seed was served cached");
            assert!(
                stderr(&out).contains("--require-cached: 6 of 6 points missed the store"),
                "{}",
                stderr(&out)
            );
        }
        shut_down(daemon, &sock, one_cpu);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_served_sweep_matches_the_direct_one_cold_and_after_a_restart() {
    served_sweep_matches_the_direct_sweep("serve", false);
}

/// On one CPU neither the daemon nor the client polls its socket
/// before blocking.
#[test]
fn a_served_sweep_matches_the_direct_one_on_one_cpu() {
    if taskset_pins() {
        served_sweep_matches_the_direct_sweep("serve-1cpu", true);
    }
}

#[test]
fn a_worker_process_serves_a_zero_executor_daemons_search() {
    let dir = scratch("serve-worker");
    let direct = dir.join("direct");
    let out = explore(&direct, None);
    assert!(out.status.success(), "{}", stderr(&out));

    let sock = dir.join("serve.sock");
    let sock_str = sock.to_str().unwrap();
    let out_dir = dir.join("daemon");
    // Zero local executors: only the worker process can simulate.
    let daemon = Process::serve(
        "daemon",
        false,
        &dir.join("daemon.log"),
        &[
            "--socket",
            sock_str,
            "--executors",
            "0",
            "--out",
            out_dir.to_str().unwrap(),
        ],
    );
    await_daemon(&sock, false);
    let worker = Process::serve(
        "worker",
        false,
        &dir.join("worker.log"),
        &["--worker", sock_str, "--name", "test-worker"],
    );
    let frontier = dir.join("remote.frontier.jsonl");
    let out = client(
        &sock,
        false,
        &[
            "explore",
            "smoke",
            "--strategy",
            "halving",
            "--eta",
            "2",
            "--seed",
            "7",
            "--out",
            frontier.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        std::fs::read(&frontier).unwrap()
            == std::fs::read(direct.join("smoke.frontier.jsonl")).unwrap(),
        "the worker-served frontier differs from the explorer's"
    );
    shut_down(daemon, &sock, false);
    worker.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}
