//! Wire-protocol contracts of the `minnow-serve` daemon:
//!
//! * **Malformed input is survivable** — parse errors and unknown ops
//!   get an error line and the connection stays usable; an oversized
//!   request gets an error line and a hang-up (the stream cannot be
//!   re-synchronized); a request nested past the reader's depth bound,
//!   or naming a worklist chunk too large to allocate, over the socket
//!   or HTTP, gets an error and the daemon keeps answering.
//! * **Memoization is total** — repeating an evaluation costs zero
//!   simulator invocations, proved by the daemon's own counters.
//! * **Duplicates are single-flight** — concurrent identical requests
//!   coalesce onto one simulation.
//! * **Journals keep their identity** — a served search refuses a
//!   journal written by a different search instead of mixing results.
//! * **HTTP status mapping** — the hand-rolled HTTP front end maps op
//!   outcomes to 200/400/404/405/413/429 (+ `Retry-After`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use minnow::bench::eval::run_to_json;
use minnow::bench::json_read::{Json, MAX_DEPTH};
use minnow::bench::runner::{BenchRun, SchedSpec};
use minnow::algos::WorkloadKind;
use minnow::explore::{Journal, JournalHeader, Space, Strategy};
use minnow::runtime::worklist::PolicyKind;
use minnow::serve::client::{request, request_ok, Client};
use minnow::serve::proto::MAX_REQUEST_BYTES;
use minnow::serve::{journal_filename, Daemon, ServeAddr, ServeConfig, WorkerConfig};

/// A per-test scratch directory (sockets, stores, journals).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minnow-serve-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon on a fresh socket under `dir`, with `executors` local
/// simulation threads and artifacts kept inside `dir`.
fn daemon_in(dir: &Path, executors: usize) -> Daemon {
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = executors;
    cfg.out_dir = dir.to_path_buf();
    Daemon::start(cfg).expect("daemon start")
}

/// A small, fast evaluation request line.
fn eval_line(seed: u64) -> String {
    let mut run = BenchRun::minnow(WorkloadKind::Bfs, 2);
    run.scale = 0.05;
    run.seed = seed;
    format!("{{\"op\":\"eval\",\"run\":{}}}", run_to_json(&run))
}

fn shutdown_and_join(daemon: Daemon) {
    daemon.trigger_shutdown();
    daemon.join();
}

#[test]
fn malformed_requests_leave_the_connection_usable() {
    let dir = scratch("malformed");
    let daemon = daemon_in(&dir, 0);
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());

    let mut client = Client::connect(&addr).unwrap();

    // Unparsable JSON: an error line, not a hang-up.
    let doc = client.request("this is not json").unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert!(doc.str_field("error").unwrap().contains("parse"));

    // A document with no `op` field.
    let doc = client.request("{\"x\":1}").unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));

    // An unknown op names the menu.
    let doc = client.request("{\"op\":\"frobnicate\"}").unwrap();
    let err = doc.str_field("error").unwrap();
    assert!(err.contains("unknown op"), "{err}");
    assert!(err.contains("eval") && err.contains("sweep"), "{err}");

    // An eval with a broken run object.
    let doc = client.request("{\"op\":\"eval\",\"run\":{}}").unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));

    // The same connection still answers pings after all that abuse.
    let doc = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_requests_get_an_error_then_a_hangup() {
    let dir = scratch("oversized");
    let daemon = daemon_in(&dir, 0);
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());

    let mut client = Client::connect(&addr).unwrap();
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(2 << 20));
    // The daemon stops reading at the cap, replies, and hangs up. The
    // client may see that error line, or — when the hang-up lands while
    // it is still flushing the oversized line — a transport error.
    match client.request(&huge) {
        Ok(doc) => {
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
            assert!(doc.str_field("error").unwrap().contains("exceeds"));
        }
        Err(e) => assert!(e.contains("write") || e.contains("closed"), "{e}"),
    }

    // Either way the connection is dead: the next request fails.
    assert!(client.request("{\"op\":\"ping\"}").is_err());

    // A fresh connection works fine.
    request_ok(&addr, "{\"op\":\"ping\"}").unwrap();

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_evaluations_cost_zero_simulator_invocations() {
    let dir = scratch("memo");
    let daemon = daemon_in(&dir, 1);
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
    let stats = daemon.stats();

    let first = request_ok(&addr, &eval_line(3)).unwrap();
    assert!(!first.bool_field("cached").unwrap());
    assert_eq!(stats.sim_invocations.load(Ordering::Relaxed), 1);

    let second = request_ok(&addr, &eval_line(3)).unwrap();
    assert!(second.bool_field("cached").unwrap());
    assert_eq!(
        stats.sim_invocations.load(Ordering::Relaxed),
        1,
        "the repeat must not touch the simulator"
    );
    assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
    assert_eq!(stats.misses.load(Ordering::Relaxed), 1);

    // Identical reports, byte for byte.
    assert_eq!(
        format!("{:?}", first.get("report").unwrap()),
        format!("{:?}", second.get("report").unwrap())
    );

    // A different seed is a different key — fresh simulation.
    let third = request_ok(&addr, &eval_line(4)).unwrap();
    assert!(!third.bool_field("cached").unwrap());
    assert_eq!(stats.sim_invocations.load(Ordering::Relaxed), 2);

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_duplicate_requests_coalesce_onto_one_simulation() {
    let dir = scratch("coalesce");
    // Zero local executors: submitted jobs stay in the queue until the
    // worker we start *after* observing the coalesce, which makes the
    // single-flight window deterministic on any host.
    let daemon = daemon_in(&dir, 0);
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
    let stats = daemon.stats();

    let spawn_eval = |addr: ServeAddr| {
        std::thread::spawn(move || request_ok(&addr, &eval_line(5)).unwrap())
    };
    let a = spawn_eval(addr.clone());
    let b = spawn_eval(addr.clone());

    // Both requests are in flight and one attached to the other.
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats.coalesced.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline, "duplicates never coalesced");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(stats.misses.load(Ordering::Relaxed), 2);

    // Now provide the horsepower: one in-process worker serves the
    // single coalesced job, then parks until the daemon shuts down.
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        minnow::serve::run_worker(&WorkerConfig::new(worker_addr)).unwrap()
    });

    let ra = a.join().unwrap();
    let rb = b.join().unwrap();
    assert!(!ra.bool_field("cached").unwrap());
    assert_eq!(
        format!("{:?}", ra.get("report").unwrap()),
        format!("{:?}", rb.get("report").unwrap())
    );
    assert_eq!(stats.coalesced.load(Ordering::Relaxed), 1);
    assert_eq!(stats.worker_results.load(Ordering::Relaxed), 1);
    assert_eq!(
        stats.sim_invocations.load(Ordering::Relaxed),
        0,
        "no local executor ever ran"
    );

    shutdown_and_join(daemon);
    assert_eq!(worker.join().unwrap(), 1, "the worker served exactly one job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_refuses_a_journal_with_a_different_identity() {
    let dir = scratch("identity");
    let daemon = daemon_in(&dir, 1);
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());

    // Plant a journal at exactly the path the daemon will use for a
    // seed-42 halving search — but bound to seed 43.
    let strategy = Strategy::from_flags("halving", 8, 2).unwrap();
    let journal_path = dir.join(journal_filename("smoke", &strategy, 42));
    Journal::open(
        &journal_path,
        JournalHeader {
            space: "smoke".into(),
            seed: 43,
            strategy: strategy.label(),
            rungs: Space::smoke().rungs.clone(),
        },
    )
    .unwrap();

    let doc = request(&addr, "{\"op\":\"explore\",\"space\":\"smoke\"}").unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let err = doc.str_field("error").unwrap();
    assert!(err.contains("different search"), "{err}");

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP/1.1 round trip (`Connection: close` protocol).
fn http_round_trip(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    http_round_trip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn http_front_end_maps_outcomes_to_statuses() {
    let dir = scratch("http");
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 0;
    cfg.queue_cap = 1;
    cfg.out_dir = dir.clone();
    cfg.http = Some("127.0.0.1:0".into());
    let daemon = Daemon::start(cfg).expect("daemon start");
    let http = daemon.http_addr().expect("http listener bound");
    let uds = ServeAddr::Unix(daemon.socket().to_path_buf());
    let stats = daemon.stats();

    // 200: ping and stats over GET.
    let ok = http_round_trip(http, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let ok = http_round_trip(http, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    assert!(ok.contains("serve_stats"), "{ok}");

    // 400: a body that is not JSON.
    let bad = http_post(http, "/eval", "{broken");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

    // 404 / 405: unknown path, wrong method.
    let missing = http_round_trip(http, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let wrong = http_round_trip(http, "GET /eval HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");

    // 413: a body bigger than the request cap, refused from the
    // headers alone.
    let too_big = http_round_trip(
        http,
        "POST /eval HTTP/1.1\r\nHost: x\r\nContent-Length: 9999999\r\n\r\n",
    );
    assert!(too_big.starts_with("HTTP/1.1 413"), "{too_big}");

    // 429: fill the (capacity-one, zero-executor) queue over the Unix
    // socket, then watch HTTP admission control turn the next one away.
    let blocked_addr = uds.clone();
    let blocked = std::thread::spawn(move || request(&blocked_addr, &eval_line(6)));
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats.inflight.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline, "first eval never occupied the queue");
        std::thread::sleep(Duration::from_millis(5));
    }
    let run = eval_line(7);
    let body = run.strip_prefix("{\"op\":\"eval\",").unwrap();
    let busy = http_post(http, "/eval", &format!("{{{body}"));
    assert!(busy.starts_with("HTTP/1.1 429"), "{busy}");
    assert!(busy.contains("Retry-After:"), "{busy}");
    assert!(busy.contains("queue full"), "{busy}");

    // Shutdown releases the parked evaluation with an error response.
    daemon.trigger_shutdown();
    let released = blocked.join().unwrap().unwrap();
    assert_eq!(released.get("ok").and_then(Json::as_bool), Some(false));
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_megabyte_of_open_brackets_gets_an_error_and_the_daemon_keeps_answering() {
    let dir = scratch("deep");
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 0;
    cfg.out_dir = dir.clone();
    cfg.http = Some("127.0.0.1:0".into());
    let daemon = Daemon::start(cfg).expect("daemon start");
    let http = daemon.http_addr().expect("http listener bound");
    let uds = ServeAddr::Unix(daemon.socket().to_path_buf());
    let deep = format!("nesting deeper than {MAX_DEPTH} levels");

    // The longest line the socket takes: the cap, its newline included.
    let mut client = Client::connect(&uds).unwrap();
    let line = "[".repeat(MAX_REQUEST_BYTES as usize - 1);
    let doc = client.request(&line).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let err = doc.str_field("error").unwrap();
    assert!(err.contains(&deep), "{err}");
    // The same connection still answers.
    client.request("{\"op\":\"ping\"}").unwrap();

    // The largest body HTTP takes.
    let body = "[".repeat(MAX_REQUEST_BYTES as usize);
    let refused = http_post(http, "/eval", &body);
    assert!(refused.starts_with("HTTP/1.1 400"), "{refused}");
    assert!(refused.contains(&deep), "{refused}");

    // So do fresh connections on both transports.
    request_ok(&uds, "{\"op\":\"ping\"}").unwrap();
    let ok = http_round_trip(http, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversized_chunk_policy_is_refused_and_the_daemon_keeps_answering() {
    let dir = scratch("chunk");
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    // An executor that would simulate the point, were it accepted.
    cfg.local_executors = 1;
    cfg.out_dir = dir.clone();
    cfg.http = Some("127.0.0.1:0".into());
    let daemon = Daemon::start(cfg).expect("daemon start");
    let http = daemon.http_addr().expect("http listener bound");
    let uds = ServeAddr::Unix(daemon.socket().to_path_buf());
    let mut run = BenchRun::new(
        WorkloadKind::Bfs,
        2,
        SchedSpec::Software(PolicyKind::Chunked(16)),
    );
    run.scale = 0.05;
    let wire = run_to_json(&run).replace("chunked(16)", "chunked(1000000000000)");
    let refusal = "unknown software policy `chunked(1000000000000)`";

    let doc = request(&uds, &format!("{{\"op\":\"eval\",\"run\":{wire}}}")).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let err = doc.str_field("error").unwrap();
    assert!(err.contains(refusal), "{err}");

    let refused = http_post(http, "/eval", &format!("{{\"run\":{wire}}}"));
    assert!(refused.starts_with("HTTP/1.1 400"), "{refused}");
    assert!(refused.contains(refusal), "{refused}");

    request_ok(&uds, "{\"op\":\"ping\"}").unwrap();
    let ok = http_round_trip(http, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    assert_eq!(daemon.stats().sim_invocations.load(Ordering::Relaxed), 0);

    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
