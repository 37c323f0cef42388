//! The resident evaluation daemon.
//!
//! [`Daemon::start`] binds a Unix domain socket (and optionally a TCP
//! HTTP listener), spawns `local_executors` simulation threads, and
//! serves `minnow-serve-proto/v1` requests until a `shutdown` op (or
//! [`Daemon::trigger_shutdown`]). Request handling is thread-per-
//! connection; the expensive part — simulation — is decoupled behind
//! the bounded [`JobQueue`], where local executors and connected
//! remote workers compete for jobs.
//!
//! Everything the daemon serves flows through [`store_key`] +
//! [`Store`] first, so repeated evaluations of the same point are
//! answered in microseconds with **zero** simulator invocations — the
//! `sim_invocations` counter in `/stats` is the proof. Sweep and
//! explore requests are assembled from the same frozen serializers the
//! direct binaries use (`point_record_json`, the journal, the frontier
//! builder), which is what makes a served artifact byte-identical to a
//! directly produced one.

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minnow_bench::eval::{
    breakdown_record_json, point_record_json, EvalRequest, EvalResponse, Evaluator,
    LocalEvaluator,
};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::runner::BenchRun;
use minnow_bench::sweep::{Sweep, SweepParams};
use minnow_explore::{
    explore_with, write_frontier_artifacts, ExploreConfig, ExploreOutcome, Space, Strategy,
};

use crate::net::{read_line_capped, write_line, CpuGate, LineRead, ServeAddr, Stream};
use crate::proto::{
    error_line, job_line, parse_result, worker_hello, MAX_REQUEST_BYTES, OPS, PROTO_SCHEMA,
};
use crate::queue::{EvalOutcome, JobQueue, QueueJob, SubmitError};
use crate::stats::ServeStats;
use crate::store::{store_key, Store, StoredEval};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Optional TCP address (`host:port`) for the HTTP/1.1 front end;
    /// port 0 binds an ephemeral port (see [`Daemon::http_addr`]).
    pub http: Option<String>,
    /// Persist the store to this JSONL file (`None`: memory-only).
    pub store_path: Option<PathBuf>,
    /// Store size cap in bytes.
    pub store_cap_bytes: u64,
    /// Open-job cap for admission control.
    pub queue_cap: usize,
    /// Local simulation threads. Zero is legal: the daemon then serves
    /// only from the store and remote workers.
    pub local_executors: usize,
    /// Inert: nothing reads it. Kept only because the `benchmark/`
    /// crate's serve workload sets it.
    pub point_threads: usize,
    /// Artifact and journal directory for sweep/explore ops.
    pub out_dir: PathBuf,
    /// Narrate requests and per-point results to stderr.
    pub verbose: bool,
}

impl ServeConfig {
    /// Defaults: no HTTP, memory-only store capped at 64 MiB, queue cap
    /// 64, one executor per host core.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            http: None,
            store_path: None,
            store_cap_bytes: 64 << 20,
            queue_cap: 64,
            local_executors: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            point_threads: 1,
            out_dir: PathBuf::from("target/minnow-serve"),
            verbose: false,
        }
    }
}

/// The journal file name the daemon's explore op uses under `out_dir`
/// — the same naming scheme as the `minnow-explore` binary, so a
/// daemon-run search and a direct one resume each other's checkpoints.
pub fn journal_filename(space: &str, strategy: &Strategy, seed: u64) -> String {
    format!("{space}.{}.s{seed}.journal.jsonl", strategy.label())
}

pub(crate) struct Inner {
    pub(crate) cfg: ServeConfig,
    pub(crate) store: Store,
    pub(crate) queue: JobQueue,
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) shutdown: AtomicBool,
    /// Gauge: connected remote workers.
    pub(crate) workers: AtomicU64,
    /// The HTTP listener's bound address, once known.
    pub(crate) http_addr: Mutex<Option<std::net::SocketAddr>>,
    /// The host's CPUs, held by running simulations and spinning
    /// connections.
    pub(crate) cpus: CpuGate,
}

/// One handled request: the response line plus transport hints.
pub(crate) struct OpOutcome {
    /// The JSON response line (no newline).
    pub(crate) line: String,
    /// The HTTP status this response maps to (NDJSON ignores it).
    pub(crate) status: u16,
    /// Retry-after hint in milliseconds (admission rejections).
    pub(crate) retry_after_ms: Option<u64>,
    /// The request asked the daemon to shut down.
    pub(crate) shutdown: bool,
}

impl OpOutcome {
    fn ok(line: String) -> OpOutcome {
        OpOutcome {
            line,
            status: 200,
            retry_after_ms: None,
            shutdown: false,
        }
    }

    fn err(op: &str, error: &str) -> OpOutcome {
        OpOutcome {
            line: error_line(op, error),
            status: 400,
            retry_after_ms: None,
            shutdown: false,
        }
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

enum EvalFailure {
    /// Admission control turned the request away; carries open jobs.
    Busy(usize),
    Error(String),
}

impl Inner {
    /// Evaluates one run: store first, then the queue.
    fn evaluate_one(
        &self,
        namespace: &str,
        id: &str,
        run: BenchRun,
        block: bool,
    ) -> Result<EvalResponse, EvalFailure> {
        let t0 = Instant::now();
        let key = store_key(namespace, &run).map_err(EvalFailure::Error)?;
        if let Some(hit) = self.store.get(&key) {
            return Ok(EvalResponse {
                id: id.to_string(),
                report: hit.report,
                wall_us: elapsed_us(t0),
                cached: true,
            });
        }
        let rx = self
            .queue
            .submit(
                EvalRequest {
                    id: id.to_string(),
                    run,
                },
                key,
                block,
            )
            .map_err(|e| match e {
                SubmitError::Full(open) => EvalFailure::Busy(open),
                SubmitError::Shutdown => EvalFailure::Error("daemon shutting down".into()),
            })?;
        let stored = rx
            .recv()
            .map_err(|_| EvalFailure::Error("daemon shutting down".into()))?
            .map_err(EvalFailure::Error)?;
        Ok(EvalResponse {
            id: id.to_string(),
            report: stored.report,
            wall_us: elapsed_us(t0),
            cached: false,
        })
    }

    /// Dispatches one parsed request line.
    pub(crate) fn handle_doc(self: &Arc<Inner>, doc: &Json) -> OpOutcome {
        ServeStats::bump(&self.stats.requests);
        let op = match doc.str_field("op") {
            Ok(op) => op,
            Err(e) => return OpOutcome::err("?", &e),
        };
        if self.cfg.verbose {
            eprintln!("[serve] op {op}");
        }
        match op {
            "ping" => OpOutcome::ok(
                JsonObject::new()
                    .bool("ok", true)
                    .str("op", "ping")
                    .str("proto", PROTO_SCHEMA)
                    .finish(),
            ),
            "eval" => self.op_eval(doc),
            "sweep" => match self.op_sweep(doc) {
                Ok(line) => OpOutcome::ok(line),
                Err(e) => OpOutcome::err("sweep", &e),
            },
            "explore" => match self.op_explore(doc) {
                Ok(line) => OpOutcome::ok(line),
                Err(e) => OpOutcome::err("explore", &e),
            },
            "stats" => OpOutcome::ok(self.op_stats()),
            "shutdown" => OpOutcome {
                line: JsonObject::new()
                    .bool("ok", true)
                    .str("op", "shutdown")
                    .finish(),
                status: 200,
                retry_after_ms: None,
                shutdown: true,
            },
            other => OpOutcome::err(
                other,
                &format!("unknown op `{other}` (one of {})", OPS.join(", ")),
            ),
        }
    }

    fn op_eval(self: &Arc<Inner>, doc: &Json) -> OpOutcome {
        let namespace = doc.get("space").and_then(Json::as_str).unwrap_or("adhoc");
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("eval");
        let run = match doc.get("run") {
            Some(run_doc) => match minnow_bench::eval::run_from_json(run_doc) {
                Ok(run) => run,
                Err(e) => return OpOutcome::err("eval", &format!("run: {e}")),
            },
            None => return OpOutcome::err("eval", "missing `run` object"),
        };
        match self.evaluate_one(namespace, id, run, false) {
            // One buffer with room for the whole reply.
            Ok(resp) => OpOutcome::ok(
                JsonObject::with_capacity(1024 + resp.id.len())
                    .bool("ok", true)
                    .str("op", "eval")
                    .str("id", &resp.id)
                    .bool("cached", resp.cached)
                    .u64("wall_us", resp.wall_us)
                    .object("report", |o| resp.report.fields(o))
                    .finish(),
            ),
            Err(EvalFailure::Busy(open)) => {
                let retry_ms = (open as u64 * 250).clamp(250, 5000);
                OpOutcome {
                    line: JsonObject::new()
                        .bool("ok", false)
                        .str("op", "eval")
                        .str("error", "queue full")
                        .u64("open_jobs", open as u64)
                        .u64("retry_after_ms", retry_ms)
                        .finish(),
                    status: 429,
                    retry_after_ms: Some(retry_ms),
                    shutdown: false,
                }
            }
            Err(EvalFailure::Error(e)) => OpOutcome::err("eval", &e),
        }
    }

    fn op_sweep(self: &Arc<Inner>, doc: &Json) -> Result<String, String> {
        let name = doc.str_field("sweep")?.to_string();
        // The request names the sweep: the daemon's own environment
        // never fills a field the client left out.
        let mut params = SweepParams::DEFAULT;
        if let Some(v) = doc.get("scale") {
            params.scale = v.as_f64().ok_or("non-numeric `scale`")?;
        }
        if let Some(v) = doc.get("seed") {
            params.seed = v.as_u64().ok_or("non-integer `seed`")?;
        }
        if let Some(v) = doc.get("headline_threads") {
            params.headline_threads = v.as_u64().ok_or("non-integer `headline_threads`")? as usize;
        }
        if let Some(v) = doc.get("max_threads") {
            params.max_threads = v.as_u64().ok_or("non-integer `max_threads`")? as usize;
        }
        let sweep = Sweep::named(&name, &params).ok_or_else(|| {
            format!("unknown sweep `{name}` (one of {})", Sweep::NAMES.join(", "))
        })?;
        let mut points = sweep.points;
        if let Some(v) = doc.get("filter") {
            let filter = v.as_str().ok_or("non-string `filter`")?;
            points.retain(|p| p.id.contains(filter));
        }
        let t0 = Instant::now();
        let mut evaluator = DaemonEvaluator {
            inner: self,
            namespace: format!("sweep/{name}"),
        };
        let requests = points
            .iter()
            .map(|p| EvalRequest {
                id: p.id.clone(),
                run: p.run.clone(),
            })
            .collect();
        let responses = evaluator.evaluate(requests)?;
        let mut jsonl = String::new();
        let mut breakdown = String::new();
        for (point, resp) in points.iter().zip(&responses) {
            jsonl.push_str(&point_record_json(&name, &point.id, &point.run, &resp.report));
            jsonl.push('\n');
            breakdown.push_str(&breakdown_record_json(&name, &point.id, &resp.report));
            breakdown.push('\n');
        }
        let cached = responses.iter().filter(|r| r.cached).count();
        Ok(JsonObject::new()
            .bool("ok", true)
            .str("op", "sweep")
            .str("sweep", &name)
            .u64("points", points.len() as u64)
            .u64("cached", cached as u64)
            .u64("fresh", (points.len() - cached) as u64)
            .u64("wall_us", elapsed_us(t0))
            .str("jsonl", &jsonl)
            .str("breakdown", &breakdown)
            .finish())
    }

    fn op_explore(self: &Arc<Inner>, doc: &Json) -> Result<String, String> {
        let name = doc.str_field("space")?.to_string();
        let space = Space::named(&name).ok_or_else(|| {
            format!("unknown space `{name}` (one of {})", Space::NAMES.join(", "))
        })?;
        let kind = doc
            .get("strategy")
            .and_then(Json::as_str)
            .unwrap_or("halving")
            .to_string();
        let samples = doc
            .get("samples")
            .and_then(Json::as_u64)
            .unwrap_or(8) as usize;
        let eta = doc.get("eta").and_then(Json::as_u64).unwrap_or(2) as usize;
        let strategy = Strategy::from_flags(&kind, samples, eta)?;
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(42);
        let max_fresh = doc
            .get("max_fresh")
            .and_then(Json::as_u64)
            .map(|n| n as usize);
        let journal_path = self
            .cfg
            .out_dir
            .join(journal_filename(&space.name, &strategy, seed));
        let pool = (self.cfg.local_executors + self.workers.load(Ordering::Relaxed) as usize)
            .max(1);
        let cfg = ExploreConfig {
            space,
            strategy,
            seed,
            pool_threads: pool,
            max_fresh_evals: max_fresh,
            journal_path,
            verbose: self.cfg.verbose,
        };
        let mut evaluator = DaemonEvaluator {
            inner: self,
            namespace: format!("space/{}", cfg.space.name),
        };
        match explore_with(&cfg, &mut evaluator).map_err(|e| e.to_string())? {
            ExploreOutcome::Complete {
                frontier,
                fresh,
                resumed,
            } => {
                write_frontier_artifacts(&self.cfg.out_dir, &frontier)
                    .map_err(|e| format!("writing frontier: {e}"))?;
                Ok(JsonObject::new()
                    .bool("ok", true)
                    .str("op", "explore")
                    .str("space", &cfg.space.name)
                    .str("status", "complete")
                    .u64("fresh", fresh as u64)
                    .u64("resumed", resumed as u64)
                    .u64("evaluated", frontier.evaluated as u64)
                    .str("frontier_jsonl", &frontier.to_jsonl())
                    .str("table", &frontier.table())
                    .finish())
            }
            ExploreOutcome::Paused {
                fresh,
                resumed,
                wave,
                remaining_in_wave,
            } => Ok(JsonObject::new()
                .bool("ok", true)
                .str("op", "explore")
                .str("space", &cfg.space.name)
                .str("status", "paused")
                .u64("fresh", fresh as u64)
                .u64("resumed", resumed as u64)
                .u64("wave", wave as u64)
                .u64("remaining_in_wave", remaining_in_wave as u64)
                .finish()),
        }
    }

    fn op_stats(&self) -> String {
        let store = JsonObject::new()
            .u64("entries", self.store.len() as u64)
            .u64("bytes", self.store.bytes())
            .u64("cap_bytes", self.store.cap_bytes())
            .bool("persistent", self.store.path().is_some())
            .finish();
        let queue = JsonObject::new()
            .u64("pending", self.queue.pending() as u64)
            .u64("open", self.queue.open_jobs() as u64)
            .u64("cap", self.cfg.queue_cap as u64)
            .finish();
        JsonObject::new()
            .bool("ok", true)
            .str("op", "stats")
            .str("proto", PROTO_SCHEMA)
            .raw("serve_stats", &self.stats.to_json())
            .raw("store", &store)
            .raw("queue", &queue)
            .u64("workers", self.workers.load(Ordering::Relaxed))
            .u64("local_executors", self.cfg.local_executors as u64)
            .finish()
    }

    /// Idempotent shutdown: fail queued work, then poke both listeners
    /// loose with self-connections.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.shutdown();
        let _ = std::os::unix::net::UnixStream::connect(&self.cfg.socket);
        if let Some(addr) = *self.http_addr.lock().unwrap() {
            let _ = std::net::TcpStream::connect(addr);
        }
    }
}

/// The daemon's own [`Evaluator`]: store lookup, then a blocking submit
/// to the shared queue. Sweep and explore ops run the stock artifact
/// logic through this, which is how served artifacts stay
/// byte-identical to direct ones.
struct DaemonEvaluator<'a> {
    inner: &'a Arc<Inner>,
    namespace: String,
}

impl Evaluator for DaemonEvaluator<'_> {
    fn evaluate(&mut self, batch: Vec<EvalRequest>) -> Result<Vec<EvalResponse>, String> {
        let mut out: Vec<Option<EvalResponse>> = (0..batch.len()).map(|_| None).collect();
        let mut waiting = Vec::new();
        for (i, req) in batch.into_iter().enumerate() {
            let t0 = Instant::now();
            let key = store_key(&self.namespace, &req.run)?;
            if let Some(hit) = self.inner.store.get(&key) {
                out[i] = Some(EvalResponse {
                    id: req.id,
                    report: hit.report,
                    wall_us: elapsed_us(t0),
                    cached: true,
                });
                continue;
            }
            let id = req.id.clone();
            let rx = self
                .inner
                .queue
                .submit(req, key, true)
                .map_err(|_| "daemon shutting down".to_string())?;
            waiting.push((i, id, t0, rx));
        }
        for (i, id, t0, rx) in waiting {
            let stored = rx
                .recv()
                .map_err(|_| "daemon shutting down".to_string())??;
            out[i] = Some(EvalResponse {
                id,
                report: stored.report,
                wall_us: elapsed_us(t0),
                cached: false,
            });
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every request answered"))
            .collect())
    }
}

/// A local executor: pull, simulate, memoize, acknowledge.
fn executor_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.next() {
        ServeStats::bump(&inner.stats.sim_invocations);
        let outcome = {
            let _cpu = inner.cpus.occupy();
            run_local(inner, &job)
        };
        if let Ok(stored) = &outcome {
            inner.store.insert(&job.key, stored);
        }
        inner.queue.complete(job.seq, &outcome);
    }
}

fn run_local(inner: &Arc<Inner>, job: &QueueJob) -> EvalOutcome {
    let t0 = Instant::now();
    let mut local = LocalEvaluator {
        verbose: inner.cfg.verbose,
        tag: "serve".into(),
        ..LocalEvaluator::serial()
    };
    let request = job.request.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        local.evaluate(vec![request])
    }));
    match result {
        Ok(Ok(mut responses)) if responses.len() == 1 => {
            let resp = responses.pop().expect("length checked");
            Ok(StoredEval {
                report: resp.report,
                sim_wall_us: elapsed_us(t0),
            })
        }
        Ok(Ok(_)) => Err("evaluator answered the wrong batch size".into()),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("simulation panicked".into()),
    }
}

/// Feeds jobs to one connected worker until it drops or the daemon
/// shuts down. An unacknowledged job is re-issued through the queue.
fn worker_feeder(
    inner: &Arc<Inner>,
    reader: &mut std::io::BufReader<Stream>,
    writer: &mut Stream,
    hello: &Json,
) {
    let proto = hello.get("proto").and_then(Json::as_str).unwrap_or("?");
    if proto != PROTO_SCHEMA {
        let _ = write_line(
            writer,
            &error_line(
                "worker-hello",
                &format!("worker speaks `{proto}`, daemon speaks `{PROTO_SCHEMA}`"),
            ),
        );
        return;
    }
    let name = hello
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("worker")
        .to_string();
    let ack = JsonObject::new()
        .bool("ok", true)
        .str("op", "worker-hello")
        .str("proto", PROTO_SCHEMA)
        .finish();
    if write_line(writer, &ack).is_err() {
        return;
    }
    inner.workers.fetch_add(1, Ordering::Relaxed);
    if inner.cfg.verbose {
        eprintln!("[serve] worker `{name}` connected");
    }
    while let Some(job) = inner.queue.next() {
        if write_line(writer, &job_line(job.seq, &job.request.id, &job.request.run)).is_err() {
            inner.queue.requeue(job);
            break;
        }
        match read_line_capped(reader, MAX_REQUEST_BYTES) {
            Ok(LineRead::Line(line)) => {
                let parsed = Json::parse(&line)
                    .map_err(|e| e.to_string())
                    .and_then(|doc| {
                        // A worker that cannot run the job reports an
                        // error object instead of a result record.
                        if let Some(err) = doc.get("error").and_then(Json::as_str) {
                            return Err(format!("worker `{name}`: {err}"));
                        }
                        parse_result(&doc).map_err(|e| format!("worker `{name}`: {e}"))
                    });
                match parsed {
                    Ok(msg) if msg.seq == job.seq => {
                        let stored = StoredEval {
                            report: msg.report,
                            sim_wall_us: msg.wall_us,
                        };
                        inner.store.insert(&job.key, &stored);
                        ServeStats::bump(&inner.stats.worker_results);
                        inner.queue.complete(job.seq, &Ok(stored));
                    }
                    Ok(_) => {
                        // Acknowledgement for the wrong job: the stream
                        // is desynchronized. Re-issue and drop the
                        // worker.
                        inner.queue.requeue(job);
                        break;
                    }
                    Err(e) => {
                        // The worker answered but could not evaluate:
                        // fail this evaluation rather than retrying a
                        // deterministic failure forever.
                        inner.queue.complete(job.seq, &Err(e));
                    }
                }
            }
            _ => {
                // EOF, oversize, or transport error mid-evaluation: the
                // job was never acknowledged — re-issue it.
                inner.queue.requeue(job);
                break;
            }
        }
    }
    inner.workers.fetch_sub(1, Ordering::Relaxed);
    if inner.cfg.verbose {
        eprintln!("[serve] worker `{name}` disconnected");
    }
}

/// Serves one NDJSON connection (client or worker).
fn serve_conn(inner: Arc<Inner>, stream: Stream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    loop {
        // A closed-loop client sends its next request soon after the
        // last reply: catch it without a wake-up while CPUs are free.
        if inner.cpus.spin_for_input(&mut reader).is_err() {
            return;
        }
        match read_line_capped(&mut reader, MAX_REQUEST_BYTES) {
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let doc = match Json::parse(&line) {
                    Ok(doc) => doc,
                    Err(e) => {
                        let reply = error_line("?", &format!("parse: {e}"));
                        if write_line(&mut writer, &reply).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                if doc.get("op").and_then(Json::as_str) == Some("worker-hello") {
                    worker_feeder(&inner, &mut reader, &mut writer, &doc);
                    return;
                }
                let outcome = inner.handle_doc(&doc);
                let write_ok = write_line(&mut writer, &outcome.line).is_ok();
                if outcome.shutdown {
                    inner.begin_shutdown();
                    return;
                }
                if !write_ok {
                    return;
                }
            }
            Ok(LineRead::Oversized) => {
                // The rest of the line is still in flight; the stream
                // cannot be re-synchronized. Reply and hang up.
                let reply = error_line(
                    "?",
                    &format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                let _ = write_line(&mut writer, &reply);
                return;
            }
            Ok(LineRead::Eof) | Err(_) => return,
        }
    }
}

/// A running daemon: the in-process handle tests and binaries hold.
pub struct Daemon {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listeners, spawns the executors, and starts serving.
    ///
    /// # Errors
    ///
    /// Returns a message when a listener cannot bind, another daemon
    /// already serves the socket, or the store file is unreadable.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, String> {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("out dir {}: {e}", cfg.out_dir.display()))?;
        if cfg.socket.exists() {
            if std::os::unix::net::UnixStream::connect(&cfg.socket).is_ok() {
                return Err(format!(
                    "a daemon is already serving {}",
                    cfg.socket.display()
                ));
            }
            std::fs::remove_file(&cfg.socket)
                .map_err(|e| format!("stale socket {}: {e}", cfg.socket.display()))?;
        }
        if let Some(parent) = cfg.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("socket dir {}: {e}", parent.display()))?;
            }
        }
        let stats = Arc::new(ServeStats::new());
        let store = Store::open(
            cfg.store_path.clone(),
            cfg.store_cap_bytes,
            Arc::clone(&stats),
        )?;
        let queue = JobQueue::new(cfg.queue_cap, Arc::clone(&stats));
        let listener = UnixListener::bind(&cfg.socket)
            .map_err(|e| format!("bind {}: {e}", cfg.socket.display()))?;
        let inner = Arc::new(Inner {
            cfg,
            store,
            queue,
            stats,
            shutdown: AtomicBool::new(false),
            workers: AtomicU64::new(0),
            http_addr: Mutex::new(None),
            cpus: CpuGate::new(std::thread::available_parallelism().map_or(1, |n| n.get())),
        });

        let mut threads = Vec::new();
        for i in 0..inner.cfg.local_executors {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || executor_loop(&inner))
                    .map_err(|e| format!("spawning executor: {e}"))?,
            );
        }
        if let Some(http) = inner.cfg.http.clone() {
            let listener = std::net::TcpListener::bind(http.as_str())
                .map_err(|e| format!("bind http {http}: {e}"))?;
            *inner.http_addr.lock().unwrap() = listener.local_addr().ok();
            let inner2 = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-http".into())
                    .spawn(move || crate::http::accept_loop(inner2, listener))
                    .map_err(|e| format!("spawning http listener: {e}"))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || {
                        for conn in listener.incoming() {
                            if inner.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(sock) = conn else { continue };
                            let inner = Arc::clone(&inner);
                            // Connection threads are detached: they end
                            // when their peer hangs up.
                            let _ = std::thread::Builder::new()
                                .name("serve-conn".into())
                                .spawn(move || serve_conn(inner, Stream::Unix(sock)));
                        }
                    })
                    .map_err(|e| format!("spawning accept loop: {e}"))?,
            );
        }
        Ok(Daemon { inner, threads })
    }

    /// The daemon's counter block.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.inner.stats)
    }

    /// The Unix socket the daemon serves.
    pub fn socket(&self) -> &std::path::Path {
        &self.inner.cfg.socket
    }

    /// The HTTP listener's bound address, when one was configured
    /// (resolves port 0 to the real ephemeral port).
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        *self.inner.http_addr.lock().unwrap()
    }

    /// Initiates shutdown as if a `shutdown` op had arrived.
    pub fn trigger_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits for shutdown to finish, prints the counter summary to
    /// stderr, and removes the socket file.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
        eprintln!("{}", self.inner.stats.summary());
    }
}

/// Sends a worker handshake greeting on `addr` — shared by
/// [`crate::worker`] and kept here so the daemon and worker halves of
/// the protocol live next to each other in review.
pub(crate) fn connect_worker(addr: &ServeAddr, name: &str) -> Result<Stream, String> {
    let stream = addr
        .connect()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone {addr}: {e}"))?;
    write_line(&mut writer, &worker_hello(name)).map_err(|e| format!("hello {addr}: {e}"))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::net::SPIN;
    use minnow_algos::WorkloadKind;
    use minnow_bench::eval::EvalReport;
    use std::time::Duration;

    /// A daemon with one executor on a fresh socket under a scratch dir.
    fn daemon(name: &str) -> (Daemon, ServeAddr, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("minnow-serve-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig::new(dir.join("serve.sock"));
        cfg.local_executors = 1;
        cfg.out_dir = dir.clone();
        let daemon = Daemon::start(cfg).unwrap();
        let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
        (daemon, addr, dir)
    }

    fn eval_line(seed: u64) -> String {
        let mut run = BenchRun::minnow(WorkloadKind::Bfs, 2);
        run.scale = 0.05;
        run.seed = seed;
        JsonObject::new()
            .str("op", "eval")
            .str("id", "p")
            .raw("run", &minnow_bench::eval::run_to_json(&run))
            .finish()
    }

    #[test]
    fn a_request_later_than_the_spin_bound_is_still_read() {
        let (daemon, addr, dir) = daemon("late");
        let mut client = Client::connect(&addr).unwrap();
        let t0 = Instant::now();
        let cold = client.request(&eval_line(5)).unwrap();
        assert!(t0.elapsed() > SPIN, "a cold eval outlasts the spin");
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));
        // The connection thread gives up its spin and blocks; the next
        // request still gets through.
        std::thread::sleep(SPIN * 20);
        let warm = client.request(&eval_line(5)).unwrap();
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
        drop(client);
        daemon.trigger_shutdown();
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_while_a_connection_idles_in_the_spin_window_is_prompt() {
        let (daemon, addr, dir) = daemon("idle");
        let mut client = Client::connect(&addr).unwrap();
        // The connection thread now polls for a next request.
        client.request("{\"op\":\"ping\"}").unwrap();
        let t0 = Instant::now();
        daemon.trigger_shutdown();
        daemon.join();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        // The idle connection left its spin in blocking mode: it waits
        // for and answers another request.
        let doc = client.request("{\"op\":\"ping\"}").unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sweep_request_without_parameters_enumerates_the_fixed_defaults() {
        let (daemon, _, dir) = daemon("defaults");
        for name in ["fig15", "fig16"] {
            // Store every expected point, so a request that enumerates
            // them is answered without simulating anything.
            let sweep = Sweep::named(name, &SweepParams::DEFAULT).unwrap();
            let points: Vec<_> = sweep
                .points
                .iter()
                .filter(|p| p.id.contains("/TC/"))
                .collect();
            let mut want = String::new();
            for (i, point) in points.iter().enumerate() {
                let report = EvalReport {
                    makespan: 1 + i as u64,
                    ..EvalReport::default()
                };
                let key = store_key(&format!("sweep/{name}"), &point.run).unwrap();
                let stored = StoredEval {
                    report: report.clone(),
                    sim_wall_us: 1,
                };
                daemon.inner.store.insert(&key, &stored);
                want.push_str(&point_record_json(name, &point.id, &point.run, &report));
                want.push('\n');
            }
            let request = format!("{{\"op\":\"sweep\",\"sweep\":\"{name}\",\"filter\":\"/TC/\"}}");
            let request = Json::parse(&request).unwrap();
            let reply = Json::parse(&daemon.inner.handle_doc(&request).line).unwrap();
            assert_eq!(reply.u64_field("fresh"), Ok(0), "{name}");
            assert_eq!(reply.u64_field("points"), Ok(points.len() as u64), "{name}");
            assert_eq!(reply.str_field("jsonl"), Ok(want.as_str()), "{name}");
        }
        daemon.trigger_shutdown();
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_hits_reply_with_the_bytes_a_miss_renders() {
        let (daemon, _, dir) = daemon("bytes");
        let doc = Json::parse(&eval_line(9)).unwrap();
        let cold = daemon.inner.handle_doc(&doc).line;
        let warm = daemon.inner.handle_doc(&doc).line;
        // Equal apart from `cached` and `wall_us`.
        let strip = |line: &str| {
            let (head, rest) = line.split_once(",\"wall_us\":").unwrap();
            let report = &rest[rest.find(',').unwrap()..];
            format!(
                "{}{report}",
                head.replace("\"cached\":false", "\"cached\":true")
            )
        };
        assert!(cold.contains("\"cached\":false") && warm.contains("\"cached\":true"));
        assert_eq!(strip(&cold), strip(&warm));
        daemon.trigger_shutdown();
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_filenames_match_the_explore_binary() {
        let halving = Strategy::from_flags("halving", 8, 2).unwrap();
        assert_eq!(
            journal_filename("smoke", &halving, 42),
            format!("smoke.{}.s42.journal.jsonl", halving.label())
        );
        let grid = Strategy::from_flags("grid", 8, 2).unwrap();
        assert_eq!(
            journal_filename("credits-bfs", &grid, 7),
            "credits-bfs.grid.s7.journal.jsonl"
        );
    }
}
