//! The pull-mode remote worker.
//!
//! `minnow-serve --worker <addr>` connects *out* to a daemon, announces
//! itself with a `worker-hello`, and then inverts the conversation:
//! the daemon streams job lines down, the worker simulates each and
//! streams a journal-schema result line back. Workers hold no state the
//! daemon depends on — a worker that dies mid-evaluation simply never
//! acknowledges its job, and the daemon re-issues it to whoever pulls
//! next. Determinism makes the re-run indistinguishable, which is the
//! whole fault-tolerance story.
//!
//! [`WorkerConfig::die_after`] is deliberate fault injection for tests
//! and demos: the worker drops the connection (without acknowledging)
//! when it receives its N+1th job, simulating a mid-evaluation crash.

use std::io::BufReader;
use std::time::Instant;

use minnow_bench::eval::{EvalRequest, Evaluator, LocalEvaluator};
use minnow_bench::json_read::Json;

use crate::daemon::connect_worker;
use crate::net::{read_line_capped, write_line, LineRead, ServeAddr};
use crate::proto::{error_line, parse_job, result_line, MAX_RESPONSE_BYTES};

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The daemon to pull from (socket path or `host:port`).
    pub addr: ServeAddr,
    /// Name announced in the handshake (log cosmetics only).
    pub name: String,
    /// Fault injection: drop the connection, without acknowledging,
    /// upon receiving the job after this many completed evaluations.
    pub die_after: Option<usize>,
    /// Narrate jobs to stderr.
    pub verbose: bool,
}

impl WorkerConfig {
    /// A quiet single-threaded worker.
    pub fn new(addr: ServeAddr) -> WorkerConfig {
        WorkerConfig {
            addr,
            name: format!("worker-{}", std::process::id()),
            die_after: None,
            verbose: false,
        }
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Runs the worker loop until the daemon hangs up (clean shutdown,
/// returning the number of evaluations served) or a fault occurs.
///
/// # Errors
///
/// Returns a message for transport failures, protocol violations, and
/// the injected [`WorkerConfig::die_after`] fault.
pub fn run_worker(cfg: &WorkerConfig) -> Result<usize, String> {
    let stream = connect_worker(&cfg.addr, &cfg.name)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone {}: {e}", cfg.addr))?;
    let mut reader = BufReader::new(stream);

    // The daemon acknowledges the handshake before sending jobs.
    let ack = match read_line_capped(&mut reader, MAX_RESPONSE_BYTES) {
        Ok(LineRead::Line(l)) => l,
        _ => return Err(format!("{}: no handshake acknowledgement", cfg.addr)),
    };
    let ack = Json::parse(&ack).map_err(|e| format!("handshake parse: {e}"))?;
    if ack.get("ok").and_then(Json::as_bool) != Some(true) {
        let why = ack.get("error").and_then(Json::as_str).unwrap_or("refused");
        return Err(format!("{}: handshake rejected: {why}", cfg.addr));
    }

    let mut done = 0usize;
    loop {
        let line = match read_line_capped(&mut reader, MAX_RESPONSE_BYTES) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) => return Ok(done), // daemon shut down
            Ok(LineRead::Oversized) => return Err("oversized job line".into()),
            Err(e) => return Err(format!("read: {e}")),
        };
        let doc = Json::parse(&line).map_err(|e| format!("job parse: {e}"))?;
        let job = parse_job(&doc)?;
        if cfg.die_after == Some(done) {
            // Injected crash: vanish mid-evaluation. The daemon never
            // sees an acknowledgement and re-issues the job.
            return Err(format!(
                "{}: injected fault — dropped connection holding job `{}` after {done} evaluations",
                cfg.name, job.id
            ));
        }
        if cfg.verbose {
            eprintln!("[{}] job {} ({})", cfg.name, job.id, job.seq);
        }
        let t0 = Instant::now();
        let mut local = LocalEvaluator {
            verbose: cfg.verbose,
            tag: cfg.name.clone(),
            ..LocalEvaluator::serial()
        };
        let request = EvalRequest {
            id: job.id.clone(),
            run: job.run.clone(),
        };
        let reply = match local.evaluate(vec![request]) {
            Ok(responses) if responses.len() == 1 => result_line(
                job.seq,
                &job.id,
                &job.run,
                &responses[0].report,
                elapsed_us(t0),
            ),
            Ok(_) => error_line("job", "evaluator answered the wrong batch size"),
            Err(e) => error_line("job", &e),
        };
        write_line(&mut writer, &reply).map_err(|e| format!("write: {e}"))?;
        done += 1;
    }
}
