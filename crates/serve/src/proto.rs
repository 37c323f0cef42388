//! The `minnow-serve-proto/v1` wire schema.
//!
//! Every message is one line of JSON. Clients open a connection to the
//! daemon and send request objects (`{"op":...}`); the daemon answers
//! each with exactly one response object (`{"ok":true,...}` or
//! `{"ok":false,"error":...}`). A connection that sends
//! `{"op":"worker-hello"}` flips into the *worker protocol*: the
//! direction reverses and the daemon streams job lines down while the
//! worker streams result lines up.
//!
//! Worker result lines are deliberately **journal-schema compatible**:
//! the flat fields are exactly a `minnow-explore-journal/v1`
//! [`EvalRecord`], with the full wire [`EvalReport`] nested under
//! `report`. Anything that can read an exploration journal can read a
//! worker's result stream.

use minnow_bench::eval::{run_from_json, run_to_json, EvalReport};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::runner::BenchRun;
use minnow_explore::EvalRecord;

/// Protocol identifier, echoed by `ping`, `stats`, and worker
/// handshakes.
pub const PROTO_SCHEMA: &str = "minnow-serve-proto/v1";

/// Largest request line the daemon will buffer (1 MiB — the biggest
/// legitimate request is a single run object, well under 4 KiB).
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Largest response line a client will buffer (a served sweep returns
/// whole artifacts inline).
pub const MAX_RESPONSE_BYTES: u64 = 64 << 20;

/// The ops a client may open with.
pub const OPS: [&str; 6] = ["ping", "eval", "sweep", "explore", "stats", "shutdown"];

/// A uniform error response line.
pub fn error_line(op: &str, error: &str) -> String {
    JsonObject::new()
        .bool("ok", false)
        .str("op", op)
        .str("error", error)
        .finish()
}

/// The rung index encoded in an exploration request id (`<id>@r<k>`),
/// or 0: the field worker result lines report for journal
/// compatibility.
pub fn rung_of(id: &str) -> usize {
    id.rsplit_once("@r")
        .and_then(|(_, k)| k.parse().ok())
        .unwrap_or(0)
}

/// One job pushed to a worker.
#[derive(Debug, Clone)]
pub struct JobMsg {
    /// Acknowledgement key (the daemon queue's sequence number).
    pub seq: u64,
    /// The request's point id.
    pub id: String,
    /// The configuration to simulate.
    pub run: BenchRun,
}

/// Renders a job line for the worker stream.
pub fn job_line(seq: u64, id: &str, run: &BenchRun) -> String {
    JsonObject::new()
        .str("op", "job")
        .u64("seq", seq)
        .str("id", id)
        .raw("run", &run_to_json(run))
        .finish()
}

/// Parses a job line.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn parse_job(doc: &Json) -> Result<JobMsg, String> {
    if doc.str_field("op")? != "job" {
        return Err("not a job line".into());
    }
    Ok(JobMsg {
        seq: doc.u64_field("seq")?,
        id: doc.str_field("id")?.to_string(),
        run: run_from_json(doc.get("run").ok_or("missing `run`")?)?,
    })
}

/// One result streamed back by a worker.
#[derive(Debug, Clone)]
pub struct ResultMsg {
    /// Echoed acknowledgement key.
    pub seq: u64,
    /// Echoed point id.
    pub id: String,
    /// The deterministic outcome.
    pub report: EvalReport,
    /// Worker-side simulation wall microseconds.
    pub wall_us: u64,
}

/// Renders a worker result line: a `minnow-explore-journal/v1` record
/// (seq = the job's ack key) with the full report nested under
/// `report`.
pub fn result_line(seq: u64, id: &str, run: &BenchRun, report: &EvalReport, wall_us: u64) -> String {
    JsonObject::new()
        .u64("seq", seq)
        .str("id", id)
        .u64("rung", rung_of(id) as u64)
        .f64("scale", run.scale)
        .u64("seed", run.seed)
        .u64("makespan", report.makespan)
        .u64("tasks", report.tasks)
        .u64("instructions", report.instructions)
        .u64("l2_misses", report.l2_misses)
        .u64("mem_accesses", report.mem_accesses)
        .bool("timed_out", report.timed_out)
        .u64("wall_us", wall_us)
        .object("report", |o| report.fields(o))
        .finish()
}

/// Parses a worker result line, validating the journal-compatible flat
/// record along the way.
///
/// # Errors
///
/// Returns a message naming the malformed field, or a cross-check
/// failure between the flat record and the nested report.
pub fn parse_result(doc: &Json) -> Result<ResultMsg, String> {
    // The flat fields must parse as a journal record — that *is* the
    // compatibility contract.
    let record = EvalRecord::from_json(doc)?;
    let report = EvalReport::from_json(doc.get("report").ok_or("missing `report`")?)?;
    if record.makespan != report.makespan || record.tasks != report.tasks {
        return Err(format!(
            "result line disagrees with its nested report \
             (makespan {} vs {}, tasks {} vs {})",
            record.makespan, report.makespan, record.tasks, report.tasks
        ));
    }
    Ok(ResultMsg {
        seq: record.seq,
        id: record.id,
        report,
        wall_us: record.wall_us,
    })
}

/// Renders the worker handshake line.
pub fn worker_hello(name: &str) -> String {
    JsonObject::new()
        .str("op", "worker-hello")
        .str("proto", PROTO_SCHEMA)
        .str("name", name)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_algos::WorkloadKind;
    use minnow_bench::sweep::derive_seed;

    #[test]
    fn job_lines_round_trip_exact_seeds() {
        let mut run = BenchRun::minnow_wdp(WorkloadKind::Sssp, 4);
        run.seed = derive_seed(42, "SSSP"); // full 64-bit value
        run.scale = 0.1;
        let line = job_line(9, "credits/SSSP/c32@r1", &run);
        let doc = Json::parse(&line).unwrap();
        let job = parse_job(&doc).unwrap();
        assert_eq!(job.seq, 9);
        assert_eq!(job.id, "credits/SSSP/c32@r1");
        assert_eq!(job.run.seed, run.seed, "seed survives the wire exactly");
        assert_eq!(run_to_json(&job.run), run_to_json(&run));
    }

    #[test]
    fn result_lines_are_journal_records_with_a_report_attached() {
        let mut run = BenchRun::minnow(WorkloadKind::Bfs, 2);
        run.scale = 0.25;
        run.seed = derive_seed(7, "BFS");
        let report = EvalReport {
            makespan: 1234,
            tasks: 56,
            instructions: 789,
            l2_misses: 10,
            mem_accesses: 20,
            ..EvalReport::default()
        };
        let line = result_line(3, "fig16/BFS/minnow@r2", &run, &report, 4242);
        let doc = Json::parse(&line).unwrap();

        // The compatibility contract: the flat fields parse as a
        // journal EvalRecord with the id's rung index.
        let record = EvalRecord::from_json(&doc).unwrap();
        assert_eq!(record.seq, 3);
        assert_eq!(record.rung, 2);
        assert_eq!(record.seed, run.seed);
        assert_eq!(record.makespan, 1234);
        assert_eq!(record.wall_us, 4242);

        let msg = parse_result(&doc).unwrap();
        assert_eq!(msg.report, report);

        // Tampering with the nested report is caught.
        let tampered = line.replace("\"makespan\":1234,\"tasks\":56,\"instructions\":789,\"timed_out\":false", "\"makespan\":1,\"tasks\":56,\"instructions\":789,\"timed_out\":false");
        assert_ne!(tampered, line, "tamper target found");
        let doc = Json::parse(&tampered).unwrap();
        assert!(parse_result(&doc).is_err());
    }

    #[test]
    fn rung_suffix_parsing_tolerates_plain_ids() {
        assert_eq!(rung_of("fig16/BFS/minnow@r2"), 2);
        assert_eq!(rung_of("plain-id"), 0);
        assert_eq!(rung_of("tricky@rat"), 0);
    }
}
