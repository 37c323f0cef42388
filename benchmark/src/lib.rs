//! # minnow-benchmark — the repository's end-to-end benchmark
//!
//! Four workloads, one per path a user of the reproduction waits on:
//!
//! * `fig16` — the 21-point Fig. 16 sweep (software / Minnow / WDP at 16
//!   simulated cores). WDP points take about half its host time.
//! * `fig15` — the 105-point Fig. 15 scalability sweep (serial / Galois /
//!   Minnow at 1–64 simulated cores). No WDP, so a WDP change must leave
//!   it unchanged.
//! * `ingest` — an RMAT edge list through the external-sort ingest into a
//!   CSR image, then the image loaded by mmap and by buffered reads. The
//!   simulator is not involved.
//! * `serve` — an in-process `minnow-serve` daemon driven by a closed loop
//!   over one socket: distinct (cold) evaluations, then repeats served
//!   from the memo store (warm).
//!
//! Every run checks its outputs (golden digests, cross-pass identity,
//! traced-equals-untraced), counts failures against attempts, and reports
//! the metrics `BENCHMARK.json` names. See `benchmark/README.md`.

pub mod compare;
pub mod golden;
pub mod host;
pub mod ingest;
pub mod output;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::golden::Golden;
use crate::host::{CalibSummary, Calibration};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 16 sweep.
    Fig16,
    /// The Fig. 15 sweep.
    Fig15,
    /// Edge-list ingest and image loads.
    Ingest,
    /// The evaluation daemon, cold and warm.
    Serve,
}

impl Workload {
    /// Every workload, in the order the all-workloads mode runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig16,
        Workload::Fig15,
        Workload::Ingest,
        Workload::Serve,
    ];

    /// The workload's name on the command line and in result lines.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig16 => "fig16",
            Workload::Fig15 => "fig15",
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is what the benchmark measures; `quick` shrinks
/// every workload so all four finish in seconds (tests, smoke runs).
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `full` or `quick`; part of every golden key.
    pub name: &'static str,
    /// Fig. 16 input scale.
    pub fig16_scale: f64,
    /// Fig. 15 input scale.
    pub fig15_scale: f64,
    /// Largest simulated core count in the Fig. 15 sweep.
    pub fig15_max_threads: usize,
    /// RMAT scale of the ingest edge list (2^scale nodes, 16 edges each).
    pub rmat_scale: u32,
    /// External-sort memory budget of the ingest.
    pub ingest_budget_bytes: usize,
    /// Input scale of the served BFS evaluations.
    pub serve_scale: f64,
    /// Distinct (cold) evaluations per serve round.
    pub serve_cold: usize,
    /// Repeated (warm) evaluations per serve round.
    pub serve_warm: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Sizes {
        Sizes {
            name: "full",
            fig16_scale: 0.3,
            fig15_scale: 0.2,
            fig15_max_threads: 64,
            rmat_scale: 18,
            ingest_budget_bytes: 8 << 20,
            serve_scale: 0.2,
            serve_cold: 200,
            serve_warm: 50_000,
        }
    }

    /// Tiny inputs for tests and smoke runs.
    pub fn quick() -> Sizes {
        Sizes {
            name: "quick",
            fig16_scale: 0.03,
            fig15_scale: 0.02,
            fig15_max_threads: 8,
            rmat_scale: 12,
            ingest_budget_bytes: 256 << 10,
            serve_scale: 0.03,
            serve_cold: 10,
            serve_warm: 500,
        }
    }
}

/// Set-up repetitions whose median is `setup_s`.
pub(crate) const SETUP_REPS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement budget. Each workload completes at least one full
    /// pass even when the budget is shorter.
    pub seconds: Duration,
    /// Run the traced pass (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for files and sockets (created and removed by
    /// the caller).
    pub work_dir: PathBuf,
}

impl Options {
    /// Key of this run's entries in the golden table.
    pub fn golden_case(&self) -> String {
        format!("{}/{}", self.sizes.name, self.workload.name())
    }
}

/// Correctness bookkeeping: every checked operation counts as attempted;
/// each wrong or failed one adds a message.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Checks a computed digest against the golden table, when the table
    /// has an entry for this case and seed.
    pub fn golden(&mut self, golden: &Golden, case: &str, seed: u64, digest: u64) {
        if let Some(want) = golden.get(case, seed) {
            self.check(want == digest, || {
                format!("{case} seed {seed}: digest {digest:016x}, golden {want:016x}")
            });
        }
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub tally: Tally,
    /// Every measured value by name: the metrics `BENCHMARK.json` lists
    /// plus workload detail that only the record line carries.
    pub values: BTreeMap<String, f64>,
    /// Digest of the run's deterministic output (sweep JSONL, image
    /// checksum); what the golden table pins.
    pub digest: Option<u64>,
    /// The host's speed over the run.
    pub calib: CalibSummary,
}

impl Outcome {
    /// Records a value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// Runs one workload: its set-up, then either the timed pass or the
/// traced pass, with every output check.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all (for example a
/// socket that does not bind). Wrong outputs are not errors: they are
/// counted in [`Outcome::tally`].
pub fn run(opts: &Options, golden: &Golden) -> Result<Outcome, String> {
    let cal = Calibration::start();
    let mut out = match opts.workload {
        Workload::Fig16 | Workload::Fig15 => sweep::run(opts, golden, &cal)?,
        Workload::Ingest => ingest::run(opts, golden, &cal)?,
        Workload::Serve => serve::run(opts, &cal)?,
    };
    out.calib = cal.finish();
    out.put("peak_rss_mb", host::peak_rss_mb());
    if let Some(&geomean) = out.values.get("op_geomean_ms") {
        out.put("op_geomean_cal", geomean / out.calib.median_ms);
    }
    Ok(out)
}

/// Host milliseconds of a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub(crate) fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// `num / den`, 0 when `den` is 0 (a layer the workload did not run).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
