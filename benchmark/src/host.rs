//! Host fingerprint: what a result line records about the machine, so two
//! lines can be compared only when they come from the same host and that
//! host did not drift between them.

use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The machine and checkout a run measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// The checkout's git HEAD, or `unknown` outside a git checkout.
    pub git_head: String,
}

/// Reads the fingerprint.
pub fn fingerprint() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Host {
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        git_head: git_head(&repo).unwrap_or_else(|| "unknown".into()),
    }
}

/// Resolves `.git/HEAD` to a commit id without running git.
fn git_head(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Iterations of the calibration loop: about a millisecond on the
/// reference host (see `benchmark/README.md`).
const CALIB_ITERS: u64 = 500_000;

/// Least spacing between interleaved calibration samples.
const CALIB_SPACING: Duration = Duration::from_millis(250);

/// Samples taken back to back at the start and at the end of a run.
const CALIB_EDGE_SAMPLES: usize = 5;

/// Times one run of a fixed pure-integer loop, in milliseconds.
fn calib_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..black_box(CALIB_ITERS) {
        x = (x ^ i).rotate_left(7).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host's speed over a run, from a fixed loop timed at the start, at
/// the end, and between operations throughout (at most every
/// `CALIB_SPACING`, never inside a timed region). Host time divided by
/// the loop's median is in `cal` units, which cancels the host slowing
/// down or speeding up underneath a run; the start and end readings let
/// two result lines be checked for drift.
#[derive(Debug)]
pub struct Calibration {
    state: Mutex<CalibState>,
}

#[derive(Debug)]
struct CalibState {
    last: Instant,
    start: Vec<f64>,
    samples: Vec<f64>,
}

/// A run's calibration readings, in milliseconds per loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalibSummary {
    /// Median of the samples taken at the start.
    pub start_ms: f64,
    /// Median of the samples taken at the end.
    pub end_ms: f64,
    /// Median of every sample.
    pub median_ms: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Calibration {
    /// Takes the start readings.
    pub fn start() -> Calibration {
        let start: Vec<f64> = (0..CALIB_EDGE_SAMPLES).map(|_| calib_loop_ms()).collect();
        Calibration {
            state: Mutex::new(CalibState {
                last: Instant::now(),
                samples: start.clone(),
                start,
            }),
        }
    }

    /// Takes a sample if the last one is `CALIB_SPACING` old. Call between
    /// timed operations.
    pub fn tick(&self) {
        let mut s = self.state.lock().expect("calibration lock poisoned");
        if s.last.elapsed() >= CALIB_SPACING {
            let v = calib_loop_ms();
            s.samples.push(v);
            s.last = Instant::now();
        }
    }

    /// Takes the end readings and summarizes the run.
    pub fn finish(self) -> CalibSummary {
        let mut s = self.state.into_inner().expect("calibration lock poisoned");
        let end: Vec<f64> = (0..CALIB_EDGE_SAMPLES).map(|_| calib_loop_ms()).collect();
        s.samples.extend(&end);
        CalibSummary {
            start_ms: median(&s.start),
            end_ms: median(&end),
            median_ms: median(&s.samples),
            samples: s.samples.len(),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
