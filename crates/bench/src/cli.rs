//! Shared command-line helpers for the `minnow-*` binaries.
//!
//! Every binary in this repository hand-rolls its flag loop (the build
//! environment has no argument-parsing crate); the loops themselves are
//! tiny, but the supporting plumbing — pulling a flag's value, parsing
//! it with a readable error, writing an artifact with its parent
//! directories — is shared here, and so are the two flag vocabularies
//! more than one binary speaks: the point flags that configure one
//! [`BenchRun`] ([`PointFlags`], for `minnow-run` and `minnow-client
//! eval`) and the external-input flags ([`InputFlags`], for `minnow-run`
//! and `minnow-sweep`).

use std::str::FromStr;

use minnow_graph::image::LoadMode;
use minnow_graph::io::GraphSource;
use minnow_runtime::PolicyKind;

use crate::runner::{BenchRun, InputSpec, SchedSpec};

/// A stream of command-line arguments (everything after the program
/// name) with flag-value helpers that produce uniform error messages.
#[derive(Debug)]
pub struct ArgStream {
    args: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        ArgStream {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// A stream over explicit arguments (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        ArgStream {
            args: args.into_iter(),
        }
    }

    /// The next raw argument, if any.
    #[allow(clippy::should_implement_trait)] // flag loops call it directly
    pub fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following a flag, or a uniform "requires a value" error.
    ///
    /// # Errors
    ///
    /// Returns an error naming `flag` when the stream is exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following a flag, parsed; errors name the flag and echo
    /// the offending text.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is missing or fails to parse.
    pub fn parse<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|e| format!("{flag}: invalid value `{raw}`: {e}"))
    }

    /// Like [`ArgStream::parse`], additionally rejecting values below
    /// `min` (flag loops use this for `--threads`-style counts).
    ///
    /// # Errors
    ///
    /// Returns an error when the value is missing, malformed, or `< min`.
    pub fn parse_at_least(&mut self, flag: &str, min: u64) -> Result<u64, String> {
        let v: u64 = self.parse(flag)?;
        if v < min {
            return Err(format!("{flag} must be at least {min}"));
        }
        Ok(v)
    }
}

/// Writes `doc` to `path`, creating parent directories as needed (the
/// artifact-writing idiom every binary shares).
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_with_parents(path: &str, doc: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc)
}

/// The point flags, parsed in any order and applied together by
/// [`PointFlags::apply`] to a [`BenchRun`] that carries the calling
/// binary's defaults.
#[derive(Debug, Default)]
pub struct PointFlags {
    threads: Option<usize>,
    scale: Option<f64>,
    seed: Option<u64>,
    sched: Option<String>,
    credits: Option<u32>,
    policy: Option<String>,
}

impl PointFlags {
    /// Usage lines for the point flags; each binary states its own
    /// defaults beside them.
    pub const USAGE: &'static str = "  --threads N      simulated cores, 1..=64
  --scale X        generated-input scale factor
  --seed N         generator seed
  --sched KIND     software | minnow | wdp | bsp
  --credits N      prefetch credits for --sched wdp (default 32)
  --policy NAME    worklist policy for --sched software:
                   fifo | lifo | chunked | obim | strict
                   (default: the workload's paper policy)
";

    /// Takes `flag`, and its value from `argv`, when it is a point flag.
    /// Returns `Ok(false)`, consuming nothing, for any other flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag when its value is missing or
    /// malformed.
    pub fn accept(&mut self, flag: &str, argv: &mut ArgStream) -> Result<bool, String> {
        match flag {
            "--threads" => {
                let n = argv.parse_at_least(flag, 1)?;
                if n > 64 {
                    return Err("--threads must be in 1..=64".into());
                }
                self.threads = Some(n as usize);
            }
            "--scale" => self.scale = Some(argv.parse(flag)?),
            "--seed" => self.seed = Some(argv.parse(flag)?),
            "--sched" => self.sched = Some(argv.value(flag)?),
            "--credits" => match argv.parse::<u32>(flag)? {
                0 => return Err("--credits must be at least 1".into()),
                n => self.credits = Some(n),
            },
            "--policy" => self.policy = Some(argv.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the flags to `run`, whose workload and fields are the
    /// binary's defaults. `--sched` replaces the scheduler; `--credits`
    /// then sets a WDP scheduler's budget and `--policy` a software
    /// scheduler's worklist.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown scheduler or policy, and for
    /// `--credits` or `--policy` with a scheduler they do not apply to.
    pub fn apply(self, run: &mut BenchRun) -> Result<(), String> {
        run.threads = self.threads.unwrap_or(run.threads);
        run.scale = self.scale.unwrap_or(run.scale);
        run.seed = self.seed.unwrap_or(run.seed);
        if let Some(name) = self.sched {
            run.sched = match name.as_str() {
                "software" => SchedSpec::Software(run.kind.build_policy()),
                "minnow" => SchedSpec::Minnow { wdp_credits: None },
                "wdp" => SchedSpec::Minnow {
                    wdp_credits: Some(32),
                },
                "bsp" => SchedSpec::Bsp(None),
                other => return Err(format!("unknown scheduler `{other}`")),
            };
        }
        if let Some(credits) = self.credits {
            let SchedSpec::Minnow {
                wdp_credits: Some(slot),
            } = &mut run.sched
            else {
                return Err("--credits applies to --sched wdp only".into());
            };
            *slot = credits;
        }
        if let Some(name) = self.policy {
            let SchedSpec::Software(slot) = &mut run.sched else {
                return Err("--policy applies to --sched software only".into());
            };
            *slot = match name.as_str() {
                "fifo" => PolicyKind::Fifo,
                "lifo" => PolicyKind::Lifo,
                "chunked" => PolicyKind::Chunked(16),
                "obim" => PolicyKind::Obim(run.kind.lg_bucket()),
                "strict" => PolicyKind::Strict,
                other => return Err(format!("unknown policy `{other}`")),
            };
        }
        Ok(())
    }
}

/// The external-input flags: `--input PATH`, `--input-format F` and
/// `--input-mode M`, parsed in any order into an [`InputSpec`].
#[derive(Debug, Default)]
pub struct InputFlags {
    path: Option<String>,
    format: Option<GraphSource>,
    mode: Option<LoadMode>,
}

impl InputFlags {
    /// Usage lines for the input flags.
    pub const USAGE: &'static str =
        "  --input PATH     run on this graph file instead of a generated input:
                   an edge list, Matrix Market, Graph500 binary, DIMACS,
                   or a minnow-csr-image file (format detected from the
                   extension)
  --input-format F override format detection: edge-list | matrix-market |
                   graph500 | dimacs | image (aliases: el, tsv, mtx, g500,
                   bin, gr, mcsr)
  --input-mode M   how to load an image input: auto (default) | mmap | read
";

    /// Takes `flag`, and its value from `argv`, when it is an input flag.
    /// Returns `Ok(false)`, consuming nothing, for any other flag.
    ///
    /// # Errors
    ///
    /// Returns an error for a missing value or an unknown format or mode.
    pub fn accept(&mut self, flag: &str, argv: &mut ArgStream) -> Result<bool, String> {
        match flag {
            "--input" => self.path = Some(argv.value(flag)?),
            "--input-format" => {
                let s = argv.value(flag)?;
                self.format =
                    Some(GraphSource::parse(&s).ok_or_else(|| format!("unknown {flag} `{s}`"))?);
            }
            "--input-mode" => {
                let s = argv.value(flag)?;
                self.mode =
                    Some(LoadMode::parse(&s).ok_or_else(|| format!("unknown {flag} `{s}`"))?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The input the flags name; `None` without `--input`.
    ///
    /// # Errors
    ///
    /// Returns an error when `--input-format` or `--input-mode` is given
    /// without `--input`.
    pub fn finish(self) -> Result<Option<InputSpec>, String> {
        match self.path {
            Some(path) => Ok(Some(InputSpec {
                path: path.into(),
                format: self.format,
                mode: self.mode.unwrap_or_default(),
            })),
            None if self.format.is_some() || self.mode.is_some() => {
                Err("--input-format and --input-mode need --input".into())
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_algos::WorkloadKind;

    fn stream(args: &[&str]) -> ArgStream {
        ArgStream::from_vec(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_and_parse_consume_in_order() {
        let mut s = stream(&["8", "0.25", "hello"]);
        assert_eq!(s.parse::<usize>("--threads").unwrap(), 8);
        assert_eq!(s.parse::<f64>("--scale").unwrap(), 0.25);
        assert_eq!(s.value("--out").unwrap(), "hello");
        assert_eq!(s.value("--seed").unwrap_err(), "--seed requires a value");
    }

    #[test]
    fn parse_errors_name_the_flag_and_value() {
        let mut s = stream(&["abc"]);
        let err = s.parse::<u64>("--seed").unwrap_err();
        assert!(err.starts_with("--seed: invalid value `abc`"), "{err}");
    }

    #[test]
    fn parse_at_least_enforces_the_floor() {
        let mut s = stream(&["0", "3"]);
        assert!(s.parse_at_least("--threads", 1).is_err());
        assert_eq!(s.parse_at_least("--threads", 1).unwrap(), 3);
    }

    /// Runs `args` through the point flags onto `run`; a flag they do
    /// not take is an error, as in a binary's flag loop.
    fn apply_point(args: &[&str], mut run: BenchRun) -> Result<BenchRun, String> {
        let mut argv = stream(args);
        let mut flags = PointFlags::default();
        while let Some(flag) = argv.next() {
            if !flags.accept(&flag, &mut argv)? {
                return Err(format!("unknown flag `{flag}`"));
            }
        }
        flags.apply(&mut run)?;
        Ok(run)
    }

    fn bfs_wdp() -> BenchRun {
        BenchRun::minnow_wdp(WorkloadKind::Bfs, 8)
    }

    #[test]
    fn point_flags_keep_the_binary_defaults_when_absent() {
        let run = apply_point(&[], bfs_wdp()).unwrap();
        assert_eq!(run.threads, 8);
        assert_eq!(run.sched.label(), "minnow-wdp32");
        assert_eq!((run.scale, run.seed), (bfs_wdp().scale, bfs_wdp().seed));
    }

    #[test]
    fn point_flags_apply_in_any_order() {
        let a = [
            "--credits",
            "16",
            "--sched",
            "wdp",
            "--threads",
            "2",
            "--scale",
            "0.05",
            "--seed",
            "7",
        ];
        let b = [
            "--seed",
            "7",
            "--scale",
            "0.05",
            "--threads",
            "2",
            "--sched",
            "wdp",
            "--credits",
            "16",
        ];
        for args in [a, b] {
            let run = apply_point(&args, BenchRun::minnow(WorkloadKind::Cc, 4)).unwrap();
            assert_eq!(run.sched.label(), "minnow-wdp16");
            assert_eq!((run.threads, run.scale, run.seed), (2, 0.05, 7));
        }
        // `--credits` alone retunes a binary whose default is WDP.
        let run = apply_point(&["--credits", "64"], bfs_wdp()).unwrap();
        assert_eq!(run.sched.label(), "minnow-wdp64");
    }

    #[test]
    fn point_flags_name_every_scheduler_and_policy() {
        for (sched, label) in [
            ("software", "software-obim(0)"),
            ("minnow", "minnow"),
            ("wdp", "minnow-wdp32"),
            ("bsp", "bsp"),
        ] {
            let run = apply_point(&["--sched", sched], bfs_wdp()).unwrap();
            assert_eq!(run.sched.label(), label, "--sched {sched}");
        }
        for (policy, label) in [
            ("fifo", "software-fifo"),
            ("lifo", "software-lifo"),
            ("chunked", "software-chunked(16)"),
            ("obim", "software-obim(3)"),
            ("strict", "software-strict"),
        ] {
            let args = ["--sched", "software", "--policy", policy];
            let run = apply_point(&args, BenchRun::minnow(WorkloadKind::Sssp, 2)).unwrap();
            assert_eq!(run.sched.label(), label, "--policy {policy}");
        }
    }

    #[test]
    fn point_flags_refuse_what_they_cannot_apply() {
        let refused: [(&[&str], &str); 8] = [
            (&["--sched", "minnow-wdp"], "unknown scheduler `minnow-wdp`"),
            (
                &["--sched", "software", "--policy", "random"],
                "unknown policy `random`",
            ),
            (
                &["--sched", "minnow", "--credits", "8"],
                "--credits applies to --sched wdp only",
            ),
            (
                &["--policy", "fifo"],
                "--policy applies to --sched software only",
            ),
            (&["--threads", "0"], "--threads must be at least 1"),
            (&["--threads", "65"], "--threads must be in 1..=64"),
            (&["--credits", "0"], "--credits must be at least 1"),
            (&["--graph", "g.gr"], "unknown flag `--graph`"),
        ];
        for (args, want) in refused {
            assert_eq!(apply_point(args, bfs_wdp()).unwrap_err(), want, "{args:?}");
        }
    }

    #[test]
    fn accept_leaves_other_flags_and_their_values_alone() {
        let mut argv = stream(&["--json", "--space", "x"]);
        let (mut point, mut input) = (PointFlags::default(), InputFlags::default());
        let flag = argv.next().unwrap();
        assert!(!point.accept(&flag, &mut argv).unwrap());
        assert!(!input.accept(&flag, &mut argv).unwrap());
        assert_eq!(argv.next().as_deref(), Some("--space"));
    }

    #[test]
    fn input_flags_build_a_spec_in_any_order() {
        let parse = |args: &[&str]| {
            let mut argv = stream(args);
            let mut flags = InputFlags::default();
            while let Some(flag) = argv.next() {
                assert!(flags.accept(&flag, &mut argv)?, "{flag}");
            }
            flags.finish()
        };
        assert_eq!(parse(&[]).unwrap(), None);
        assert_eq!(
            parse(&["--input", "g.txt"]).unwrap(),
            Some(InputSpec::new("g.txt"))
        );
        let spec = parse(&[
            "--input-mode",
            "read",
            "--input-format",
            "mtx",
            "--input",
            "g.bin",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(spec.format, Some(GraphSource::MatrixMarket));
        assert_eq!(spec.mode, LoadMode::Read);
        assert_eq!(
            parse(&["--input-format", "xml"]).unwrap_err(),
            "unknown --input-format `xml`"
        );
        assert_eq!(
            parse(&["--input", "g", "--input-mode", "lazy"]).unwrap_err(),
            "unknown --input-mode `lazy`"
        );
        assert_eq!(
            parse(&["--input-mode", "read"]).unwrap_err(),
            "--input-format and --input-mode need --input"
        );
    }

    #[test]
    fn write_with_parents_creates_directories() {
        let dir = std::env::temp_dir().join(format!("minnow-cli-test-{}", std::process::id()));
        let path = dir.join("a/b/doc.json");
        write_with_parents(path.to_str().unwrap(), "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
