//! Parameter-space declaration.
//!
//! A [`Space`] names the axes a search may move along — workload,
//! engine thread count, worklist-directed-prefetch credit ceiling, L2
//! geometry, engine local-queue depth and spill/refill threshold — plus
//! the ascending ladder of input scales ("rungs") successive halving
//! promotes survivors across. Enumerating a space yields one software
//! baseline per (workload, threads) pair followed by the cartesian
//! candidate grid, all in a deterministic order that the journal, the
//! strategies, and the frontier artifact share.

use minnow_algos::WorkloadKind;
use minnow_bench::json::{escape, number};
use minnow_bench::runner::{BenchRun, InputSpec, SchedSpec};
use minnow_bench::sweep::derive_seed;
use minnow_core::area::{self, AreaEstimate, Process};
use minnow_sim::config::EngineParams;

/// One rung of the promotion ladder: either a generated-input scale
/// factor or an external graph file (`@path` in space files) every
/// configuration is measured on.
#[derive(Debug, Clone, PartialEq)]
pub enum Rung {
    /// Generated Table 1 analogues at this scale factor.
    Scale(f64),
    /// An external input file — any `minnow_graph::io::GraphSource`
    /// format, including on-disk CSR images.
    Input(String),
}

impl Rung {
    /// The scale recorded in journals and artifacts: the factor for
    /// scale rungs, `0.0` for input rungs (the graph defines its own
    /// size; the record's `id`/`rung` identify it).
    pub fn scale_value(&self) -> f64 {
        match self {
            Rung::Scale(s) => *s,
            Rung::Input(_) => 0.0,
        }
    }

    /// JSON value for header/artifact serialization: scale rungs keep
    /// their frozen six-decimal number form; input rungs are strings.
    pub fn json_value(&self) -> String {
        match self {
            Rung::Scale(s) => number(*s),
            Rung::Input(p) => format!("\"{}\"", escape(p)),
        }
    }

    /// Parses a space-file token: `@path` is an input rung, anything
    /// else must be a scale factor.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token.
    pub fn parse_token(tok: &str) -> Result<Rung, String> {
        if let Some(path) = tok.strip_prefix('@') {
            if path.is_empty() {
                return Err("input rung `@` needs a path".into());
            }
            Ok(Rung::Input(path.to_string()))
        } else {
            tok.parse()
                .map(Rung::Scale)
                .map_err(|e| format!("rung `{tok}`: {e}"))
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Scale(s) => write!(f, "{s}"),
            Rung::Input(p) => write!(f, "@{p}"),
        }
    }
}

/// A declared design space.
#[derive(Debug, Clone, PartialEq)]
pub struct Space {
    /// Space name (journal headers and artifact names carry it).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadKind>,
    /// Simulated core / engine-thread-count axis.
    pub threads: Vec<usize>,
    /// Prefetch-credit axis; `None` is Minnow without prefetching.
    pub credits: Vec<Option<u32>>,
    /// Per-core L2 capacity axis, in KB.
    pub l2_kb: Vec<usize>,
    /// L2 associativity (fixed per space; the paper's is 8).
    pub l2_ways: usize,
    /// Engine local-task-queue depth axis (entries).
    pub local_queue: Vec<usize>,
    /// Engine refill/spill threshold axis (entries; must stay below
    /// every `local_queue` value).
    pub refill: Vec<usize>,
    /// Ascending input rungs; the last rung is the full-fidelity
    /// input every final candidate is measured at. Scale rungs must
    /// ascend; `@path` input rungs may appear anywhere in the ladder.
    pub rungs: Vec<Rung>,
}

/// Candidate-specific axis values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateParams {
    /// Prefetch credits (`None` = offload only).
    pub credits: Option<u32>,
    /// L2 capacity in KB.
    pub l2_kb: usize,
    /// Engine local-queue entries.
    pub local_queue: usize,
    /// Engine refill threshold entries.
    pub refill: usize,
}

/// What a configuration is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The software scheduler this workload/thread pair is normalized
    /// against (area zero; speedup one by definition).
    Baseline,
    /// A Minnow hardware configuration under evaluation.
    Candidate(CandidateParams),
}

/// One enumerable configuration of the space.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    /// Stable identifier, e.g. `BFS/t4/c32/l2-16k/lq64/r16`.
    pub id: String,
    /// Workload.
    pub workload: WorkloadKind,
    /// Simulated cores (= engines for candidates).
    pub threads: usize,
    /// Baseline or candidate axes.
    pub role: Role,
    /// L2 associativity inherited from the space.
    pub l2_ways: usize,
}

impl ConfigPoint {
    /// Whether this is the software baseline.
    pub fn is_baseline(&self) -> bool {
        matches!(self.role, Role::Baseline)
    }

    /// The id of the baseline this configuration is normalized against.
    pub fn baseline_id(&self) -> String {
        format!("{}/t{}/baseline", self.workload.name(), self.threads)
    }

    /// Builds the simulator configuration for this point at `rung`.
    /// The input seed derives from `(sweep_seed, workload)` exactly as
    /// the sweep runner's does, so every configuration of one workload
    /// runs the same graph; input rungs load the same cached file.
    pub fn bench_run(&self, rung: &Rung, sweep_seed: u64) -> BenchRun {
        let mut run = match self.role {
            Role::Baseline => BenchRun::software_default(self.workload, self.threads),
            Role::Candidate(p) => {
                let mut run = BenchRun::new(
                    self.workload,
                    self.threads,
                    SchedSpec::Minnow {
                        wdp_credits: p.credits,
                    },
                );
                run.l2 = Some((p.l2_kb * 1024, self.l2_ways));
                let mut engine = EngineParams::paper();
                engine.local_queue = p.local_queue;
                engine.refill_threshold = p.refill;
                run.engine = Some(engine);
                run
            }
        };
        match rung {
            Rung::Scale(s) => run.scale = *s,
            Rung::Input(path) => {
                run.scale = 0.0;
                run.input = Some(InputSpec::new(path));
            }
        }
        run.seed = derive_seed(sweep_seed, self.workload.name());
        run
    }

    /// The §5.4 area of this configuration's engines (`None` for the
    /// baseline, which has no Minnow hardware).
    pub fn area(&self, process: Process) -> Option<AreaEstimate> {
        match self.role {
            Role::Baseline => None,
            Role::Candidate(p) => {
                let mut engine = EngineParams::paper();
                engine.local_queue = p.local_queue;
                engine.refill_threshold = p.refill;
                let l2_lines = p.l2_kb * 1024 / 64;
                Some(area::machine_estimate(&engine, l2_lines, self.threads, 1, process))
            }
        }
    }

    /// Total engine area in mm² at 14nm; `0.0` for the baseline. The
    /// frontier's cost axis, and successive halving's pruning classes.
    pub fn area_mm2(&self) -> f64 {
        self.area(Process::Nm14).map_or(0.0, |a| a.total_mm2())
    }
}

impl Space {
    /// Names [`Space::named`] resolves.
    pub const NAMES: [&'static str; 3] = ["smoke", "golden-fig16", "credits-bfs"];

    /// A built-in space by name; `None` for unknown names.
    pub fn named(name: &str) -> Option<Space> {
        match name {
            "smoke" => Some(Space::smoke()),
            "golden-fig16" => Some(Space::golden_fig16()),
            "credits-bfs" => Some(Space::credits_bfs()),
            _ => None,
        }
    }

    /// A tiny space for CI smoke and tests: three BFS candidates, two
    /// rungs.
    pub fn smoke() -> Space {
        Space {
            name: "smoke".into(),
            workloads: vec![WorkloadKind::Bfs],
            threads: vec![2],
            credits: vec![None, Some(16), Some(64)],
            l2_kb: vec![16],
            l2_ways: 8,
            local_queue: vec![64],
            refill: vec![16],
            rungs: vec![Rung::Scale(0.02), Rung::Scale(0.05)],
        }
    }

    /// The golden Fig. 16-style space the halving-vs-grid acceptance
    /// test pins: one workload, a credit ladder crossed with two L2
    /// capacities, three rungs.
    pub fn golden_fig16() -> Space {
        Space {
            name: "golden-fig16".into(),
            workloads: vec![WorkloadKind::Bfs],
            threads: vec![4],
            credits: vec![None, Some(4), Some(32), Some(128)],
            l2_kb: vec![8, 16],
            l2_ways: 8,
            local_queue: vec![64],
            refill: vec![16],
            rungs: vec![Rung::Scale(0.01), Rung::Scale(0.08)],
        }
    }

    /// A broader credit/sizing space over BFS for real exploration runs
    /// (the EXPERIMENTS.md walkthrough).
    pub fn credits_bfs() -> Space {
        Space {
            name: "credits-bfs".into(),
            workloads: vec![WorkloadKind::Bfs],
            threads: vec![4, 8],
            credits: vec![None, Some(8), Some(32), Some(128)],
            l2_kb: vec![8, 16, 32],
            l2_ways: 8,
            local_queue: vec![16, 64],
            refill: vec![8],
            rungs: vec![Rung::Scale(0.02), Rung::Scale(0.06), Rung::Scale(0.15)],
        }
    }

    /// Validates axis sanity: every axis non-empty, rungs ascending and
    /// positive, refill thresholds below every local-queue depth, L2
    /// geometry divisible.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(['/', ' ']) {
            return Err(format!("space name `{}` must be non-empty without '/' or spaces", self.name));
        }
        for (axis, empty) in [
            ("workloads", self.workloads.is_empty()),
            ("threads", self.threads.is_empty()),
            ("credits", self.credits.is_empty()),
            ("l2_kb", self.l2_kb.is_empty()),
            ("local_queue", self.local_queue.is_empty()),
            ("refill", self.refill.is_empty()),
            ("rungs", self.rungs.is_empty()),
        ] {
            if empty {
                return Err(format!("axis `{axis}` is empty"));
            }
        }
        let scales: Vec<f64> = self
            .rungs
            .iter()
            .filter_map(|r| match r {
                Rung::Scale(s) => Some(*s),
                Rung::Input(_) => None,
            })
            .collect();
        if !scales.windows(2).all(|w| w[0] < w[1])
            || scales.first().is_some_and(|&s| s <= 0.0)
        {
            return Err("rungs must be positive and strictly ascending".into());
        }
        if self.rungs.iter().any(|r| matches!(r, Rung::Input(p) if p.is_empty())) {
            return Err("input rungs need a non-empty path".into());
        }
        for &kb in &self.l2_kb {
            if kb == 0 || !(kb * 1024).is_multiple_of(self.l2_ways * 64) {
                return Err(format!(
                    "l2_kb {kb} is not a multiple of ways*line ({}x64B)",
                    self.l2_ways
                ));
            }
        }
        let min_queue = *self.local_queue.iter().min().expect("non-empty");
        for &r in &self.refill {
            if r == 0 || r >= min_queue {
                return Err(format!(
                    "refill threshold {r} must be in 1..{min_queue} (smallest local queue)"
                ));
            }
        }
        if self.threads.iter().any(|&t| t == 0 || t > 64) {
            return Err("threads must be in 1..=64".into());
        }
        Ok(())
    }

    /// Every configuration of the space in enumeration order: baselines
    /// first (one per workload × threads), then the candidate grid with
    /// the last axis varying fastest.
    pub fn configs(&self) -> Vec<ConfigPoint> {
        let mut out = Vec::new();
        for &kind in &self.workloads {
            for &threads in &self.threads {
                out.push(ConfigPoint {
                    id: format!("{}/t{threads}/baseline", kind.name()),
                    workload: kind,
                    threads,
                    role: Role::Baseline,
                    l2_ways: self.l2_ways,
                });
            }
        }
        for &kind in &self.workloads {
            for &threads in &self.threads {
                for &credits in &self.credits {
                    for &l2_kb in &self.l2_kb {
                        for &local_queue in &self.local_queue {
                            for &refill in &self.refill {
                                let c = match credits {
                                    None => "no".to_string(),
                                    Some(c) => c.to_string(),
                                };
                                out.push(ConfigPoint {
                                    id: format!(
                                        "{}/t{threads}/c{c}/l2-{l2_kb}k/lq{local_queue}/r{refill}",
                                        kind.name()
                                    ),
                                    workload: kind,
                                    threads,
                                    role: Role::Candidate(CandidateParams {
                                        credits,
                                        l2_kb,
                                        local_queue,
                                        refill,
                                    }),
                                    l2_ways: self.l2_ways,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses a space file: `key = value[,value...]` lines, `#`
    /// comments. Keys: `name`, `workloads` (sssp|bfs|g500|cc|pr|tc|bc),
    /// `threads`, `credits` (`none` or an integer), `l2_kb`, `l2_ways`,
    /// `local_queue`, `refill`, `rungs` (scale factors and/or `@path`
    /// external inputs). Missing keys fall back to the
    /// smoke space's single-value axes; `name`, `workloads`, and
    /// `rungs` are required.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered description of the first malformed entry
    /// or failed validation.
    pub fn parse(text: &str) -> Result<Space, String> {
        let mut space = Space::smoke();
        space.name = String::new();
        let mut saw_workloads = false;
        let mut saw_rungs = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`".into()))?;
            let values: Vec<&str> = value.split(',').map(str::trim).collect();
            let ints = |flag: &str| -> Result<Vec<usize>, String> {
                values
                    .iter()
                    .map(|v| v.parse().map_err(|e| at(format!("{flag}: `{v}`: {e}"))))
                    .collect()
            };
            match key.trim() {
                "name" => space.name = value.trim().to_string(),
                "workloads" => {
                    space.workloads = values
                        .iter()
                        .map(|v| WorkloadKind::parse(v).ok_or_else(|| at(format!("unknown workload `{v}`"))))
                        .collect::<Result<_, _>>()?;
                    saw_workloads = true;
                }
                "threads" => space.threads = ints("threads")?,
                "credits" => {
                    space.credits = values
                        .iter()
                        .map(|v| {
                            if *v == "none" {
                                Ok(None)
                            } else {
                                v.parse().map(Some).map_err(|e| at(format!("credits: `{v}`: {e}")))
                            }
                        })
                        .collect::<Result<_, _>>()?;
                }
                "l2_kb" => space.l2_kb = ints("l2_kb")?,
                "l2_ways" => {
                    space.l2_ways = *ints("l2_ways")?
                        .first()
                        .ok_or_else(|| at("l2_ways needs a value".into()))?;
                }
                "local_queue" => space.local_queue = ints("local_queue")?,
                "refill" => space.refill = ints("refill")?,
                "rungs" => {
                    space.rungs = values
                        .iter()
                        .map(|v| Rung::parse_token(v).map_err(|e| at(format!("rungs: {e}"))))
                        .collect::<Result<_, _>>()?;
                    saw_rungs = true;
                }
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }
        if space.name.is_empty() {
            return Err("space file must set `name`".into());
        }
        if !saw_workloads {
            return Err("space file must set `workloads`".into());
        }
        if !saw_rungs {
            return Err("space file must set `rungs`".into());
        }
        space.validate()?;
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn named_spaces_validate_and_enumerate_unique_ids() {
        for name in Space::NAMES {
            let space = Space::named(name).unwrap();
            space.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let configs = space.configs();
            let ids: HashSet<&str> = configs.iter().map(|c| c.id.as_str()).collect();
            assert_eq!(ids.len(), configs.len(), "{name}: duplicate ids");
            let baselines = configs.iter().filter(|c| c.is_baseline()).count();
            assert_eq!(baselines, space.workloads.len() * space.threads.len());
            // Every candidate's baseline is in the enumeration.
            for c in &configs {
                assert!(ids.contains(c.baseline_id().as_str()), "{} lacks baseline", c.id);
            }
        }
        assert!(Space::named("nope").is_none());
    }

    #[test]
    fn bench_runs_share_graphs_and_carry_overrides() {
        let space = Space::golden_fig16();
        let configs = space.configs();
        let rung = Rung::Scale(0.05);
        let seeds: HashSet<u64> = configs.iter().map(|c| c.bench_run(&rung, 7).seed).collect();
        assert_eq!(seeds.len(), 1, "one workload = one shared graph seed");
        let candidate = configs.iter().find(|c| !c.is_baseline()).unwrap();
        let run = candidate.bench_run(&rung, 7);
        assert!(run.l2.is_some() && run.engine.is_some());
        assert_eq!(run.scale, 0.05);
        assert_eq!(run.input, None);
        let baseline = configs.iter().find(|c| c.is_baseline()).unwrap();
        let brun = baseline.bench_run(&rung, 7);
        assert!(brun.l2.is_none() && brun.engine.is_none());
        assert_eq!(brun.seed, run.seed);
        let irun = candidate.bench_run(&Rung::Input("g.mcsr".into()), 7);
        assert_eq!(irun.scale, 0.0);
        assert_eq!(irun.input, Some(InputSpec::new("g.mcsr")));
        assert_eq!(irun.seed, run.seed);
    }

    #[test]
    fn rung_tokens_parse_render_and_serialize() {
        assert_eq!(Rung::parse_token("0.05"), Ok(Rung::Scale(0.05)));
        assert_eq!(
            Rung::parse_token("@graphs/road.mcsr"),
            Ok(Rung::Input("graphs/road.mcsr".into()))
        );
        assert!(Rung::parse_token("@").is_err());
        assert!(Rung::parse_token("fast").is_err());
        assert_eq!(Rung::Scale(0.05).to_string(), "0.05");
        assert_eq!(Rung::Input("a/b.el".into()).to_string(), "@a/b.el");
        assert_eq!(Rung::Scale(0.05).json_value(), "0.050000");
        assert_eq!(Rung::Input("a\"b".into()).json_value(), "\"a\\\"b\"");
        assert_eq!(Rung::Scale(0.05).scale_value(), 0.05);
        assert_eq!(Rung::Input("x".into()).scale_value(), 0.0);
    }

    #[test]
    fn input_rungs_validate_and_parse_in_space_files() {
        let mut space = Space::smoke();
        space.rungs = vec![Rung::Scale(0.02), Rung::Input("big.mcsr".into())];
        space.validate().unwrap();
        space.rungs = vec![Rung::Input(String::new())];
        assert!(space.validate().is_err());
        let text = "\
name = real
workloads = bfs
rungs = 0.02, @graphs/road.mcsr
";
        let parsed = Space::parse(text).unwrap();
        assert_eq!(
            parsed.rungs,
            vec![Rung::Scale(0.02), Rung::Input("graphs/road.mcsr".into())]
        );
        assert!(Space::parse("name = x\nworkloads = bfs\nrungs = @").is_err());
    }

    #[test]
    fn area_is_zero_for_baseline_and_grows_with_l2() {
        let space = Space::golden_fig16();
        let configs = space.configs();
        let baseline = configs.iter().find(|c| c.is_baseline()).unwrap();
        assert_eq!(baseline.area_mm2(), 0.0);
        let small = configs.iter().find(|c| c.id.contains("/l2-8k/")).unwrap();
        let large = configs.iter().find(|c| c.id.contains("/l2-16k/")).unwrap();
        assert!(small.area_mm2() > 0.0);
        assert!(large.area_mm2() > small.area_mm2());
    }

    #[test]
    fn parse_round_trips_a_space_file() {
        let text = "\
# a custom space
name = my-space
workloads = bfs, cc
threads = 2,4
credits = none, 8, 32
l2_kb = 8,16
l2_ways = 8
local_queue = 32
refill = 8
rungs = 0.01, 0.05
";
        let space = Space::parse(text).unwrap();
        assert_eq!(space.name, "my-space");
        assert_eq!(space.workloads, vec![WorkloadKind::Bfs, WorkloadKind::Cc]);
        assert_eq!(space.credits, vec![None, Some(8), Some(32)]);
        assert_eq!(space.configs().len(), 2 * 2 + 2 * 2 * 3 * 2);
        for bad in [
            "workloads = bfs\nrungs = 0.1",                       // no name
            "name = x\nrungs = 0.1",                              // no workloads
            "name = x\nworkloads = bfs",                          // no rungs
            "name = x\nworkloads = bfs\nrungs = 0.1, 0.05",       // descending
            "name = x\nworkloads = warp\nrungs = 0.1",            // unknown workload
            "name = x\nworkloads = bfs\nrungs = 0.1\nrefill = 99", // refill >= queue
            "name = x\nworkloads = bfs\nrungs = 0.1\nwat = 1",    // unknown key
        ] {
            assert!(Space::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
