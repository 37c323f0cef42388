//! Experiment runner: one entry point for every scheduler/machine
//! configuration the figures sweep.

use std::sync::Arc;

use minnow_algos::WorkloadKind;
use minnow_core::area::{self, AreaEstimate, Process};
use minnow_core::offload::{MinnowConfig, MinnowScheduler};
use minnow_sim::config::EngineParams;
use minnow_graph::image::GraphImage;
use minnow_graph::Csr;
use minnow_prefetch::{Imp, StridePrefetcher};
use minnow_runtime::bsp::{run_bsp, BspConfig};
use minnow_runtime::sim_exec::{run, run_with_prefetcher, ExecConfig, RunReport};
use minnow_runtime::{PolicyKind, SoftwareScheduler};
use minnow_sim::core::CoreMode;
use minnow_sim::hierarchy::MemoryHierarchy;
use minnow_sim::observer::HwPrefetcher;
use minnow_sim::trace::Tracer;

/// Which scheduler/executor drives the run.
#[derive(Debug, Clone)]
pub enum SchedSpec {
    /// Galois-like software worklist with the given policy.
    Software(PolicyKind),
    /// Minnow offload; `wdp_credits = None` disables prefetching.
    Minnow {
        /// Worklist-directed prefetch credits.
        wdp_credits: Option<u32>,
    },
    /// Minnow offload (no WDP) + a table-based hardware prefetcher.
    MinnowWithHw(HwKind),
    /// GraphMat-like BSP engine; `Some(lg)` = bucketed `GMat*`.
    Bsp(Option<u32>),
}

impl SchedSpec {
    /// Stable, filesystem-safe configuration label for artifacts and
    /// sweep records.
    pub fn label(&self) -> String {
        match self {
            SchedSpec::Software(policy) => format!("software-{}", policy.label()),
            SchedSpec::Minnow { wdp_credits: None } => "minnow".into(),
            SchedSpec::Minnow {
                wdp_credits: Some(c),
            } => format!("minnow-wdp{c}"),
            SchedSpec::MinnowWithHw(HwKind::Stride) => "minnow-hw-stride".into(),
            SchedSpec::MinnowWithHw(HwKind::Imp) => "minnow-hw-imp".into(),
            SchedSpec::Bsp(None) => "bsp".into(),
            SchedSpec::Bsp(Some(lg)) => format!("bsp-b{lg}"),
        }
    }
}

/// Hardware prefetcher selector for [`SchedSpec::MinnowWithHw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwKind {
    /// Classic stride prefetcher.
    Stride,
    /// Indirect memory prefetcher (distance 4, re-tuned per paper §6.3.3).
    Imp,
}

/// An external graph file standing in for the workload's generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSpec {
    /// Path to the graph: any [`minnow_graph::io::GraphSource`] format,
    /// including `minnow-csr-image/v1` files.
    pub path: std::path::PathBuf,
    /// Explicit source format; `None` detects from the extension.
    pub format: Option<minnow_graph::io::GraphSource>,
    /// How to load an image file (ignored for text/binary edge formats).
    pub mode: minnow_graph::image::LoadMode,
}

impl InputSpec {
    /// A spec with the default (auto mmap-or-read) load mode.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        InputSpec {
            path: path.into(),
            format: None,
            mode: minnow_graph::image::LoadMode::Auto,
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Workload.
    pub kind: WorkloadKind,
    /// Input scale.
    pub scale: f64,
    /// External input file; `None` (the default) generates the workload's
    /// Table 1 analogue at [`BenchRun::scale`]. When set, `scale`/`seed`
    /// no longer affect the graph (they still seed the simulator).
    pub input: Option<InputSpec>,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads (= cores).
    pub threads: usize,
    /// Scheduler.
    pub sched: SchedSpec,
    /// Core idealization (Fig. 4).
    pub core_mode: CoreMode,
    /// Override DRAM channel count (Fig. 21).
    pub channels: Option<usize>,
    /// Override ROB size, keeping buffer ratios (Fig. 4).
    pub rob: Option<usize>,
    /// Override the per-core L2 geometry as `(size_bytes, ways)` — the
    /// cache the Minnow engine attaches to. The explorer sweeps this
    /// axis; line size stays at the paper's 64B.
    pub l2: Option<(usize, usize)>,
    /// Override the Minnow engine hardware parameters (local/threadlet
    /// queue depths, refill threshold, data memory). Applies to the
    /// Minnow scheduler configurations only; the explorer sweeps these
    /// axes and prices them with the §5.4 area model.
    pub engine: Option<EngineParams>,
    /// Task limit (timeout guard).
    pub task_limit: u64,
    /// Serial-baseline accounting (atomics as stores).
    pub serial_baseline: bool,
}

impl BenchRun {
    /// A default configuration for the workload at the harness scale.
    pub fn new(kind: WorkloadKind, threads: usize, sched: SchedSpec) -> Self {
        BenchRun {
            kind,
            scale: crate::scale(),
            input: None,
            seed: crate::seed(),
            threads,
            sched,
            core_mode: CoreMode::realistic(),
            channels: None,
            rob: None,
            l2: None,
            engine: None,
            task_limit: 20_000_000,
            serial_baseline: false,
        }
    }

    /// The workload's paper scheduler as a software run.
    pub fn software_default(kind: WorkloadKind, threads: usize) -> Self {
        BenchRun::new(kind, threads, SchedSpec::Software(kind.build_policy()))
    }

    /// Minnow without prefetching.
    pub fn minnow(kind: WorkloadKind, threads: usize) -> Self {
        BenchRun::new(kind, threads, SchedSpec::Minnow { wdp_credits: None })
    }

    /// Minnow with the paper's 32-credit prefetcher.
    pub fn minnow_wdp(kind: WorkloadKind, threads: usize) -> Self {
        BenchRun::new(
            kind,
            threads,
            SchedSpec::Minnow {
                wdp_credits: Some(32),
            },
        )
    }

    fn exec_config(&self) -> ExecConfig {
        let mut cfg = ExecConfig::new(self.threads);
        cfg.core_mode = self.core_mode;
        cfg.task_limit = self.task_limit;
        cfg.serial_baseline = self.serial_baseline;
        if let Some(ch) = self.channels {
            cfg.sim.mem_channels = ch;
        }
        if let Some(rob) = self.rob {
            cfg.sim.ooo = minnow_sim::config::OooParams::scaled_rob(rob);
        }
        if let Some((size_bytes, ways)) = self.l2 {
            cfg.sim.l2.size_bytes = size_bytes;
            cfg.sim.l2.ways = ways;
            // Fail fast on degenerate geometry instead of deep in the
            // hierarchy constructor.
            let _ = cfg.sim.l2.sets();
        }
        cfg
    }

    /// The input graph for this run: the external file when
    /// [`BenchRun::input`] is set (loaded through the process-wide file
    /// cache, sorted when the workload demands it), otherwise the
    /// generated analogue.
    ///
    /// # Panics
    ///
    /// Panics if an external input fails to load — binaries should
    /// pre-validate with [`BenchRun::try_input`].
    pub fn input(&self) -> Arc<Csr> {
        self.try_input().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BenchRun::input`], surfacing file errors instead of panicking.
    pub fn try_input(&self) -> Result<Arc<Csr>, String> {
        match &self.input {
            Some(spec) => {
                let require_sorted = self.kind == WorkloadKind::Tc;
                minnow_algos::suite::file_input(&spec.path, spec.format, spec.mode, require_sorted)
                    .map_err(|e| format!("input {}: {e}", spec.path.display()))
            }
            None => Ok(self.kind.input(self.scale, self.seed)),
        }
    }

    /// The §5.4 area cost of this configuration's Minnow hardware:
    /// every engine's SRAM + control logic, priced against the L2 this
    /// run actually simulates (including any [`BenchRun::l2`] and
    /// [`BenchRun::engine`] overrides). `None` for configurations with
    /// no engines (software and BSP schedulers) — their hardware cost
    /// is zero by construction, which the explorer's objective layer
    /// represents as an empty estimate rather than a zero-sized engine.
    pub fn area_estimate(&self, process: Process) -> Option<AreaEstimate> {
        match self.sched {
            SchedSpec::Software(_) | SchedSpec::Bsp(_) => None,
            SchedSpec::Minnow { .. } | SchedSpec::MinnowWithHw(_) => {
                let params = self.engine.unwrap_or_else(EngineParams::paper);
                let l2_lines = self.exec_config().sim.l2.lines();
                Some(area::machine_estimate(&params, l2_lines, self.threads, 1, process))
            }
        }
    }

    /// Executes the run.
    pub fn execute(&self) -> RunReport {
        self.execute_on(self.input())
    }

    /// Executes the run on a prepared input (lets sweeps share generation).
    pub fn execute_on(&self, graph: Arc<Csr>) -> RunReport {
        self.execute_traced_on(graph, &Tracer::disabled())
    }

    /// Executes the run with structured tracing: every component (the
    /// hierarchy, the executor, Minnow engines, the BSP engine) reports
    /// events into `tracer`. Simulation results are identical to the
    /// untraced run — tracing only observes.
    pub fn execute_traced(&self, tracer: &Tracer) -> RunReport {
        self.execute_traced_on(self.input(), tracer)
    }

    /// [`BenchRun::execute_traced`] on a prepared input.
    pub fn execute_traced_on(&self, graph: Arc<Csr>, tracer: &Tracer) -> RunReport {
        let mut op = self.kind.operator_on(graph.clone());
        let cfg = self.exec_config();
        match &self.sched {
            SchedSpec::Software(policy) => {
                let mut mem = MemoryHierarchy::new(&cfg.sim);
                mem.set_tracer(tracer.clone());
                let mut sched = SoftwareScheduler::new(policy.build(), self.threads);
                run(op.as_mut(), &mut sched, &mut mem, &cfg)
            }
            SchedSpec::Minnow { wdp_credits } => {
                let mut mem = MemoryHierarchy::new(&cfg.sim);
                mem.set_tracer(tracer.clone());
                let mut mc = MinnowConfig::paper(self.kind.lg_bucket());
                mc.prefetch_credits = *wdp_credits;
                if let Some(engine) = self.engine {
                    mc.engine = engine;
                }
                let mut sched = MinnowScheduler::new(
                    graph,
                    op.address_map(),
                    op.prefetch_kind(),
                    self.threads,
                    mc,
                );
                run(op.as_mut(), &mut sched, &mut mem, &cfg)
            }
            SchedSpec::MinnowWithHw(hw) => {
                let mut mem = MemoryHierarchy::new(&cfg.sim);
                mem.set_tracer(tracer.clone());
                let mut mc = MinnowConfig::no_prefetch(self.kind.lg_bucket());
                if let Some(engine) = self.engine {
                    mc.engine = engine;
                }
                let mut sched = MinnowScheduler::new(
                    graph.clone(),
                    op.address_map(),
                    op.prefetch_kind(),
                    self.threads,
                    mc,
                );
                let image = GraphImage::new(&graph, op.address_map());
                let mut pf: Box<dyn HwPrefetcher> = match hw {
                    HwKind::Stride => Box::new(StridePrefetcher::new(self.threads, 4)),
                    HwKind::Imp => Box::new(Imp::new(self.threads, 4)),
                };
                run_with_prefetcher(
                    op.as_mut(),
                    &mut sched,
                    &mut mem,
                    Some((pf.as_mut(), &image)),
                    &cfg,
                )
            }
            SchedSpec::Bsp(lg) => {
                let mut bsp = BspConfig::new(self.threads);
                bsp.lg_bucket_interval = *lg;
                bsp.core_mode = self.core_mode;
                bsp.tracer = tracer.clone();
                run_bsp(op.as_mut(), &bsp)
            }
        }
    }
}

/// Serial-baseline cycles for a workload (the Fig. 15/16 denominator:
/// 1 thread, the workload's own policy, atomics demoted).
pub fn serial_baseline(kind: WorkloadKind, scale: f64, seed: u64) -> u64 {
    let mut run = BenchRun::software_default(kind, 1);
    run.scale = scale;
    run.seed = seed;
    run.serial_baseline = true;
    run.execute().makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sched_specs_run_a_small_workload() {
        for sched in [
            SchedSpec::Software(PolicyKind::Obim(0)),
            SchedSpec::Minnow { wdp_credits: None },
            SchedSpec::Minnow {
                wdp_credits: Some(16),
            },
            SchedSpec::MinnowWithHw(HwKind::Stride),
            SchedSpec::MinnowWithHw(HwKind::Imp),
            SchedSpec::Bsp(None),
            SchedSpec::Bsp(Some(0)),
        ] {
            let mut run = BenchRun::new(WorkloadKind::Bfs, 2, sched.clone());
            run.scale = 0.03;
            let report = run.execute();
            assert!(!report.timed_out, "{sched:?} timed out");
            assert!(report.tasks > 0, "{sched:?} did nothing");
        }
    }

    #[test]
    fn serial_baseline_is_positive() {
        assert!(serial_baseline(WorkloadKind::Cc, 0.03, 1) > 0);
    }

    #[test]
    fn overrides_apply() {
        let mut run = BenchRun::software_default(WorkloadKind::Bfs, 2);
        run.scale = 0.03;
        run.channels = Some(1);
        run.rob = Some(64);
        let cfg = run.exec_config();
        assert_eq!(cfg.sim.mem_channels, 1);
        assert_eq!(cfg.sim.ooo.rob, 64);
        let r = run.execute();
        assert!(r.tasks > 0);
    }

    #[test]
    fn l2_and_engine_overrides_apply_and_change_outcomes() {
        let mut base = BenchRun::minnow_wdp(WorkloadKind::Bfs, 2);
        base.scale = 0.03;
        let mut shrunk = base.clone();
        shrunk.l2 = Some((8 * 1024, 8));
        assert_eq!(shrunk.exec_config().sim.l2.size_bytes, 8 * 1024);
        assert_eq!(shrunk.exec_config().sim.l2.ways, 8);
        let r_base = base.execute();
        let r_shrunk = shrunk.execute();
        assert!(r_base.tasks > 0 && r_shrunk.tasks > 0);
        assert!(
            r_shrunk.l2_misses > r_base.l2_misses,
            "an 8KB L2 must miss more than the default ({} vs {})",
            r_shrunk.l2_misses,
            r_base.l2_misses
        );

        let mut tiny_queue = base.clone();
        let mut params = EngineParams::paper();
        params.local_queue = 4;
        params.refill_threshold = 2;
        tiny_queue.engine = Some(params);
        let r_tiny = tiny_queue.execute();
        assert!(r_tiny.tasks > 0);
        assert_ne!(
            r_tiny.makespan, r_base.makespan,
            "a 4-entry local queue must change engine behaviour"
        );
    }

    #[test]
    fn area_estimate_prices_engines_only() {
        let minnow = BenchRun::minnow(WorkloadKind::Bfs, 4);
        let est = minnow.area_estimate(Process::Nm14).expect("minnow has engines");
        assert!(est.total_mm2() > 0.0);
        // Four per-core engines cost four single-engine estimates.
        let one = BenchRun::minnow(WorkloadKind::Bfs, 1)
            .area_estimate(Process::Nm14)
            .unwrap();
        assert!((est.total_mm2() - 4.0 * one.total_mm2()).abs() < 1e-12);
        assert!(BenchRun::software_default(WorkloadKind::Bfs, 4)
            .area_estimate(Process::Nm14)
            .is_none());
    }
}
