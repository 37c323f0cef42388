//! Worklist-directed prefetching (paper §5.3).
//!
//! Once the Minnow engine accepts a task into its local queue, that task is
//! guaranteed to run on its paired core, so the engine can prefetch the
//! task's entire input: the task record, the source node, its edges, and
//! every destination node (Fig. 14's `prefetchTask`/`prefetchEdge`
//! programs). TC uses a custom program that also prefetches the neighbor
//! adjacency prefixes its binary searches will probe.
//!
//! [`PrefetchPipeline`] models the engine back-end issuing these lines:
//! an in-order issue pipe that context-switches per load, a bounded CAM
//! load buffer (32 entries) holding in-flight fills, and the credit pool
//! throttling total outstanding prefetched lines (§5.3.1).

use std::collections::VecDeque;

use minnow_graph::{AddressMap, Csr};
use minnow_runtime::{PrefetchKind, Task};
use minnow_sim::config::EngineParams;
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::MemoryHierarchy;

use crate::credits::CreditPool;

/// Expands a task into the line addresses its prefetch program touches,
/// in issue order, deduplicated. Builds fresh buffers on every call; hot
/// loops expand into a reused [`ProgramScratch`] instead.
pub fn program_lines(
    kind: PrefetchKind,
    graph: &Csr,
    map: &AddressMap,
    task: &Task,
) -> Vec<u64> {
    let mut scratch = ProgramScratch::new();
    scratch.expand(kind, graph, map, task);
    scratch.lines
}

/// Reused buffers for prefetch-program expansion: the expanded lines and
/// a generation-stamped open-addressed set that deduplicates them.
/// Starting a program bumps the generation instead of clearing the set,
/// so once both buffers have grown to the largest program, expanding
/// allocates nothing.
#[derive(Debug, Default)]
pub struct ProgramScratch {
    lines: Vec<u64>,
    /// `(line, stamp)` slots, a power of two long and at most half full;
    /// a slot holds a line of the current program only when its stamp
    /// equals `generation`.
    slots: Vec<(u64, u32)>,
    generation: u32,
}

impl ProgramScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        ProgramScratch::default()
    }

    /// Expands a task into the line addresses its prefetch program
    /// touches, in issue order, deduplicated — the lines
    /// [`program_lines`] returns, valid until the next expansion.
    pub fn expand(
        &mut self,
        kind: PrefetchKind,
        graph: &Csr,
        map: &AddressMap,
        task: &Task,
    ) -> &[u64] {
        self.begin();
        let v = task.node;
        // Source node record.
        self.push(map.node_addr(v));
        let degree = graph.out_degree(v);
        let range = task.resolve_range(degree);
        let base = graph.edge_range(v).start;

        match kind {
            PrefetchKind::Standard => {
                // Edges, then destination nodes (prefetchEdge per edge).
                for slot in range.clone() {
                    self.push(map.edge_addr(base + slot));
                }
                for slot in range {
                    let dst = graph.edge_dst(base + slot);
                    self.push(map.node_addr(dst));
                }
            }
            PrefetchKind::TriangleCounting => {
                for slot in range.clone() {
                    self.push(map.edge_addr(base + slot));
                }
                // For each neighbor: its node record plus the top of its
                // adjacency binary-search tree (the probe lines every search
                // through that list shares).
                for slot in range {
                    let u = graph.edge_dst(base + slot);
                    self.push(map.node_addr(u));
                    let r = graph.edge_range(u);
                    let (mut lo, mut hi) = (r.start, r.end);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        self.push(map.edge_addr(mid));
                        // Walk toward the middle: the expected probe path.
                        if hi - lo <= 4 {
                            break;
                        }
                        lo = lo + (mid - lo) / 2;
                        hi = mid + (hi - mid) / 2 + 1;
                    }
                }
            }
        }
        &self.lines
    }

    fn begin(&mut self) {
        self.lines.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps from 2^32 programs ago would alias: wipe them once.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    fn push(&mut self, addr: u64) {
        let line = addr & !63;
        if 2 * (self.lines.len() + 1) > self.slots.len() {
            self.grow();
        }
        if self.claim(line) {
            self.lines.push(line);
        }
    }

    /// Stamps `line` into the set; `false` when the current program
    /// already holds it.
    fn claim(&mut self, line: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let (held, stamp) = self.slots[i];
            if stamp != self.generation {
                self.slots[i] = (line, self.generation);
                return true;
            }
            if held == line {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the set and re-stamps the current program's lines.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(64);
        self.slots.clear();
        self.slots.resize(len, (0, 0));
        let lines = std::mem::take(&mut self.lines);
        for &line in &lines {
            self.claim(line);
        }
        self.lines = lines;
    }
}

/// Statistics of one engine's prefetch pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchStats {
    /// Prefetch lines issued to the memory system.
    pub issued: u64,
    /// Lines skipped because they were already resident in L2.
    pub already_resident: u64,
    /// Issue attempts paused for lack of credits.
    pub credit_stalls: u64,
    /// Programs (tasks) enqueued for prefetching.
    pub programs: u64,
    /// Stale lines aged out of the bounded threadlet backlog (the worker
    /// overtook their task; their threadlets would find resident lines).
    pub aged_out: u64,
}

/// Hard bound on remembered backlog lines (memory safety valve; programs of
/// completed tasks are dropped long before this matters).
const MAX_BACKLOG_LINES: usize = 8192;

/// The engine back-end prefetch issue model.
#[derive(Debug)]
pub struct PrefetchPipeline {
    /// Pending `(program, line)` pairs in issue order. Programs are numbered
    /// in local-queue acceptance order, which is exactly the worker's pop
    /// order (the local queue is FIFO, paper §5.2) — so when the worker pops
    /// task *n*, every pending line of programs `< n` belongs to a task that
    /// already executed; its threadlet would find resident lines, and the
    /// pipeline drops it instead of burning credits on dead fills.
    pending: VecDeque<(u64, u64)>,
    /// Programs enqueued so far (next sequence number).
    next_program: u64,
    /// Tasks the worker has started (pops observed).
    pops: u64,
    /// Completion cycles of in-flight fills (bounded by the load buffer).
    /// Unordered: retirement removes every entry at or before the issue
    /// clock, and the earliest entry is searched for only when the buffer
    /// is actually full — both observationally identical to a min-heap.
    inflight: Vec<Cycle>,
    load_buffer: usize,
    issue_interval: Cycle,
    issue_clock: Cycle,
    /// The issue point at which the last pump stopped without issuing.
    /// Only an issue moves the issue clock or adds to the load buffer, and
    /// no buffered fill completes at or before the clock, so until the
    /// next issue a full pump would retire nothing and stop at this same
    /// point: pumps before it return at once, and pumps without credits
    /// only record the stall.
    parked: Option<Cycle>,
    credits: CreditPool,
    stats: PrefetchStats,
}

impl PrefetchPipeline {
    /// Builds a pipeline with the paper's engine geometry and `credits`
    /// initial prefetch credits.
    pub fn new(params: &EngineParams, credits: u32) -> Self {
        PrefetchPipeline {
            pending: VecDeque::new(),
            next_program: 0,
            pops: 0,
            inflight: Vec::new(),
            load_buffer: params.load_buffer,
            // Issue pipe: a couple of cycles per threadlet step plus the
            // CAM wakeup amortized over switches.
            issue_interval: 2 + params.load_buffer_wakeup / 2,
            issue_clock: 0,
            parked: None,
            credits: CreditPool::new(credits),
            stats: PrefetchStats::default(),
        }
    }

    /// Queues a task's prefetch program (one program per accepted task, in
    /// local-queue order).
    pub fn enqueue_program(&mut self, lines: impl IntoIterator<Item = u64>) {
        let seq = self.next_program;
        self.next_program += 1;
        self.stats.programs += 1;
        self.pending.extend(lines.into_iter().map(|l| (seq, l)));
        while self.pending.len() > MAX_BACKLOG_LINES {
            self.pending.pop_front();
            self.stats.aged_out += 1;
        }
    }

    /// Notes that the worker popped (started) the next task. Pending lines
    /// of all *previously started* tasks are stale (their task already ran)
    /// and are dropped; the just-started task's lines stay, since a task is
    /// "dispatched to worker threads and concurrently prefetched" (§5.3.1).
    pub fn note_pop(&mut self) {
        self.pops += 1;
        let stale_below = self.pops.saturating_sub(1);
        while let Some(&(seq, _)) = self.pending.front() {
            if seq < stale_below {
                self.pending.pop_front();
                self.stats.aged_out += 1;
            } else {
                break;
            }
        }
    }

    /// Lines awaiting issue.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// The credit pool (for inspection).
    pub fn credits(&self) -> &CreditPool {
        &self.credits
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Removes the earliest-completing entry.
    fn remove_earliest(&mut self) {
        let idx = self
            .inflight
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .expect("load buffer non-empty when full");
        self.inflight.swap_remove(idx);
    }

    /// Advances the pipeline to time `now`: returns freed credits from the
    /// hierarchy, then issues as many pending lines as buffer, credits, and
    /// time allow.
    pub fn pump(&mut self, core: usize, now: Cycle, mem: &mut MemoryHierarchy) {
        let freed = mem.drain_returned_credits(core);
        if freed > 0 {
            self.credits.release(freed as u32);
        }
        if self.pending.is_empty() {
            return;
        }
        if let Some(at) = self.parked {
            if at > now {
                return;
            }
            if self.credits.available() == 0 {
                let consumed = self.credits.try_consume(); // records the starvation
                debug_assert!(!consumed);
                self.stats.credit_stalls += 1;
                return;
            }
        }
        loop {
            if self.pending.is_empty() {
                return;
            }
            // Retire completed fills up to the current issue point.
            let clock = self.issue_clock;
            self.inflight.retain(|&c| c > clock);
            let mut issue_at = self.issue_clock;
            if self.inflight.len() >= self.load_buffer {
                // Must wait for a load-buffer slot.
                let earliest = *self.inflight.iter().min().expect("non-empty");
                issue_at = issue_at.max(earliest);
            }
            if issue_at > now {
                self.parked = Some(issue_at);
                return; // the engine hasn't reached this point in time yet
            }
            if !self.credits.try_consume() {
                self.stats.credit_stalls += 1;
                self.parked = Some(issue_at);
                return; // paused until credits come back
            }
            self.parked = None;
            let (_, addr) = self.pending.pop_front().expect("checked non-empty");
            let res = mem.prefetch_fill(core, addr, issue_at);
            if res.filled {
                mem.tracer().emit(|| {
                    minnow_sim::trace::TraceEvent::complete(
                        "wdp",
                        "prefetch",
                        core as u32,
                        issue_at,
                        res.latency,
                    )
                    .with_arg("addr", addr)
                });
                self.stats.issued += 1;
                if self.inflight.len() >= self.load_buffer {
                    self.remove_earliest();
                }
                self.inflight.push(issue_at + res.latency);
            } else {
                // Already resident: no line marked, credit goes back.
                self.credits.release(1);
                self.stats.already_resident += 1;
            }
            self.issue_clock = issue_at + self.issue_interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_sim::SimConfig;

    fn chain_graph() -> Csr {
        // 0 -> 1,2,3 ; 1 -> 2 ; sorted for TC.
        let mut g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)], None);
        g.sort_adjacency();
        g
    }

    #[test]
    fn standard_program_covers_node_edges_dsts() {
        let g = chain_graph();
        let map = AddressMap::standard();
        let lines = program_lines(PrefetchKind::Standard, &g, &map, &Task::new(0, 0));
        // Source node line.
        assert!(lines.contains(&(map.node_addr(0) & !63)));
        // Edge line (3 edges fit one line).
        assert!(lines.contains(&(map.edge_addr(0) & !63)));
        // Destination node lines (nodes 1,2 share a line; node 3 next line).
        assert!(lines.contains(&(map.node_addr(2) & !63)));
        assert!(lines.contains(&(map.node_addr(3) & !63)));
        // All lines distinct.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len());
    }

    #[test]
    fn split_task_prefetches_only_its_range() {
        let g = chain_graph();
        let map = AddressMap::standard();
        let whole = program_lines(PrefetchKind::Standard, &g, &map, &Task::new(0, 0));
        let part = program_lines(
            PrefetchKind::Standard,
            &g,
            &map,
            &Task::with_range(0, 0, 0, 1),
        );
        assert!(part.len() < whole.len());
    }

    #[test]
    fn tc_program_reaches_neighbor_adjacency() {
        let g = chain_graph();
        let map = AddressMap::wide_nodes();
        let lines = program_lines(PrefetchKind::TriangleCounting, &g, &map, &Task::new(0, 0));
        // Probes node 1's adjacency (edge index 3).
        assert!(lines.contains(&(map.edge_addr(3) & !63)));
    }

    #[test]
    fn reused_scratch_matches_fresh_expansion() {
        // A hub whose program outgrows the dedup set mid-expansion, then
        // smaller programs that must not see its stale stamps.
        let edges: Vec<(u32, u32)> = (1..300u32)
            .map(|u| (0, u))
            .chain((1..300u32).map(|u| (u, (u * 7) % 300)))
            .collect();
        let mut g = Csr::from_edges(300, &edges, None);
        g.sort_adjacency();
        let map = AddressMap::wide_nodes();
        let mut scratch = ProgramScratch::new();
        for kind in [PrefetchKind::Standard, PrefetchKind::TriangleCounting] {
            for v in [0u32, 5, 0, 17, 299, 0, 1] {
                let task = Task::new(0, v);
                let fresh = program_lines(kind, &g, &map, &task);
                assert_eq!(scratch.expand(kind, &g, &map, &task), fresh.as_slice());
                let mut distinct = fresh.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), fresh.len(), "node {v}: duplicate lines");
            }
        }
        // Across the stamp counter's wrap, old stamps must not alias.
        scratch.generation = u32::MAX - 1;
        for v in [0u32, 5, 0, 17] {
            let task = Task::new(0, v);
            let fresh = program_lines(PrefetchKind::Standard, &g, &map, &task);
            assert_eq!(
                scratch.expand(PrefetchKind::Standard, &g, &map, &task),
                fresh.as_slice()
            );
        }
    }

    fn pipeline(credits: u32) -> (PrefetchPipeline, MemoryHierarchy) {
        let cfg = SimConfig::small(2);
        (
            PrefetchPipeline::new(&cfg.engine, credits),
            MemoryHierarchy::new(&cfg),
        )
    }

    #[test]
    fn pump_issues_and_marks_lines() {
        let (mut p, mut mem) = pipeline(32);
        p.enqueue_program([0x10000, 0x20000, 0x30000]);
        p.pump(0, 10_000, &mut mem);
        assert_eq!(p.stats().issued, 3);
        assert!(mem.l2_cache(0).probe_prefetched(0x10000));
        assert_eq!(p.backlog(), 0);
        assert!(p.credits().check_conservation());
    }

    #[test]
    fn credits_throttle_issue() {
        let (mut p, mut mem) = pipeline(2);
        p.enqueue_program((0..8u64).map(|i| 0x10000 + i * 64));
        p.pump(0, 100_000, &mut mem);
        assert_eq!(p.stats().issued, 2);
        assert_eq!(p.backlog(), 6);
        assert!(p.stats().credit_stalls > 0);
        // Consume one prefetched line -> one credit returns -> one more issue.
        mem.access(0, 0x10000, minnow_sim::hierarchy::AccessKind::Load, 200_000);
        p.pump(0, 300_000, &mut mem);
        assert_eq!(p.stats().issued, 3);
    }

    #[test]
    fn parked_pumps_still_count_every_stall() {
        let (mut p, mut mem) = pipeline(1);
        p.enqueue_program((0..8u64).map(|i| 0x10000 + i * 64));
        p.pump(0, 100_000, &mut mem);
        assert_eq!((p.stats().issued, p.stats().credit_stalls), (1, 1));
        // Parked on the credit check: every further pump is one more stall
        // in both the pipeline's and the pool's books.
        for _ in 0..5 {
            p.pump(0, 200_000, &mut mem);
        }
        assert_eq!(p.stats().credit_stalls, 6);
        assert_eq!(p.credits().starvations(), 6);
        // A returned credit unparks it.
        mem.access(0, 0x10000, minnow_sim::hierarchy::AccessKind::Load, 300_000);
        p.pump(0, 400_000, &mut mem);
        assert_eq!(p.stats().issued, 2);
    }

    #[test]
    fn resident_lines_do_not_burn_credits() {
        let (mut p, mut mem) = pipeline(4);
        mem.access(0, 0x50000, minnow_sim::hierarchy::AccessKind::Load, 0);
        p.enqueue_program([0x50000]);
        p.pump(0, 10_000, &mut mem);
        assert_eq!(p.stats().already_resident, 1);
        assert_eq!(p.credits().available(), 4);
    }

    #[test]
    fn issue_respects_time() {
        let (mut p, mut mem) = pipeline(32);
        p.enqueue_program((0..100u64).map(|i| 0x10000 + i * 64));
        p.pump(0, 0, &mut mem);
        let early = p.stats().issued;
        assert!(early < 100, "cannot issue 100 lines in 0 cycles");
        p.pump(0, 1_000_000, &mut mem);
        assert!(p.stats().issued > early);
    }

    #[test]
    fn load_buffer_bounds_inflight() {
        let (mut p, mut mem) = pipeline(256);
        p.enqueue_program((0..200u64).map(|i| 0x100000 + i * 64));
        p.pump(0, 50, &mut mem);
        // At t=50 with a 32-entry buffer and ~250-cycle fills, at most
        // ~32 + a few can have issued.
        assert!(p.stats().issued <= 40, "issued {}", p.stats().issued);
    }
}
