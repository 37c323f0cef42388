//! The operator interface: how workloads express their per-task work.
//!
//! A Galois-style *operator* processes one active node per task: it reads
//! the node, walks its edges, conditionally updates neighbors, and pushes
//! follow-up tasks (paper Fig. 1). Implementations do their functional work
//! against their own state and *record* what they touched into a
//! [`TaskCtx`]; the executor then charges the recorded accesses against the
//! simulated memory hierarchy and core model.
//!
//! The recorder also classifies loads the way the paper's Fig. 6 does:
//! the *first* touch of a graph node/edge cache line within a task is a
//! *delinquent-load candidate* (it typically misses); repeated touches and
//! stack/spill traffic are ordinary loads.

use std::sync::Arc;

use fxhash::FxHashSet;

use minnow_graph::{AddressMap, Csr, NodeId};
use minnow_sim::hierarchy::AccessKind;

use crate::task::Task;
use crate::worklist::PolicyKind;

/// Fraction of instructions that generate non-graph loads (stack reads,
/// register spills/fills — §3.4 calls these out as the bulk of the load
/// stream on x86).
const STACK_LOADS_PER_INSTR_NUM: u64 = 75;
const STACK_LOADS_PER_INSTR_DEN: u64 = 100;

/// One recorded memory access, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// Simulated address.
    pub addr: u64,
    /// Load / store / atomic.
    pub kind: AccessKind,
    /// First touch of this cache line within the task (delinquent
    /// candidate).
    pub first_touch: bool,
    /// Loaded value for index/pointer loads (edge destinations), consumed
    /// by indirect hardware prefetchers (IMP).
    pub value: Option<u64>,
}

/// Which worklist-directed prefetch program a workload needs (paper §5.3:
/// all workloads share the standard node→edges→neighbors program except TC,
/// which got a custom one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// `prefetchTask`/`prefetchEdge` from Fig. 14: task → node → edges →
    /// destination nodes.
    Standard,
    /// Triangle counting: node → edges → neighbor adjacency lists (binary
    /// search probes).
    TriangleCounting,
}

/// Per-task recording context handed to [`Operator::execute`].
#[derive(Debug)]
pub struct TaskCtx {
    map: AddressMap,
    accesses: Vec<Recorded>,
    seen_lines: FxHashSet<u64>,
    instrs: u64,
    branches: u64,
    atomics: u64,
    stores: u64,
    secondary_loads: u64,
    pushes: Vec<Task>,
    /// Serial-baseline mode: atomics are recorded as plain stores (the
    /// paper's serial baseline "uses Galois but has atomics removed", §6.3.1).
    count_atomics_as_stores: bool,
}

impl TaskCtx {
    /// Creates a recorder for one task.
    pub fn new(map: AddressMap, count_atomics_as_stores: bool) -> Self {
        TaskCtx {
            map,
            accesses: Vec::with_capacity(16),
            seen_lines: FxHashSet::with_capacity_and_hasher(16, Default::default()),
            instrs: 0,
            branches: 0,
            atomics: 0,
            stores: 0,
            secondary_loads: 0,
            pushes: Vec::new(),
            count_atomics_as_stores,
        }
    }

    /// Clears every recording for the next task while keeping all buffer
    /// allocations, so one `TaskCtx` can serve an entire run without
    /// heap traffic. The address map and baseline mode are retained.
    pub fn reset(&mut self) {
        self.accesses.clear();
        self.seen_lines.clear();
        self.instrs = 0;
        self.branches = 0;
        self.atomics = 0;
        self.stores = 0;
        self.secondary_loads = 0;
        self.pushes.clear();
    }

    /// The address map in use.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    #[inline]
    fn record(&mut self, addr: u64, kind: AccessKind, value: Option<u64>) {
        let line = addr >> 6;
        let first = self.seen_lines.insert(line);
        if first {
            self.accesses.push(Recorded {
                addr,
                kind,
                first_touch: true,
                value,
            });
        } else if kind == AccessKind::Load {
            self.secondary_loads += 1;
        } else {
            // Repeated writes to a warmed line still need ordering but hit
            // close to the core; record without the delinquent mark.
            self.accesses.push(Recorded {
                addr,
                kind,
                first_touch: false,
                value,
            });
        }
    }

    /// Records a load of node `v`'s record.
    #[inline]
    pub fn load_node(&mut self, v: NodeId) {
        self.record(self.map.node_addr(v), AccessKind::Load, None);
    }

    /// Records a store to node `v`'s record.
    #[inline]
    pub fn store_node(&mut self, v: NodeId) {
        self.stores += 1;
        self.record(self.map.node_addr(v), AccessKind::Store, None);
    }

    /// Records an atomic read-modify-write on node `v`'s record
    /// (compare-and-swap label/distance updates, fetch-add residuals).
    #[inline]
    pub fn atomic_node(&mut self, v: NodeId) {
        if self.count_atomics_as_stores {
            self.store_node(v);
        } else {
            self.atomics += 1;
            self.record(self.map.node_addr(v), AccessKind::Atomic, None);
        }
    }

    /// Records a load of CSR edge slot `e` whose destination is `dst`
    /// (the loaded value, visible to indirect hardware prefetchers).
    #[inline]
    pub fn load_edge(&mut self, e: usize, dst: NodeId) {
        self.record(self.map.edge_addr(e), AccessKind::Load, Some(dst as u64));
    }

    /// Adds `n` dynamic instructions of plain compute.
    #[inline]
    pub fn add_instrs(&mut self, n: u64) {
        self.instrs += n;
    }

    /// Adds `n` data-dependent branches (compare against loaded values).
    #[inline]
    pub fn add_branches(&mut self, n: u64) {
        self.branches += n;
        self.instrs += n;
    }

    /// Pushes a follow-up task.
    #[inline]
    pub fn push(&mut self, task: Task) {
        self.pushes.push(task);
    }

    /// Recorded accesses in program order.
    #[inline]
    pub fn accesses(&self) -> &[Recorded] {
        &self.accesses
    }

    /// Tasks pushed by the operator.
    pub fn pushes(&self) -> &[Task] {
        &self.pushes
    }

    /// Takes ownership of the pushed tasks.
    pub fn take_pushes(&mut self) -> Vec<Task> {
        std::mem::take(&mut self.pushes)
    }

    /// Total dynamic instructions recorded.
    #[inline]
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Data-dependent branches recorded.
    #[inline]
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Atomics recorded.
    #[inline]
    pub fn atomics(&self) -> u64 {
        self.atomics
    }

    /// Plain stores recorded.
    #[inline]
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Ordinary (non-delinquent) loads: secondary graph touches plus
    /// stack/spill traffic derived from the instruction count.
    #[inline]
    pub fn other_loads(&self) -> u64 {
        self.secondary_loads + self.instrs * STACK_LOADS_PER_INSTR_NUM / STACK_LOADS_PER_INSTR_DEN
    }
}

/// A data-driven workload: per-task functional work plus trace recording.
pub trait Operator {
    /// Workload name (e.g. `"SSSP"`).
    fn name(&self) -> &'static str;

    /// The input graph.
    fn graph(&self) -> &Arc<Csr>;

    /// The address layout this workload uses (TC uses 64B nodes).
    fn address_map(&self) -> AddressMap {
        AddressMap::standard()
    }

    /// Tasks that seed the worklist.
    fn initial_tasks(&self) -> Vec<Task>;

    /// Executes one task: functional updates on `self`, trace into `ctx`.
    fn execute(&mut self, task: Task, ctx: &mut TaskCtx);

    /// Always `false`; no executor calls it. Kept only because the
    /// `benchmark/` crate's timing delegate forwards it.
    fn execute_spec(&self, _task: Task, _ctx: &mut TaskCtx) -> bool {
        false
    }

    /// A no-op; no executor calls it. Kept only because the `benchmark/`
    /// crate's timing delegate forwards it.
    fn apply_spec(&mut self, _ctx: &TaskCtx) {}

    /// The scheduling policy the paper uses for this workload.
    fn default_policy(&self) -> PolicyKind;

    /// Which worklist-directed prefetch program fits this workload.
    fn prefetch_kind(&self) -> PrefetchKind {
        PrefetchKind::Standard
    }

    /// Whether task splitting (paper §6.2.1) is safe for this operator:
    /// edge updates must be order-independent and the per-task prologue must
    /// be idempotent. PageRank's residual claim is not, so it opts out.
    fn supports_splitting(&self) -> bool {
        true
    }

    /// Optional convergence check run after the worklist drains; workloads
    /// with verifiable answers assert here (used by tests).
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TaskCtx {
        TaskCtx::new(AddressMap::standard(), false)
    }

    #[test]
    fn first_touch_classification_per_line() {
        let mut c = ctx();
        c.load_node(0); // line A
        c.load_node(1); // same 64B line (32B nodes)
        c.load_node(2); // new line
        let firsts: Vec<bool> = c.accesses().iter().map(|a| a.first_touch).collect();
        assert_eq!(firsts, vec![true, true]);
        assert_eq!(c.other_loads(), 1); // node 1 was a secondary touch
    }

    #[test]
    fn edges_share_lines_four_to_one() {
        let mut c = ctx();
        for e in 0..8 {
            c.load_edge(e, e as NodeId);
        }
        assert_eq!(c.accesses().len(), 2);
        assert_eq!(c.other_loads(), 6);
    }

    #[test]
    fn atomics_demoted_in_serial_mode() {
        let mut serial = TaskCtx::new(AddressMap::standard(), true);
        serial.atomic_node(5);
        assert_eq!(serial.atomics(), 0);
        assert_eq!(serial.stores(), 1);

        let mut par = ctx();
        par.atomic_node(5);
        assert_eq!(par.atomics(), 1);
        assert_eq!(par.accesses()[0].kind, AccessKind::Atomic);
    }

    #[test]
    fn branches_count_as_instructions() {
        let mut c = ctx();
        c.add_instrs(10);
        c.add_branches(3);
        assert_eq!(c.instrs(), 13);
        assert_eq!(c.branches(), 3);
    }

    #[test]
    fn stack_loads_scale_with_instructions() {
        let mut c = ctx();
        c.add_instrs(100);
        assert_eq!(c.other_loads(), 75);
    }

    #[test]
    fn pushes_are_collected_and_takeable() {
        let mut c = ctx();
        c.push(Task::new(1, 2));
        c.push(Task::new(3, 4));
        assert_eq!(c.pushes().len(), 2);
        let taken = c.take_pushes();
        assert_eq!(taken.len(), 2);
        assert!(c.pushes().is_empty());
    }

    #[test]
    fn repeated_store_to_warm_line_not_first_touch() {
        let mut c = ctx();
        c.load_node(0);
        c.store_node(0);
        assert_eq!(c.accesses().len(), 2);
        assert!(!c.accesses()[1].first_touch);
    }
}
