//! Worklist scheduling policies.
//!
//! A [`Worklist`] is the *logical* task pool: it decides which pending task
//! a `pop` returns. The timing of concurrent access (serialization,
//! cache-line hand-offs) is layered on top by
//! [`crate::sched::SoftwareScheduler`], so the same policy objects back the
//! software baseline, the GraphMat-like BSP engine's bucketing, and the
//! Minnow engine's software *global* worklist (paper §5.2).
//!
//! Implemented policies (paper §2.1, §3.1, Fig. 3):
//!
//! * [`Fifo`] — unordered queue (Galois' default chunked worklist collapses
//!   to this logically),
//! * [`Lifo`] — stack order (Carbon's hardened policy),
//! * [`ChunkedFifo`] — FIFO with per-chunk amortized synchronization,
//! * [`Obim`] — *ordered by integer metric*: priorities discretized into
//!   buckets (`bucket = priority >> lg_bucket_interval`), buckets processed
//!   ascending, FIFO within a bucket,
//! * [`StrictPriority`] — a binary heap (Dijkstra-style strict ordering).

use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::task::Task;

/// Abstract instruction costs of one worklist operation, consumed by the
/// timing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Dynamic instructions for an enqueue.
    pub enq_instrs: u64,
    /// Dynamic instructions for a dequeue.
    pub deq_instrs: u64,
    /// Cycles the shared structure stays locked per operation.
    pub hold: u64,
}

/// A sequential worklist policy.
pub trait Worklist: std::fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Adds a task.
    fn push(&mut self, task: Task);
    /// Removes the next task according to the policy.
    fn pop(&mut self) -> Option<Task>;
    /// Number of pending tasks.
    fn len(&self) -> usize;
    /// Whether no tasks are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Instruction/lock-time cost model for the timing layer.
    fn op_cost(&self) -> OpCost;
    /// The bucket the next `pop` would come from, if the policy has the
    /// notion (used for OBIM bucket-transition accounting and by the Minnow
    /// engine's local-queue filtering).
    fn head_bucket(&self) -> Option<u64> {
        None
    }
    /// The bucket a task would land in under this policy (0 for unordered
    /// policies, which keep a single shared structure).
    fn bucket_of(&self, _task: &Task) -> u64 {
        0
    }
}

/// Unordered FIFO queue.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<Task>,
}

impl Fifo {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Worklist for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn push(&mut self, task: Task) {
        self.q.push_back(task);
    }
    fn pop(&mut self) -> Option<Task> {
        self.q.pop_front()
    }
    fn len(&self) -> usize {
        self.q.len()
    }
    fn op_cost(&self) -> OpCost {
        OpCost {
            enq_instrs: 24,
            deq_instrs: 24,
            hold: 8,
        }
    }
}

/// LIFO stack (Carbon's policy, paper §3.1).
#[derive(Debug, Default)]
pub struct Lifo {
    q: Vec<Task>,
}

impl Lifo {
    /// Creates an empty LIFO.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Worklist for Lifo {
    fn name(&self) -> &'static str {
        "lifo"
    }
    fn push(&mut self, task: Task) {
        self.q.push(task);
    }
    fn pop(&mut self) -> Option<Task> {
        self.q.pop()
    }
    fn len(&self) -> usize {
        self.q.len()
    }
    fn op_cost(&self) -> OpCost {
        OpCost {
            enq_instrs: 20,
            deq_instrs: 20,
            hold: 8,
        }
    }
}

/// FIFO of fixed-size chunks: synchronization is amortized over a chunk
/// (Galois' `ChunkedFIFO`).
#[derive(Debug)]
pub struct ChunkedFifo {
    chunks: VecDeque<Vec<Task>>,
    chunk_size: usize,
    len: usize,
}

impl ChunkedFifo {
    /// Creates an empty chunked FIFO with the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunkedFifo {
            chunks: VecDeque::new(),
            chunk_size,
            len: 0,
        }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Worklist for ChunkedFifo {
    fn name(&self) -> &'static str {
        "chunked-fifo"
    }
    fn push(&mut self, task: Task) {
        match self.chunks.back_mut() {
            Some(back) if back.len() < self.chunk_size => back.push(task),
            _ => {
                let mut v = Vec::with_capacity(self.chunk_size);
                v.push(task);
                self.chunks.push_back(v);
            }
        }
        self.len += 1;
    }
    fn pop(&mut self) -> Option<Task> {
        loop {
            let front = self.chunks.front_mut()?;
            if let Some(t) = front.pop() {
                self.len -= 1;
                return Some(t);
            }
            self.chunks.pop_front();
        }
    }
    fn len(&self) -> usize {
        self.len
    }
    fn op_cost(&self) -> OpCost {
        // Synchronization amortized across the chunk: cheap ops, short hold.
        OpCost {
            enq_instrs: 14,
            deq_instrs: 14,
            hold: 2,
        }
    }
}

/// Ordered-by-integer-metric worklist (paper §2.1): tasks are binned into
/// buckets by `priority >> lg_bucket_interval`; buckets drain in ascending
/// order, FIFO within a bucket.
#[derive(Debug)]
pub struct Obim {
    buckets: BTreeMap<u64, VecDeque<Task>>,
    lg_bucket_interval: u32,
    len: usize,
}

impl Obim {
    /// Creates an empty OBIM with the given bucket interval exponent.
    pub fn new(lg_bucket_interval: u32) -> Self {
        Obim {
            buckets: BTreeMap::new(),
            lg_bucket_interval,
            len: 0,
        }
    }

    /// The bucket interval exponent.
    pub fn lg_bucket_interval(&self) -> u32 {
        self.lg_bucket_interval
    }

    /// Number of currently non-empty buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

impl Worklist for Obim {
    fn name(&self) -> &'static str {
        "obim"
    }
    fn push(&mut self, task: Task) {
        let b = task.bucket(self.lg_bucket_interval);
        self.buckets.entry(b).or_default().push_back(task);
        self.len += 1;
    }
    fn pop(&mut self) -> Option<Task> {
        let (&b, q) = self.buckets.iter_mut().next()?;
        let t = q.pop_front().expect("buckets are never left empty");
        if q.is_empty() {
            self.buckets.remove(&b);
        }
        self.len -= 1;
        Some(t)
    }
    fn len(&self) -> usize {
        self.len
    }
    fn op_cost(&self) -> OpCost {
        OpCost {
            enq_instrs: 40,
            deq_instrs: 36,
            hold: 6,
        }
    }
    fn head_bucket(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }
    fn bucket_of(&self, task: &Task) -> u64 {
        task.bucket(self.lg_bucket_interval)
    }
}

/// Min-heap strict priority queue (Dijkstra ordering).
#[derive(Debug, Default)]
pub struct StrictPriority {
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u32, u32)>>,
}

impl StrictPriority {
    /// Creates an empty strict priority queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Worklist for StrictPriority {
    fn name(&self) -> &'static str {
        "strict-priority"
    }
    fn push(&mut self, task: Task) {
        self.heap.push(std::cmp::Reverse((
            task.priority,
            task.node,
            task.edge_lo,
            task.edge_hi,
        )));
    }
    fn pop(&mut self) -> Option<Task> {
        self.heap.pop().map(|std::cmp::Reverse((p, n, lo, hi))| Task {
            priority: p,
            node: n,
            edge_lo: lo,
            edge_hi: hi,
        })
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn op_cost(&self) -> OpCost {
        // Heap ops are O(log n); charge the log at typical occupancy.
        let log = (self.heap.len().max(2) as f64).log2().ceil() as u64;
        OpCost {
            enq_instrs: 24 + 6 * log,
            deq_instrs: 24 + 6 * log,
            hold: 4 + 2 * log,
        }
    }
    fn head_bucket(&self) -> Option<u64> {
        self.heap.peek().map(|std::cmp::Reverse((p, ..))| *p)
    }
    fn bucket_of(&self, task: &Task) -> u64 {
        task.priority
    }
}

/// Policy selector for sweeps (Fig. 3) and configuration plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Unordered FIFO.
    Fifo,
    /// LIFO stack.
    Lifo,
    /// Chunked FIFO with the given chunk size.
    Chunked(usize),
    /// OBIM with the given `lg_bucket_interval`.
    Obim(u32),
    /// Strict priority queue.
    Strict,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Worklist + Send> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Lifo => Box::new(Lifo::new()),
            PolicyKind::Chunked(k) => Box::new(ChunkedFifo::new(k)),
            PolicyKind::Obim(lg) => Box::new(Obim::new(lg)),
            PolicyKind::Strict => Box::new(StrictPriority::new()),
        }
    }

    /// Display label, e.g. `obim(3)`.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Fifo => "fifo".into(),
            PolicyKind::Lifo => "lifo".into(),
            PolicyKind::Chunked(k) => format!("chunked({k})"),
            PolicyKind::Obim(lg) => format!("obim({lg})"),
            PolicyKind::Strict => "strict".into(),
        }
    }

    /// Whether the policy respects priorities at all.
    pub fn is_ordered(self) -> bool {
        matches!(self, PolicyKind::Obim(_) | PolicyKind::Strict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(p: u64, n: u32) -> Task {
        Task::new(p, n)
    }

    #[test]
    fn fifo_preserves_order() {
        let mut w = Fifo::new();
        w.push(t(5, 0));
        w.push(t(1, 1));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().unwrap().node, 0);
        assert_eq!(w.pop().unwrap().node, 1);
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn lifo_reverses_order() {
        let mut w = Lifo::new();
        w.push(t(5, 0));
        w.push(t(1, 1));
        assert_eq!(w.pop().unwrap().node, 1);
        assert_eq!(w.pop().unwrap().node, 0);
    }

    #[test]
    fn chunked_fifo_drains_all() {
        let mut w = ChunkedFifo::new(4);
        for i in 0..10 {
            w.push(t(0, i));
        }
        assert_eq!(w.len(), 10);
        let mut seen = Vec::new();
        while let Some(task) = w.pop() {
            seen.push(task.node);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn obim_orders_by_bucket_fifo_within() {
        let mut w = Obim::new(2); // buckets of width 4
        w.push(t(9, 0)); // bucket 2
        w.push(t(1, 1)); // bucket 0
        w.push(t(2, 2)); // bucket 0, after node 1
        w.push(t(5, 3)); // bucket 1
        assert_eq!(w.head_bucket(), Some(0));
        assert_eq!(w.pop().unwrap().node, 1);
        assert_eq!(w.pop().unwrap().node, 2);
        assert_eq!(w.head_bucket(), Some(1));
        assert_eq!(w.pop().unwrap().node, 3);
        assert_eq!(w.pop().unwrap().node, 0);
        assert!(w.pop().is_none());
    }

    #[test]
    fn obim_bucket_count_tracks_nonempty() {
        let mut w = Obim::new(0);
        w.push(t(1, 0));
        w.push(t(1, 1));
        w.push(t(7, 2));
        assert_eq!(w.bucket_count(), 2);
        w.pop();
        w.pop();
        assert_eq!(w.bucket_count(), 1);
    }

    #[test]
    fn strict_priority_is_total_order() {
        let mut w = StrictPriority::new();
        for p in [7u64, 3, 9, 1, 4] {
            w.push(t(p, p as u32));
        }
        let mut out = Vec::new();
        while let Some(task) = w.pop() {
            out.push(task.priority);
        }
        assert_eq!(out, vec![1, 3, 4, 7, 9]);
    }

    #[test]
    fn strict_cost_grows_with_occupancy() {
        let mut w = StrictPriority::new();
        let small = w.op_cost();
        for i in 0..4096 {
            w.push(t(i, 0));
        }
        let big = w.op_cost();
        assert!(big.enq_instrs > small.enq_instrs);
    }

    #[test]
    fn policy_kind_builds_matching_impl() {
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::Lifo,
            PolicyKind::Chunked(8),
            PolicyKind::Obim(3),
            PolicyKind::Strict,
        ] {
            let mut w = kind.build();
            w.push(t(3, 1));
            assert_eq!(w.len(), 1);
            assert_eq!(w.pop().unwrap().node, 1);
            assert!(!kind.label().is_empty());
        }
        assert!(PolicyKind::Obim(2).is_ordered());
        assert!(!PolicyKind::Fifo.is_ordered());
    }

    #[test]
    fn chunked_rejects_zero_chunk() {
        let r = std::panic::catch_unwind(|| ChunkedFifo::new(0));
        assert!(r.is_err());
    }
}
