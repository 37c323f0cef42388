//! Bounded-memory streaming CSR construction (external sort).
//!
//! [`crate::io::stream_edges`] delivers edges one at a time; this module
//! buffers them, sorts each full buffer in place and spills it to a
//! temp-file *run* of 12-byte `(src, dst, weight)` records in 64 KiB
//! blocks, then merges the runs into canonical `(src, dst, weight)` order
//! through a loser tree, reading each run back a block at a time. Because
//! the merged stream visits sources in ascending order, the CSR sections
//! fall out sequentially, so the full edge list is never resident.
//!
//! The work runs on two threads when the process may use a second CPU
//! (`crate::pipeline`): the parser fills one run buffer while a helper
//! sorts and spills the previous one, and the merge fills one buffer with
//! merged records while the helper closes out the row pointers, hashes the
//! sections and writes them from the previous one. On one CPU the same
//! stages run inline, with one buffer.
//!
//! In-core memory is the run buffers and the row-pointer array (8 bytes
//! per node). The budget holds `budget_bytes / 12` edges, split evenly
//! between the buffers in circulation (two with a helper, so a run holds
//! `budget_bytes / 24` edges, and one without), each at least 4096 edges:
//! 12 bytes each once weights differ, or 8 while every weight agrees (any
//! unweighted input), when only the packed `(src, dst)` keys are kept. A
//! buffer whose weights first differ past its midpoint is handed on there,
//! so switching to whole records never overshoots the budget, and sorting
//! needs no scratch. The merge adds one 64 KiB block per run and reuses
//! the emptied run buffers to carry merged records to the helper.
//! A scale-20 RMAT edge list (16.8M lines, 31.4M directed edges kept)
//! ingests under a 32 MiB budget in 12 runs at about 3.3M input edges/s
//! on one CPU of a 2-vCPU Xeon host (EXPERIMENTS.md, "Real inputs"); with
//! two CPUs it takes 24 runs.
//!
//! Two sinks consume the merged stream:
//!
//! * [`ingest_to_csr`] — assembles an in-memory [`Csr`] (the sections are
//!   the only O(edges) memory),
//! * [`ingest_to_image`] — streams the col/weight sections through temp
//!   files into a `minnow-csr-image/v2` file ([`crate::image`]), keeping
//!   only the row-pointer array in RAM.
//!
//! The output is canonical: independent of input edge order and of the
//! memory budget (the merged stream is the sorted multiset either way), so
//! `ingest(shuffled edges) == ingest(sorted edges)` — the property pinned
//! by the conformance suite. Adjacency lists come out sorted, so the
//! result always has [`Csr::is_sorted`] set.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::csr::{Csr, NodeId};
use crate::image;
use crate::io::{row_ptr_for, stream_edges, GraphSource, ParseError};
use crate::pipeline::Relay;

/// Knobs for one ingestion pass.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Collapse parallel `(src, dst)` duplicates, keeping the smallest
    /// weight (matching [`Csr::symmetrize`]'s tie rule).
    pub dedup: bool,
    /// Drop `v -> v` self-loops at intake.
    pub drop_self_loops: bool,
    /// Emit the reverse of every edge, making the graph symmetric
    /// (combine with `dedup` to avoid doubled undirected edges).
    pub symmetrize: bool,
    /// Discard weights even when the input carries them.
    pub strip_weights: bool,
    /// Target size of the in-core run buffer in bytes (12 bytes per
    /// buffered edge, 8 while every weight agrees). The floor is one
    /// 4096-edge buffer.
    pub budget_bytes: usize,
    /// Minimum node count for the output (formats without a node-count
    /// header otherwise trim to the largest id seen).
    pub nodes_hint: Option<u64>,
    /// Where spill runs and section streams go; defaults to the system
    /// temp directory.
    pub temp_dir: Option<PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            dedup: false,
            drop_self_loops: false,
            symmetrize: false,
            strip_weights: false,
            budget_bytes: 256 << 20,
            nodes_hint: None,
            temp_dir: None,
        }
    }
}

/// What one ingestion pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Edges the parser delivered (before symmetrization/dedup).
    pub edges_read: u64,
    /// Directed edges in the output CSR.
    pub edges_kept: u64,
    /// Nodes in the output CSR.
    pub nodes: u64,
    /// Whether the output carries weights.
    pub weighted: bool,
    /// Sorted runs merged (1 means the input fit in the run buffer).
    pub runs: usize,
}

/// Unique-ish tag so concurrent ingests never collide on temp names.
fn temp_tag() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Bytes per spilled `(src, dst, weight)` record.
const REC_BYTES: usize = 12;

/// Records per spill block: 64 KiB of whole records.
const BLOCK_RECS: usize = image::BLOCK_BYTES / REC_BYTES;

/// An edge's `(src, dst)` as one integer in `(src, dst)` order.
fn edge_key(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// A record as one integer whose order is `(src, dst, weight)` order.
fn pack(key: u64, w: u32) -> u128 {
    (u128::from(key) << 32) | u128::from(w)
}

/// The packed record of an exhausted run: above every real record, since
/// a source id is never `u32::MAX`.
const EXHAUSTED: u128 = u128::MAX >> 32;

/// The edges buffered for the current run.
enum RunBuf {
    /// Every edge so far carries `weight` (any unweighted input), so only
    /// the [`edge_key`]s are kept: 8 bytes per edge, sorted in place.
    Uniform { keys: Vec<u64>, weight: u32 },
    /// Weights differ: whole `(src, dst, weight)` records, 12 bytes per
    /// edge, sorted in place.
    Mixed(Vec<(u32, u32, u32)>),
}

/// How many edges a run buffer may hold in each layout.
#[derive(Debug, Clone, Copy)]
struct Caps {
    /// Packed keys, 8 bytes each.
    keys: usize,
    /// Whole records, 12 bytes each.
    recs: usize,
}

impl Caps {
    /// The caps of a buffer with `bytes` of the budget, each at least 4096
    /// edges.
    fn of(bytes: usize) -> Caps {
        Caps {
            keys: (bytes / 8).max(4096),
            recs: (bytes / REC_BYTES).max(4096),
        }
    }

    /// The same caps, but no more than `edges` in either layout.
    fn at_most(self, edges: usize) -> Caps {
        Caps {
            keys: self.keys.min(edges),
            recs: self.recs.min(edges),
        }
    }
}

impl RunBuf {
    /// An empty keys-only buffer with room for the edges to come.
    fn new(caps: Caps) -> RunBuf {
        RunBuf::Uniform {
            keys: Vec::with_capacity(caps.keys.min(1 << 20)),
            weight: 0,
        }
    }

    fn len(&self) -> usize {
        match self {
            RunBuf::Uniform { keys, .. } => keys.len(),
            RunBuf::Mixed(recs) => recs.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            RunBuf::Uniform { keys, .. } => keys.clear(),
            RunBuf::Mixed(recs) => recs.clear(),
        }
    }

    /// Sorts the buffer into `(src, dst, weight)` order.
    fn sort(&mut self) {
        match self {
            RunBuf::Uniform { keys, .. } => keys.sort_unstable(),
            RunBuf::Mixed(recs) => recs.sort_unstable(),
        }
    }

    /// Appends an edge unless the buffer must be handed on first: when it
    /// is full, or when a second weight arrives past half of `caps.recs`.
    /// Converting keys to whole records holds both at once, 20 bytes per
    /// edge, which past that point would overshoot the budget. Returns
    /// whether the edge went in; an empty buffer always takes it.
    #[inline]
    fn push(&mut self, caps: Caps, u: u32, v: u32, w: u32) -> bool {
        // The common case, as one comparison and a store: room below both
        // the cap and the allocation, and no change of weight.
        match self {
            RunBuf::Uniform { keys, weight }
                if *weight == w
                    && !keys.is_empty()
                    && keys.len() < caps.keys.min(keys.capacity()) =>
            {
                keys.push(edge_key(u, v));
                return true;
            }
            RunBuf::Mixed(recs) if recs.len() < caps.recs.min(recs.capacity()) => {
                recs.push((u, v, w));
                return true;
            }
            _ => {}
        }
        self.push_slow(caps, u, v, w)
    }

    #[cold]
    #[inline(never)]
    fn push_slow(&mut self, caps: Caps, u: u32, v: u32, w: u32) -> bool {
        if let RunBuf::Uniform { keys, weight } = self {
            if keys.len() == caps.keys {
                return false;
            }
            if keys.is_empty() {
                *weight = w;
            }
            if *weight == w {
                push_capped(keys, caps.keys, edge_key(u, v));
                return true;
            }
            if keys.len() > caps.recs / 2 {
                return false;
            }
            let mut recs = Vec::with_capacity(keys.len().max(caps.recs.min(1 << 20)));
            let uniform = *weight;
            recs.extend(
                keys.iter()
                    .map(|&key| ((key >> 32) as u32, key as u32, uniform)),
            );
            *self = RunBuf::Mixed(recs);
        }
        if let RunBuf::Mixed(recs) = self {
            if recs.len() == caps.recs {
                return false;
            }
            push_capped(recs, caps.recs, (u, v, w));
        }
        true
    }

    /// The buffered `(src, dst, weight)` records, in buffer order.
    fn records(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let (keys, weight, recs) = match self {
            RunBuf::Uniform { keys, weight } => (&keys[..], *weight, &[][..]),
            RunBuf::Mixed(recs) => (&[][..], 0, &recs[..]),
        };
        let uniform = keys
            .iter()
            .map(move |&key| ((key >> 32) as u32, key as u32, weight));
        uniform.chain(recs.iter().copied())
    }
}

/// Pushes onto a run buffer, growing it by doubling but never past `cap`.
fn push_capped<T>(buf: &mut Vec<T>, cap: usize, item: T) {
    if buf.len() == buf.capacity() {
        buf.reserve_exact(buf.len().min(cap - buf.len()).max(1));
    }
    buf.push(item);
}

/// The spill stage: sorts each full run buffer, writes it to a temp-file
/// run and empties it. Removes its runs when dropped.
struct Spiller {
    runs: Vec<PathBuf>,
    dir: PathBuf,
    tag: String,
    /// Encoding buffer for run writes.
    block: Vec<u8>,
}

impl Spiller {
    fn new(opts: &IngestOptions) -> Spiller {
        Spiller {
            runs: Vec::new(),
            dir: opts
                .temp_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir),
            tag: temp_tag(),
            block: Vec::with_capacity(RUN_BLOCK),
        }
    }

    fn spill(&mut self, buf: &mut RunBuf) -> std::io::Result<()> {
        buf.sort();
        let path = self
            .dir
            .join(format!("minnow-ingest-{}-run{}.tmp", self.tag, self.runs.len()));
        let mut file = File::create(&path)?;
        self.runs.push(path);
        write_run(&mut file, &mut self.block, buf.records())?;
        buf.clear();
        Ok(())
    }
}

impl Drop for Spiller {
    fn drop(&mut self) {
        for p in &self.runs {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Fills run buffers by the rules of [`RunBuf::push`] and hands each full
/// one to a relay's stage, refilling the emptied ones it gets back. The
/// intake hands runs to the spill stage this way, and the merge hands
/// merged records to the sink stage in the same buffers.
struct Buffers<'scope, F> {
    buf: RunBuf,
    caps: Caps,
    stage: Relay<'scope, RunBuf, F>,
    /// Emptied buffers not in use.
    spare: Vec<RunBuf>,
    /// Buffers handed to the stage so far.
    passed: usize,
}

impl<'scope, F: FnMut(&mut RunBuf) -> std::io::Result<()> + Send + 'scope> Buffers<'scope, F> {
    fn new(caps: Caps, stage: Relay<'scope, RunBuf, F>, mut spare: Vec<RunBuf>) -> Self {
        Buffers {
            buf: spare.pop().unwrap_or_else(|| RunBuf::new(caps)),
            caps,
            stage,
            spare,
            passed: 0,
        }
    }

    #[inline]
    fn push(&mut self, u: u32, v: u32, w: u32) -> std::io::Result<()> {
        if !self.buf.push(self.caps, u, v, w) {
            self.pass()?;
            self.buf.push(self.caps, u, v, w);
        }
        Ok(())
    }

    /// Hands the current buffer to the stage and takes an empty one.
    fn pass(&mut self) -> std::io::Result<()> {
        let full = std::mem::replace(&mut self.buf, RunBuf::Mixed(Vec::new()));
        self.buf = match self.stage.pass(full)? {
            Some(empty) => empty,
            None => self.spare.pop().unwrap_or_else(|| RunBuf::new(self.caps)),
        };
        self.passed += 1;
        Ok(())
    }

    /// Waits for the stage; returns the current buffer and the others.
    fn finish(self) -> std::io::Result<(RunBuf, Vec<RunBuf>)> {
        let mut others = self.stage.finish()?;
        others.extend(self.spare);
        Ok((self.buf, others))
    }
}

/// Writes sorted records as one spill run of little-endian `(src, dst,
/// weight)` triples, a 64 KiB block per write.
fn write_run(
    out: &mut impl Write,
    block: &mut Vec<u8>,
    recs: impl Iterator<Item = (u32, u32, u32)>,
) -> std::io::Result<()> {
    block.clear();
    for (a, b, c) in recs {
        block.extend_from_slice(&a.to_le_bytes());
        block.extend_from_slice(&b.to_le_bytes());
        block.extend_from_slice(&c.to_le_bytes());
        if block.len() == RUN_BLOCK {
            out.write_all(block)?;
            block.clear();
        }
    }
    out.write_all(block)
}

/// Bytes of one run reader's block: 64 KiB of whole records.
const RUN_BLOCK: usize = BLOCK_RECS * REC_BYTES;

/// Reads one spilled run back a block at a time.
struct RunReader<'a> {
    file: File,
    block: &'a mut [u8],
    /// Next unread byte of `block`.
    pos: usize,
    /// Bytes of `block` holding data.
    len: usize,
}

impl<'a> RunReader<'a> {
    fn new(file: File, block: &'a mut [u8]) -> RunReader<'a> {
        RunReader {
            file,
            block,
            pos: 0,
            len: 0,
        }
    }

    /// The next record, packed, or [`EXHAUSTED`] at the end of the run.
    fn next_rec(&mut self) -> std::io::Result<u128> {
        if self.len - self.pos < REC_BYTES {
            self.refill()?;
            if self.len == 0 {
                return Ok(EXHAUSTED);
            }
        }
        let word = |i: usize| {
            let at = self.pos + 4 * i;
            u32::from_le_bytes(self.block[at..at + 4].try_into().expect("4-byte slice"))
        };
        let rec = pack(edge_key(word(0), word(1)), word(2));
        self.pos += REC_BYTES;
        Ok(rec)
    }

    /// Moves the unread tail to the front and reads until the block is
    /// full or the run ends. A tail shorter than a record at the end of
    /// the run is a truncated run.
    fn refill(&mut self) -> std::io::Result<()> {
        self.block.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.pos = 0;
        while self.len < self.block.len() {
            match self.file.read(&mut self.block[self.len..]) {
                Ok(0) => break,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.len > 0 && self.len < REC_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "spill run truncated (disk full during ingest?)",
            ));
        }
        Ok(())
    }
}

/// A tournament tree over the runs' current packed records. Each node
/// holds a record shifted above its run index, so a match is one integer
/// comparison with no lookup; replacing the winner replays only its
/// leaf-to-root path, one comparison per level, where a binary heap pays a
/// pop and a push.
struct LoserTree {
    /// `nodes[0]` is the winner; `nodes[1..]` hold the loser of the match
    /// at each internal node, with leaf `i` at position `k + i`.
    nodes: Vec<u128>,
    leaves: usize,
}

impl LoserTree {
    fn new(heads: Vec<u128>) -> LoserTree {
        let k = heads.len();
        let mut winners = vec![0u128; 2 * k];
        for (run, rec) in heads.into_iter().enumerate() {
            winners[k + run] = (rec << 32) | run as u128;
        }
        let mut nodes = vec![0; k];
        for p in (1..k).rev() {
            let (a, b) = (winners[2 * p], winners[2 * p + 1]);
            winners[p] = a.min(b);
            nodes[p] = a.max(b);
        }
        nodes[0] = winners[1];
        LoserTree { nodes, leaves: k }
    }

    /// The winning run and its record.
    fn winner(&self) -> (usize, u128) {
        let top = self.nodes[0];
        (top as u32 as usize, top >> 32)
    }

    /// Gives the winning run its next record and replays its path to the
    /// root.
    fn replace_winner(&mut self, rec: u128) {
        let run = self.nodes[0] as u32 as usize;
        let mut win = (rec << 32) | run as u128;
        let mut p = (run + self.leaves) / 2;
        while p > 0 {
            let other = self.nodes[p];
            self.nodes[p] = other.max(win);
            win = other.min(win);
            p /= 2;
        }
        self.nodes[0] = win;
    }
}

/// Closes out the row-pointer array over the merged stream and applies
/// dedup.
struct Builder {
    row_ptr: Vec<u64>,
    kept: u64,
    last: Option<(u32, u32)>,
    dedup: bool,
    nodes: u64,
}

impl Builder {
    fn new(nodes: u64, dedup: bool) -> Result<Builder, ParseError> {
        let mut row_ptr = row_ptr_for(nodes)?;
        row_ptr.push(0);
        Ok(Builder {
            row_ptr,
            kept: 0,
            last: None,
            dedup,
            nodes,
        })
    }

    /// Processes one merged edge; returns whether to keep it.
    fn accept(&mut self, u: u32, v: u32) -> bool {
        if self.dedup && self.last == Some((u, v)) {
            return false;
        }
        self.last = Some((u, v));
        // Close out row_ptr entries for every source up to and including u.
        // The merged stream is ascending in u, so this advances monotonically.
        while self.row_ptr.len() <= u as usize {
            self.row_ptr.push(self.kept);
        }
        self.kept += 1;
        true
    }

    fn finish(mut self) -> Vec<u64> {
        while self.row_ptr.len() <= self.nodes as usize {
            self.row_ptr.push(self.kept);
        }
        self.row_ptr
    }
}

/// Where the intake left the sorted edges.
enum Runs {
    /// The input fit in one buffer, which the merge sorts in place.
    InCore(RunBuf),
    /// Every run is in the [`Spiller`]'s files, and the emptied run
    /// buffers carry the merged records to the sink stage.
    Spilled { spent: Vec<RunBuf> },
}

/// What the intake half leaves for the merge.
struct Intake {
    /// Owns the run files, and removes them when dropped.
    spiller: Spiller,
    /// What each run buffer may hold.
    caps: Caps,
    runs: Runs,
    edges_read: u64,
    nodes: u64,
    weighted: bool,
}

/// Intake half shared by both sinks: parses on this thread while the spill
/// stage sorts and writes the previous run buffer.
fn fill<R: Read>(
    source: GraphSource,
    reader: R,
    opts: &IngestOptions,
) -> Result<Intake, ParseError> {
    let mut spiller = Spiller::new(opts);
    let mut edges_read = 0u64;
    let (mut any, mut max_id) = (false, 0u64);
    let drop_loops = opts.drop_self_loops;
    let symmetrize = opts.symmetrize;
    let (info, caps, runs) = std::thread::scope(|s| {
        let spill = Relay::new(s, |buf: &mut RunBuf| spiller.spill(buf));
        // The buffers in circulation share the budget.
        let caps = Caps::of(opts.budget_bytes / spill.items());
        let mut buffers = Buffers::new(caps, spill, Vec::new());
        let parsed = stream_edges(source, reader, |u, v, w| {
            edges_read += 1;
            if drop_loops && u == v {
                return Ok(());
            }
            any = true;
            max_id = max_id.max(u as u64).max(v as u64);
            buffers.push(u, v, w)?;
            if symmetrize && u != v {
                buffers.push(v, u, w)?;
            }
            Ok(())
        });
        // A lone run stays in core; otherwise the last one spills too.
        let spilled = buffers.passed > 0;
        let parsed = parsed.and_then(|info| {
            if spilled && buffers.buf.len() > 0 {
                buffers.pass()?;
            }
            Ok(info)
        });
        // A spill failure wins over a parse error: the run it comes from
        // holds input that precedes anything still being parsed.
        let (last, mut spent) = buffers.finish()?;
        let runs = if spilled {
            spent.push(last);
            Runs::Spilled { spent }
        } else {
            Runs::InCore(last)
        };
        Ok::<_, ParseError>((parsed?, caps, runs))
    })?;
    let declared = info.declared_nodes.unwrap_or(0);
    let hinted = opts.nodes_hint.unwrap_or(0);
    let seen = if any { max_id + 1 } else { 0 };
    Ok(Intake {
        spiller,
        caps,
        runs,
        edges_read,
        nodes: declared.max(hinted).max(seen),
        weighted: info.weighted && !opts.strip_weights,
    })
}

/// Merges the intake into ascending `(src, dst, weight)` order. `take`
/// sees every record on the sink stage, a run buffer at a time, while the
/// merge fills the next buffer. Returns the number of runs merged.
fn merge(
    intake: &mut Intake,
    mut take: impl FnMut(u32, u32, u32) -> std::io::Result<()> + Send,
) -> std::io::Result<usize> {
    std::thread::scope(|s| {
        let mut sink = Relay::new(s, |buf: &mut RunBuf| {
            buf.records().try_for_each(|(u, v, w)| take(u, v, w))?;
            buf.clear();
            Ok(())
        });
        match std::mem::replace(&mut intake.runs, Runs::Spilled { spent: Vec::new() }) {
            Runs::InCore(mut buf) => {
                // Everything fit in core: one implicit run.
                buf.sort();
                sink.pass(buf)?;
                sink.finish()?;
                Ok(1)
            }
            Runs::Spilled { spent } => {
                let runs = &intake.spiller.runs;
                // One allocation for every reader's block, which goes back
                // to the system whole when the merge ends.
                let mut blocks = vec![0u8; runs.len() * RUN_BLOCK];
                let mut readers = Vec::with_capacity(runs.len());
                let mut heads = Vec::with_capacity(runs.len());
                for (path, block) in runs.iter().zip(blocks.chunks_mut(RUN_BLOCK)) {
                    let mut reader = RunReader::new(File::open(path)?, block);
                    heads.push(reader.next_rec()?);
                    readers.push(reader);
                }
                let mut tree = LoserTree::new(heads);
                // With a helper, a hand-off is a whole run buffer, since a
                // wake-up costs tens of microseconds or more; inline, it is a
                // part that stays in cache until the stage reads it back.
                let part = if sink.items() > 1 {
                    intake.caps
                } else {
                    intake.caps.at_most(1 << 14)
                };
                let mut out = Buffers::new(part, sink, spent);
                loop {
                    let (run, rec) = tree.winner();
                    if rec == EXHAUSTED {
                        break;
                    }
                    out.push((rec >> 64) as u32, (rec >> 32) as u32, rec as u32)?;
                    tree.replace_winner(readers[run].next_rec()?);
                }
                out.pass()?;
                out.finish()?;
                Ok(runs.len())
            }
        }
    })
}

/// Streams `reader` (parsed as `source`) through the external sorter into
/// an in-memory [`Csr`] in canonical order.
///
/// The result is independent of the input's edge order and of
/// `budget_bytes`; adjacency lists are sorted, so `is_sorted()` holds. The
/// first weight in canonical order survives dedup — i.e. the minimum
/// weight among duplicates, matching [`Csr::symmetrize`].
///
/// # Errors
///
/// Returns [`ParseError`] for malformed input or I/O failure (including
/// spill-file I/O). [`GraphSource::Image`] inputs are refused — load them
/// with [`crate::image::load_image`].
pub fn ingest_to_csr<R: Read>(
    source: GraphSource,
    reader: R,
    opts: &IngestOptions,
) -> Result<(Csr, IngestReport), ParseError> {
    let mut intake = fill(source, reader, opts)?;
    let weighted = intake.weighted;
    let mut builder = Builder::new(intake.nodes, opts.dedup)?;
    let mut col: Vec<NodeId> = Vec::new();
    let mut weights: Vec<u32> = Vec::new();
    let runs = merge(&mut intake, |u, v, w| {
        if builder.accept(u, v) {
            col.push(v);
            if weighted {
                weights.push(w);
            }
        }
        Ok(())
    })?;
    let kept = col.len() as u64;
    let row_ptr = builder.finish();
    let graph = Csr::from_parts(row_ptr, col, weights, true)
        .map_err(|e| ParseError::Image { message: e })?;
    Ok((
        graph,
        IngestReport {
            edges_read: intake.edges_read,
            edges_kept: kept,
            nodes: intake.nodes,
            weighted,
            runs,
        },
    ))
}

/// Streams `reader` (parsed as `source`) through the external sorter
/// directly into a `minnow-csr-image/v2` file at `image_path`, keeping
/// only the run buffers and the row-pointer array in memory — the col and
/// weight sections pass through temp files.
///
/// # Errors
///
/// As [`ingest_to_csr`]; additionally propagates failures writing the
/// image or its temp section files.
pub fn ingest_to_image<R: Read>(
    source: GraphSource,
    reader: R,
    image_path: &Path,
    opts: &IngestOptions,
) -> Result<IngestReport, ParseError> {
    let intake = fill(source, reader, opts)?;
    let dir = opts
        .temp_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let tag = temp_tag();
    let col_path = dir.join(format!("minnow-ingest-{tag}-col.tmp"));
    let w_path = dir.join(format!("minnow-ingest-{tag}-wts.tmp"));
    let result = ingest_to_image_inner(intake, opts, image_path, &col_path, &w_path);
    let _ = std::fs::remove_file(&col_path);
    let _ = std::fs::remove_file(&w_path);
    result
}

fn ingest_to_image_inner(
    mut intake: Intake,
    opts: &IngestOptions,
    image_path: &Path,
    col_path: &Path,
    w_path: &Path,
) -> Result<IngestReport, ParseError> {
    // Read+write handles: assemble_image rewinds and copies these back out.
    let section_file = |p: &Path| {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(p)
    };
    let mut col_out = SectionSink::new(section_file(col_path)?);
    let mut w_out = if intake.weighted {
        Some(SectionSink::new(section_file(w_path)?))
    } else {
        None
    };
    let mut builder = Builder::new(intake.nodes, opts.dedup)?;
    let runs = merge(&mut intake, |u, v, w| {
        if builder.accept(u, v) {
            col_out.push(v)?;
            if let Some(out) = &mut w_out {
                out.push(w)?;
            }
        }
        Ok(())
    })?;
    let kept = builder.kept;
    let row_ptr = builder.finish();
    let (mut col_file, col_digest) = col_out.finish()?;
    let mut weights = match w_out {
        Some(out) => Some(out.finish()?),
        None => None,
    };
    image::assemble_image(
        image_path,
        &row_ptr,
        true, // canonical order sorts every adjacency list
        &mut col_file,
        col_digest,
        weights.as_mut().map(|(f, digest)| (f, *digest)),
        kept,
    )?;
    Ok(IngestReport {
        edges_read: intake.edges_read,
        edges_kept: kept,
        nodes: intake.nodes,
        weighted: intake.weighted,
        runs,
    })
}

/// One image section streamed to a temp file in 64 KiB blocks, each block
/// added to the section's digests as it is written.
struct SectionSink {
    file: File,
    block: Vec<u8>,
    digest: image::SectionDigest,
}

impl SectionSink {
    fn new(file: File) -> SectionSink {
        SectionSink {
            file,
            block: Vec::with_capacity(image::BLOCK_BYTES),
            digest: image::SectionDigest::new(),
        }
    }

    fn push(&mut self, word: u32) -> std::io::Result<()> {
        self.block.extend_from_slice(&word.to_le_bytes());
        if self.block.len() == image::BLOCK_BYTES {
            self.write_block()?;
        }
        Ok(())
    }

    fn write_block(&mut self) -> std::io::Result<()> {
        self.digest.update(&self.block);
        self.file.write_all(&self.block)?;
        self.block.clear();
        Ok(())
    }

    /// Writes the last partial block; returns the file and its digests.
    fn finish(mut self) -> std::io::Result<(File, image::SectionDigest)> {
        self.write_block()?;
        Ok((self.file, self.digest))
    }
}

/// [`ingest_to_csr`] over a file path, with format auto-detection.
///
/// # Errors
///
/// As [`ingest_to_csr`], plus file-open failures.
pub fn ingest_file_to_csr(
    path: &Path,
    source: Option<GraphSource>,
    opts: &IngestOptions,
) -> Result<(Csr, IngestReport), ParseError> {
    let source = source.unwrap_or_else(|| GraphSource::detect(path));
    ingest_to_csr(source, File::open(path)?, opts)
}

/// [`ingest_to_image`] over a file path, with format auto-detection.
///
/// # Errors
///
/// As [`ingest_to_image`], plus file-open failures.
pub fn ingest_file_to_image(
    path: &Path,
    source: Option<GraphSource>,
    image_path: &Path,
    opts: &IngestOptions,
) -> Result<IngestReport, ParseError> {
    let source = source.unwrap_or_else(|| GraphSource::detect(path));
    ingest_to_image(source, File::open(path)?, image_path, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(edges: &[(u32, u32, u32)], nodes: usize, weighted: bool) -> Csr {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        let pairs: Vec<(NodeId, NodeId)> = sorted.iter().map(|&(u, v, _)| (u, v)).collect();
        let ws: Vec<u32> = sorted.iter().map(|&(_, _, w)| w).collect();
        let mut g = Csr::from_edges(nodes, &pairs, if weighted { Some(&ws) } else { None });
        g.sort_adjacency();
        g
    }

    fn as_edge_list(edges: &[(u32, u32, u32)]) -> String {
        edges
            .iter()
            .map(|&(u, v, w)| format!("{u} {v} {w}\n"))
            .collect()
    }

    #[test]
    fn stream_build_matches_in_memory_build() {
        let edges = [(3u32, 1u32, 5u32), (0, 2, 1), (3, 0, 9), (1, 3, 2), (0, 1, 4)];
        let text = as_edge_list(&edges);
        let (g, report) =
            ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &IngestOptions::default())
                .unwrap();
        assert_eq!(g, canonical(&edges, 4, true));
        assert!(g.is_sorted());
        assert_eq!(report.edges_read, 5);
        assert_eq!(report.edges_kept, 5);
        assert_eq!(report.nodes, 4);
        assert!(report.weighted);
        assert_eq!(report.runs, 1);
    }

    #[test]
    fn tiny_budget_forces_spills_without_changing_output() {
        let edges: Vec<(u32, u32, u32)> = (0..20000u32)
            .map(|i| ((i * 7919) % 503, (i * 104729) % 503, 1 + i % 9))
            .collect();
        let text = as_edge_list(&edges);
        let big = ingest_to_csr(
            GraphSource::EdgeList,
            text.as_bytes(),
            &IngestOptions::default(),
        )
        .unwrap();
        let tiny = ingest_to_csr(
            GraphSource::EdgeList,
            text.as_bytes(),
            &IngestOptions {
                budget_bytes: 1, // floors at 4096 records -> ~5 runs
                ..IngestOptions::default()
            },
        )
        .unwrap();
        assert!(tiny.1.runs > 1, "expected spills, got {} run(s)", tiny.1.runs);
        assert_eq!(big.0, tiny.0);
        assert_eq!(big.1.edges_kept, tiny.1.edges_kept);
    }

    /// SplitMix64 stream for the sorter and merge tests.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn run_sorter_merges_like_a_sort() {
        let mut next = splitmix(7);
        let mut edge = |w: Option<u32>| {
            let r = next();
            let w = w.unwrap_or_else(|| next() as u32);
            (r as u32 >> 1, (r >> 32) as u32 >> 1, w)
        };
        // Runs hold 4096 edges. Each case is (uniform-weight prefix, then
        // edges with full-range weights) and the runs it must merge.
        for (uniform, mixed, runs) in [
            (0, 0, 1),
            (3000, 0, 1),      // keys only
            (0, 3000, 1),      // whole records from the start
            (1000, 2000, 1),   // converts to records before half a run
            (3000, 500, 2),    // past half a run: the keys spill first
            (5000, 0, 2),      // keys only, spilled
            (100, 10_000, 3),  // records, spilled
            (9000, 3000, 3),   // keys spill twice; 808 keys convert, + 3000
        ] {
            let mut expected: Vec<(u32, u32, u32)> = (0..uniform + mixed)
                .map(|i| edge((i < uniform).then_some(7)))
                .collect();
            let text: String = expected
                .iter()
                .map(|&(u, v, w)| format!("{u} {v} {w}\n"))
                .collect();
            let opts = IngestOptions {
                budget_bytes: 1,
                ..IngestOptions::default()
            };
            let mut intake = fill(GraphSource::EdgeList, text.as_bytes(), &opts).unwrap();
            let mut merged = Vec::new();
            let merged_runs = merge(&mut intake, |u, v, w| {
                merged.push((u, v, w));
                Ok(())
            })
            .unwrap();
            expected.sort_unstable();
            assert_eq!(merged, expected, "uniform={uniform} mixed={mixed}");
            assert_eq!(merged_runs, runs, "uniform={uniform} mixed={mixed}");
        }
    }

    #[test]
    fn loser_tree_merges_like_a_sort() {
        let mut next = splitmix(11);
        for k in 1..=13 {
            let mut runs: Vec<Vec<u128>> = (0..k)
                .map(|i| {
                    let mut run: Vec<u128> = (0..(i * 37) % 50)
                        .map(|_| u128::from(next() % 64))
                        .collect();
                    run.sort_unstable();
                    run
                })
                .collect();
            let mut expected: Vec<u128> = runs.concat();
            expected.sort_unstable();
            for run in &mut runs {
                run.reverse(); // pop from the back in ascending order
            }
            let head = |run: &mut Vec<u128>| run.pop().unwrap_or(EXHAUSTED);
            let mut tree = LoserTree::new(runs.iter_mut().map(head).collect());
            let mut merged = Vec::new();
            loop {
                let (run, key) = tree.winner();
                if key == EXHAUSTED {
                    break;
                }
                merged.push(key);
                tree.replace_winner(head(&mut runs[run]));
            }
            assert_eq!(merged, expected, "k={k}");
        }
    }

    #[test]
    fn truncated_spill_runs_fail_cleanly() {
        let n = 2 * BLOCK_RECS as u32 + 100;
        let written: Vec<(u32, u32, u32)> = (0..n).map(|i| (i / 7, i, i % 5)).collect();
        let path = std::env::temp_dir().join(format!(
            "minnow-ingest-test-{}-truncated.tmp",
            std::process::id()
        ));
        let mut bytes = Vec::new();
        write_run(&mut bytes, &mut Vec::new(), written.iter().copied()).unwrap();
        assert_eq!(bytes.len(), written.len() * REC_BYTES);
        let block = RUN_BLOCK;
        for cut in [
            REC_BYTES * 10 + 5,        // mid-record in the first block
            block + REC_BYTES * 7 + 3, // mid-record, mid-block, in the second
            block + 5,                 // a partial record just past a block
            block,                     // whole records only: no error
            bytes.len() - 1,           // the last byte missing
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut block = vec![0; RUN_BLOCK];
            let mut reader = RunReader::new(File::open(&path).unwrap(), &mut block);
            let mut recs = Vec::new();
            let end = loop {
                match reader.next_rec() {
                    Ok(EXHAUSTED) => break Ok(()),
                    Ok(rec) => recs.push(rec),
                    Err(e) => break Err(e),
                }
            };
            let whole = cut / REC_BYTES;
            let expected: Vec<u128> = written[..whole]
                .iter()
                .map(|&(u, v, w)| pack(edge_key(u, v), w))
                .collect();
            assert_eq!(recs, expected, "cut={cut}: every whole record comes back");
            if cut % REC_BYTES == 0 {
                assert!(end.is_ok(), "cut={cut}");
            } else {
                let err = end.unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut={cut}");
                assert!(err.to_string().contains("spill run truncated"), "{err}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dedup_keeps_min_weight_and_loops_drop() {
        let text = "2 1 9\n2 1 3\n2 1 7\n1 1 5\n0 2 4\n";
        let (g, report) = ingest_to_csr(
            GraphSource::EdgeList,
            text.as_bytes(),
            &IngestOptions {
                dedup: true,
                drop_self_loops: true,
                ..IngestOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.edges_read, 5);
        assert_eq!(report.edges_kept, 2);
        assert_eq!(g.neighbors(2), &[1]);
        let e = g.edge_range(2).start;
        assert_eq!(g.edge_weight(e), 3, "min weight among duplicates survives");
        assert_eq!(g.out_degree(1), 0, "self-loop dropped");
    }

    #[test]
    fn symmetrize_dedup_matches_csr_symmetrize() {
        let raw = [(0u32, 1u32), (1, 2), (2, 0), (1, 0), (3, 1)];
        let text: String = raw.iter().map(|&(u, v)| format!("{u} {v}\n")).collect();
        let (g, _) = ingest_to_csr(
            GraphSource::EdgeList,
            text.as_bytes(),
            &IngestOptions {
                dedup: true,
                symmetrize: true,
                drop_self_loops: true,
                ..IngestOptions::default()
            },
        )
        .unwrap();
        let reference = Csr::from_edges(4, &raw, None).symmetrize();
        assert_eq!(g, reference);
    }

    #[test]
    fn nodes_hint_pads_isolated_tail() {
        let (g, report) = ingest_to_csr(
            GraphSource::EdgeList,
            "0 1\n".as_bytes(),
            &IngestOptions {
                nodes_hint: Some(10),
                ..IngestOptions::default()
            },
        )
        .unwrap();
        assert_eq!(g.nodes(), 10);
        assert_eq!(report.nodes, 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn image_sink_matches_csr_sink() {
        let edges: Vec<(u32, u32, u32)> = (0..5000u32)
            .map(|i| ((i * 31) % 97, (i * 17) % 97, 1 + i % 5))
            .collect();
        let text = as_edge_list(&edges);
        let path = std::env::temp_dir().join(format!(
            "minnow-ingest-test-{}-sink.mcsr",
            std::process::id()
        ));
        let opts = IngestOptions {
            budget_bytes: 1,
            ..IngestOptions::default()
        };
        let (direct, r1) =
            ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &opts).unwrap();
        let r2 =
            ingest_to_image(GraphSource::EdgeList, text.as_bytes(), &path, &opts).unwrap();
        assert_eq!(r1, r2);
        for mode in [image::LoadMode::Read, image::LoadMode::Auto] {
            let loaded = image::load_image(&path, mode).unwrap();
            assert_eq!(direct, loaded);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_input_ingests_to_empty_graph() {
        let (g, report) = ingest_to_csr(
            GraphSource::EdgeList,
            "# nothing\n".as_bytes(),
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(g.nodes(), 0);
        assert_eq!(g.edges(), 0);
        assert_eq!(report.edges_read, 0);
    }

    #[test]
    fn parse_errors_propagate_not_panic() {
        let err = ingest_to_csr(
            GraphSource::EdgeList,
            "0 1\nbroken\n".as_bytes(),
            &IngestOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = ingest_to_csr(GraphSource::Image, &[][..], &IngestOptions::default())
            .unwrap_err();
        assert!(matches!(err, ParseError::Image { .. }));
    }
}
