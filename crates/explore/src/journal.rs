//! Append-only evaluation journal: the explorer's checkpoint.
//!
//! Every simulated evaluation — one configuration at one rung — becomes
//! one JSON line, appended and fsync'd per batch. A killed search
//! resumes by replaying its strategy against the journal: evaluations
//! already on disk are served from the cache instead of re-simulated,
//! so the resumed process continues exactly where the dead one
//! stopped, and (simulation being deterministic) the final frontier is
//! byte-identical to an uninterrupted run.
//!
//! The first line is a header binding the journal to a `(space, seed,
//! strategy, rungs)` tuple; resuming with different parameters is
//! refused rather than silently mixing incompatible results. A
//! truncated final line — the footprint of a process killed mid-write —
//! is tolerated and **repaired** (the torn bytes are truncated away, so
//! a later append cannot fuse with them into an unparsable interior
//! line); corruption anywhere else is an error. A cut inside a
//! multi-byte character is a torn line like any other, and a file cut
//! inside its header line holds no evaluations, so it starts over.
//!
//! # Open cost
//!
//! Journals are append-only, so a process-wide snapshot index keyed by
//! canonical path remembers each journal's parsed state up to its last
//! durable byte. Re-opening a snapshotted journal verifies the header
//! bytes, seeks to the durable offset, and parses only the tail — open
//! cost is O(new records), not O(file), which is what lets a resident
//! daemon re-open per-search journals thousands of times without
//! re-reading megabytes each time ([`Journal::bytes_scanned`] observes
//! this). The index assumes the single-writer discipline the journal
//! already requires; a file that shrank or changed its header falls
//! back to a full re-read.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use minnow_bench::json::JsonObject;

use crate::json_read::Json;
use crate::space::Rung;

/// Schema identifier stamped into the journal's header line.
pub const JOURNAL_SCHEMA: &str = "minnow-explore-journal/v1";

/// The identity a journal is bound to.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Space name.
    pub space: String,
    /// Sweep seed.
    pub seed: u64,
    /// Strategy label (`grid`, `random8`, `halving2`, ...).
    pub strategy: String,
    /// The space's rungs: scale factors serialize as numbers, external
    /// inputs as path strings.
    pub rungs: Vec<Rung>,
}

impl JournalHeader {
    fn to_json(&self) -> String {
        let mut rungs = String::from("[");
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                rungs.push(',');
            }
            let _ = write!(rungs, "{}", r.json_value());
        }
        rungs.push(']');
        JsonObject::new()
            .str("schema", JOURNAL_SCHEMA)
            .str("space", &self.space)
            .u64("seed", self.seed)
            .str("strategy", &self.strategy)
            .raw("rungs", &rungs)
            .finish()
    }

    fn from_json(doc: &Json) -> Result<JournalHeader, String> {
        let schema = doc.str_field("schema")?;
        if schema != JOURNAL_SCHEMA {
            return Err(format!("journal schema `{schema}` != `{JOURNAL_SCHEMA}`"));
        }
        let rungs = doc
            .get("rungs")
            .and_then(Json::as_array)
            .ok_or("missing `rungs` array")?
            .iter()
            .map(|v| {
                if let Some(s) = v.as_f64() {
                    Ok(Rung::Scale(s))
                } else if let Some(p) = v.as_str() {
                    Ok(Rung::Input(p.to_string()))
                } else {
                    Err("rung is neither a scale number nor an input path")
                }
            })
            .collect::<Result<Vec<Rung>, _>>()?;
        Ok(JournalHeader {
            space: doc.str_field("space")?.to_string(),
            seed: doc.u64_field("seed")?,
            strategy: doc.str_field("strategy")?.to_string(),
            rungs,
        })
    }

    /// Whether two headers describe the same search identity. Rungs are
    /// compared at the journal's serialization precision (six decimals
    /// for scales, exact paths for inputs).
    fn compatible(&self, other: &JournalHeader) -> bool {
        self.space == other.space
            && self.seed == other.seed
            && self.strategy == other.strategy
            && self.rungs.len() == other.rungs.len()
            && self
                .rungs
                .iter()
                .zip(&other.rungs)
                .all(|(a, b)| a.json_value() == b.json_value())
    }
}

fn identity_error(found: &JournalHeader, expected: &JournalHeader) -> ExploreError {
    ExploreError::Journal(format!(
        "journal belongs to a different search \
         (space {} seed {} strategy {} vs space {} seed {} strategy {}); \
         use a fresh journal path or delete it",
        found.space,
        found.seed,
        found.strategy,
        expected.space,
        expected.seed,
        expected.strategy,
    ))
}

/// One journaled evaluation: a configuration simulated at a rung.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Append sequence number (0-based; informational).
    pub seq: u64,
    /// Configuration id.
    pub id: String,
    /// Rung index into the space's ladder.
    pub rung: usize,
    /// The rung's scale factor (`0.0` for input rungs; the header's
    /// `rungs` array names the file).
    pub scale: f64,
    /// Derived input seed the point ran with.
    pub seed: u64,
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// Tasks executed — the search's cost currency.
    pub tasks: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Whether the simulation hit its task limit.
    pub timed_out: bool,
    /// Host wall time in microseconds (volatile: never feeds the
    /// frontier, so resumed journals may differ here and nowhere else).
    pub wall_us: u64,
}

impl EvalRecord {
    /// Serializes the record as one journal line (no trailing newline).
    /// Public because the `minnow-serve` worker protocol streams these
    /// same objects over its wire.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("seq", self.seq)
            .str("id", &self.id)
            .u64("rung", self.rung as u64)
            .f64("scale", self.scale)
            .u64("seed", self.seed)
            .u64("makespan", self.makespan)
            .u64("tasks", self.tasks)
            .u64("instructions", self.instructions)
            .u64("l2_misses", self.l2_misses)
            .u64("mem_accesses", self.mem_accesses)
            .bool("timed_out", self.timed_out)
            .u64("wall_us", self.wall_us)
            .finish()
    }

    /// Parses a record serialized by [`EvalRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<EvalRecord, String> {
        Ok(EvalRecord {
            seq: doc.u64_field("seq")?,
            id: doc.str_field("id")?.to_string(),
            rung: doc.u64_field("rung")? as usize,
            scale: doc.f64_field("scale")?,
            seed: doc.u64_field("seed")?,
            makespan: doc.u64_field("makespan")?,
            tasks: doc.u64_field("tasks")?,
            instructions: doc.u64_field("instructions")?,
            l2_misses: doc.u64_field("l2_misses")?,
            mem_accesses: doc.u64_field("mem_accesses")?,
            timed_out: doc.bool_field("timed_out")?,
            wall_us: doc.u64_field("wall_us")?,
        })
    }
}

/// Parsed journal state up to the last durable byte, kept per canonical
/// path so re-opens only parse the tail.
#[derive(Debug, Clone)]
struct Snapshot {
    /// The header line, including its newline (byte-compared on reopen
    /// to detect a replaced file).
    header_line: String,
    /// The parsed header.
    header: JournalHeader,
    /// File length covered by this snapshot: every byte below it has
    /// been parsed into `cache`.
    valid_len: u64,
    /// Record/blank lines consumed (for stable error line numbers).
    lines: usize,
    /// Highest seq + 1.
    next_seq: u64,
    /// Every parsed record.
    cache: BTreeMap<(String, usize), EvalRecord>,
}

fn snapshots() -> &'static Mutex<HashMap<PathBuf, Snapshot>> {
    static INDEX: OnceLock<Mutex<HashMap<PathBuf, Snapshot>>> = OnceLock::new();
    INDEX.get_or_init(|| Mutex::new(HashMap::new()))
}

fn canonical(path: &Path) -> PathBuf {
    std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf())
}

/// The repair an append-only JSONL file's final line needs before the
/// next append (the journal's, and the `minnow-serve` result store's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The file ends on a line boundary; nothing to do.
    None,
    /// Torn unparsable tail: truncate the file to the durable length so
    /// the next append starts on a line boundary.
    Truncate,
    /// The final line is a complete record missing only its newline:
    /// keep it and append the newline.
    AppendNewline,
}

/// The open journal: an eval cache backed by the append-only file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    key: PathBuf,
    header: JournalHeader,
    cache: BTreeMap<(String, usize), EvalRecord>,
    next_seq: u64,
    /// Evaluations served from disk on open (resume observability).
    resumed: usize,
    /// Journal bytes read and parsed by this open.
    bytes_scanned: u64,
}

/// Explorer errors.
#[derive(Debug)]
pub enum ExploreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or incompatible journal.
    Journal(String),
    /// Invalid space or configuration.
    Config(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Io(e) => write!(f, "i/o: {e}"),
            ExploreError::Journal(e) => write!(f, "journal: {e}"),
            ExploreError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Io(e)
    }
}

impl Journal {
    /// Opens (resuming) or creates the journal at `path` for the given
    /// search identity. Re-opening a journal this process has already
    /// parsed costs O(tail): only bytes past the last durable offset
    /// are read (see the module docs and [`Journal::bytes_scanned`]).
    ///
    /// # Errors
    ///
    /// Fails on i/o errors, on a journal whose header does not match
    /// `header`, or on corruption anywhere but a truncated final line.
    pub fn open(path: &Path, header: JournalHeader) -> Result<Journal, ExploreError> {
        let file_len = match std::fs::metadata(path) {
            Ok(meta) => Some(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let Some(file_len) = file_len else {
            return Journal::create(path, header);
        };
        let key = canonical(path);
        let snap = {
            let index = snapshots().lock().unwrap_or_else(|e| e.into_inner());
            index.get(&key).cloned()
        };
        if let Some(snap) = snap {
            if file_len >= snap.valid_len {
                if let Some(journal) = Journal::open_tail(path, &key, &header, &snap)? {
                    return Ok(journal);
                }
            }
        }
        Journal::open_full(path, &key, header)
    }

    fn create(path: &Path, header: JournalHeader) -> Result<Journal, ExploreError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let header_line = format!("{}\n", header.to_json());
        let mut file = File::create(path)?;
        file.write_all(header_line.as_bytes())?;
        file.sync_data()?;
        let key = canonical(path);
        let journal = Journal {
            path: path.to_path_buf(),
            key: key.clone(),
            header: header.clone(),
            cache: BTreeMap::new(),
            next_seq: 0,
            resumed: 0,
            bytes_scanned: 0,
        };
        let mut index = snapshots().lock().unwrap_or_else(|e| e.into_inner());
        index.insert(
            key,
            Snapshot {
                valid_len: header_line.len() as u64,
                header_line,
                header,
                lines: 0,
                next_seq: 0,
                cache: BTreeMap::new(),
            },
        );
        Ok(journal)
    }

    /// The snapshot fast path: verify the header bytes, parse only the
    /// tail past the durable offset. `Ok(None)` means the file on disk
    /// no longer matches the snapshot — fall back to a full read.
    fn open_tail(
        path: &Path,
        key: &Path,
        expected: &JournalHeader,
        snap: &Snapshot,
    ) -> Result<Option<Journal>, ExploreError> {
        let mut file = File::open(path)?;
        let mut head = vec![0u8; snap.header_line.len()];
        if file.read_exact(&mut head).is_err() || head != snap.header_line.as_bytes() {
            return Ok(None);
        }
        if !snap.header.compatible(expected) {
            return Err(identity_error(&snap.header, expected));
        }
        file.seek(SeekFrom::Start(snap.valid_len))?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail)?;
        drop(file);
        let mut journal = Journal {
            path: path.to_path_buf(),
            key: key.to_path_buf(),
            header: expected.clone(),
            cache: snap.cache.clone(),
            next_seq: snap.next_seq,
            resumed: 0,
            bytes_scanned: (snap.header_line.len() + tail.len()) as u64,
        };
        let (valid_len, lines, repair) = journal.ingest(&tail, snap.valid_len, snap.lines)?;
        let valid_len = apply_repair(path, valid_len, repair)?;
        journal.resumed = journal.cache.len();
        let mut index = snapshots().lock().unwrap_or_else(|e| e.into_inner());
        index.insert(
            key.to_path_buf(),
            Snapshot {
                header_line: snap.header_line.clone(),
                header: snap.header.clone(),
                valid_len,
                lines,
                next_seq: journal.next_seq,
                cache: journal.cache.clone(),
            },
        );
        Ok(Some(journal))
    }

    /// The cold path: read and parse the whole file.
    fn open_full(path: &Path, key: &Path, header: JournalHeader) -> Result<Journal, ExploreError> {
        let bytes = std::fs::read(path)?;
        let Some(header_len) = bytes.iter().position(|&b| b == b'\n').map(|nl| nl + 1) else {
            // An empty file, or one whose writer died inside its own
            // header line: it holds no evaluations, so start over.
            return Journal::create(path, header);
        };
        let header_line = std::str::from_utf8(&bytes[..header_len])
            .map_err(|e| ExploreError::Journal(format!("header: {e}")))?;
        let doc = Json::parse(header_line.trim_end())
            .map_err(|e| ExploreError::Journal(format!("header: {e}")))?;
        let found = JournalHeader::from_json(&doc).map_err(ExploreError::Journal)?;
        if !found.compatible(&header) {
            return Err(identity_error(&found, &header));
        }
        let mut journal = Journal {
            path: path.to_path_buf(),
            key: key.to_path_buf(),
            header,
            cache: BTreeMap::new(),
            next_seq: 0,
            resumed: 0,
            bytes_scanned: bytes.len() as u64,
        };
        let body = &bytes[header_len..];
        let (valid_len, lines, repair) = journal.ingest(body, header_len as u64, 0)?;
        let valid_len = apply_repair(path, valid_len, repair)?;
        journal.resumed = journal.cache.len();
        let mut index = snapshots().lock().unwrap_or_else(|e| e.into_inner());
        index.insert(
            key.to_path_buf(),
            Snapshot {
                header_line: header_line.to_string(),
                header: found,
                valid_len,
                lines,
                next_seq: journal.next_seq,
                cache: journal.cache.clone(),
            },
        );
        Ok(journal)
    }

    /// Parses record lines from `text` — which starts at absolute byte
    /// offset `base`, after `prior_lines` earlier content lines — into
    /// the cache. Returns the durable length (every byte below it is a
    /// complete, parsed line), the new content-line count, and the
    /// filesystem repair the tail needs.
    fn ingest(
        &mut self,
        text: &[u8],
        base: u64,
        prior_lines: usize,
    ) -> Result<(u64, usize, Repair), ExploreError> {
        let mut valid_len = base;
        let mut lines = prior_lines;
        for raw in text.split_inclusive(|&b| b == b'\n') {
            let complete = raw.ends_with(b"\n");
            // A cut inside a multi-byte character leaves invalid UTF-8:
            // one more way for a line to fail to parse.
            let line = std::str::from_utf8(raw)
                .map(str::trim_end)
                .map_err(|e| e.to_string());
            if matches!(line, Ok("")) {
                if complete {
                    valid_len += raw.len() as u64;
                    lines += 1;
                }
                // Torn whitespace stays past `valid_len`; harmless, and
                // a later append still starts a parseable line.
                continue;
            }
            match line
                .and_then(Json::parse)
                .and_then(|doc| EvalRecord::from_json(&doc))
            {
                Ok(rec) => {
                    self.next_seq = self.next_seq.max(rec.seq + 1);
                    self.cache.insert((rec.id.clone(), rec.rung), rec);
                    lines += 1;
                    valid_len += raw.len() as u64;
                    if !complete {
                        // A complete record that lost only its newline:
                        // keep it, restore the line boundary.
                        return Ok((valid_len, lines, Repair::AppendNewline));
                    }
                }
                Err(e) if !complete => {
                    // The kill signature: a partial final line. The
                    // evaluation it would have recorded simply re-runs —
                    // and the torn bytes are truncated away so the next
                    // append cannot fuse with them into interior
                    // corruption.
                    let _ = e;
                    return Ok((valid_len, lines, Repair::Truncate));
                }
                Err(e) => {
                    return Err(ExploreError::Journal(format!(
                        "corrupt record on journal line {}: {e}",
                        lines + 2
                    )));
                }
            }
        }
        Ok((valid_len, lines, Repair::None))
    }

    /// The journal's identity header.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Evaluations recovered from disk when the journal was opened.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Journal bytes this open read and parsed: the whole file on a
    /// cold open, only the header line plus the unseen tail when a
    /// process-wide snapshot covered the prefix.
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }

    /// A cached evaluation, if this (configuration, rung) has run.
    pub fn get(&self, id: &str, rung: usize) -> Option<&EvalRecord> {
        self.cache.get(&(id.to_string(), rung))
    }

    /// The next append sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every cached evaluation, in `(id, rung)` key order.
    pub fn records(&self) -> impl Iterator<Item = &EvalRecord> {
        self.cache.values()
    }

    /// Appends a batch of fresh evaluations: one line each, then a
    /// single flush + fsync, making the whole batch durable at once.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the batch may be partially
    /// visible on disk but the in-memory cache is not updated.
    pub fn append_batch(&mut self, records: Vec<EvalRecord>) -> Result<(), ExploreError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut payload = String::new();
        for rec in &records {
            payload.push_str(&rec.to_json());
            payload.push('\n');
        }
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(payload.as_bytes())?;
        file.flush()?;
        file.sync_data()?;
        {
            let mut index = snapshots().lock().unwrap_or_else(|e| e.into_inner());
            if let Some(snap) = index.get_mut(&self.key) {
                snap.valid_len += payload.len() as u64;
                snap.lines += records.len();
                for rec in &records {
                    snap.next_seq = snap.next_seq.max(rec.seq + 1);
                    snap.cache.insert((rec.id.clone(), rec.rung), rec.clone());
                }
            }
        }
        for rec in records {
            self.next_seq = self.next_seq.max(rec.seq + 1);
            self.cache.insert((rec.id.clone(), rec.rung), rec);
        }
        Ok(())
    }
}

/// Applies `repair` to the file at `path`, whose first `valid_len` bytes
/// are whole lines, and returns the new durable length.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn apply_repair(path: &Path, valid_len: u64, repair: Repair) -> std::io::Result<u64> {
    match repair {
        Repair::None => Ok(valid_len),
        Repair::Truncate => {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            file.sync_data()?;
            Ok(valid_len)
        }
        Repair::AppendNewline => {
            let mut file = OpenOptions::new().append(true).open(path)?;
            file.write_all(b"\n")?;
            file.sync_data()?;
            Ok(valid_len + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            space: "smoke".into(),
            seed: 42,
            strategy: "grid".into(),
            rungs: vec![Rung::Scale(0.02), Rung::Scale(0.05)],
        }
    }

    fn record(seq: u64, id: &str, rung: usize) -> EvalRecord {
        EvalRecord {
            seq,
            id: id.into(),
            rung,
            scale: 0.02,
            seed: 7,
            makespan: 1000 + seq,
            tasks: 10 * (seq + 1),
            instructions: 50,
            l2_misses: 3,
            mem_accesses: 20,
            timed_out: false,
            wall_us: 12345,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minnow-journal-{}-{name}.jsonl", std::process::id()))
    }

    /// Drops the process-wide snapshot, forcing the next open down the
    /// cold full-read path — the moral equivalent of a fresh process.
    fn forget(path: &Path) {
        let key = canonical(path);
        snapshots()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        assert_eq!(j.resumed(), 0);
        j.append_batch(vec![record(0, "a", 0), record(1, "b", 0)]).unwrap();
        j.append_batch(vec![record(2, "a", 1)]).unwrap();

        for cold in [false, true] {
            if cold {
                forget(&path);
            }
            let j2 = Journal::open(&path, header()).unwrap();
            assert_eq!(j2.resumed(), 3);
            assert_eq!(j2.next_seq(), 3);
            assert_eq!(j2.get("a", 0).unwrap().makespan, 1000);
            assert_eq!(j2.get("a", 1).unwrap().makespan, 1002);
            assert!(j2.get("b", 1).is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_tolerated_but_interior_corruption_is_not() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        j.append_batch(vec![record(0, "a", 0)]).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-write: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":1,\"id\":\"b\",\"ru").unwrap();
        drop(f);
        let text_with_torn = std::fs::read_to_string(&path).unwrap();
        let j2 = Journal::open(&path, header()).unwrap();
        assert_eq!(j2.resumed(), 1, "partial line ignored");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "the torn bytes are truncated away on open"
        );

        // Interior corruption (a complete but malformed line) is fatal,
        // from both the snapshot tail path and a cold full read.
        let poisoned = text_with_torn.replace("{\"seq\":1,\"id\":\"b\",\"ru", "garbage\n");
        std::fs::write(&path, poisoned).unwrap();
        assert!(matches!(
            Journal::open(&path, header()),
            Err(ExploreError::Journal(_))
        ));
        forget(&path);
        assert!(matches!(
            Journal::open(&path, header()),
            Err(ExploreError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_repair_keeps_later_appends_parseable_across_cold_opens() {
        let path = tmp("torn-then-append");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        j.append_batch(vec![record(0, "a", 0)]).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":1,\"id\":\"b\",\"ma").unwrap();
        drop(f);
        // Before the repair existed, this open tolerated the torn tail
        // but the following append landed *after* it, fusing both into
        // one complete-but-malformed line — fatal interior corruption
        // for every later (fresh-process) open. Now the open truncates.
        let mut j2 = Journal::open(&path, header()).unwrap();
        j2.append_batch(vec![record(1, "b", 0)]).unwrap();
        forget(&path);
        let j3 = Journal::open(&path, header()).unwrap();
        assert_eq!(j3.resumed(), 2);
        assert_eq!(j3.get("b", 0).unwrap().makespan, 1001);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_cost_is_o_tail_on_a_10k_record_journal() {
        let path = tmp("10k-tail");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        let mut seq = 0u64;
        for batch in 0..20 {
            let records: Vec<EvalRecord> = (0..500)
                .map(|i| {
                    let rec = record(seq, &format!("cfg-{batch}-{i}"), 0);
                    seq += 1;
                    rec
                })
                .collect();
            j.append_batch(records).unwrap();
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert!(file_len > 1_000_000, "10k records should exceed 1MB");

        // Another writer (a dead daemon's worker, say) appended two
        // records this process has not seen.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        for rec in [record(10_000, "late-a", 1), record(10_001, "late-b", 1)] {
            f.write_all(rec.to_json().as_bytes()).unwrap();
            f.write_all(b"\n").unwrap();
        }
        drop(f);

        let j2 = Journal::open(&path, header()).unwrap();
        assert_eq!(j2.resumed(), 10_002);
        assert_eq!(j2.next_seq(), 10_002);
        assert_eq!(j2.get("late-b", 1).unwrap().makespan, 1000 + 10_001);
        assert!(
            j2.bytes_scanned() < 2_000,
            "snapshot reopen must scan only the tail, scanned {} of {file_len}",
            j2.bytes_scanned()
        );

        // The cold path really is O(file) — the fast path's win is real.
        forget(&path);
        let j3 = Journal::open(&path, header()).unwrap();
        assert_eq!(j3.bytes_scanned(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(j3.resumed(), 10_002);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn input_rung_headers_round_trip() {
        let path = tmp("input-rungs");
        let _ = std::fs::remove_file(&path);
        let with_input = JournalHeader {
            rungs: vec![Rung::Scale(0.02), Rung::Input("graphs/road.mcsr".into())],
            ..header()
        };
        let mut j = Journal::open(&path, with_input.clone()).unwrap();
        j.append_batch(vec![record(0, "a", 1)]).unwrap();
        let j2 = Journal::open(&path, with_input.clone()).unwrap();
        assert_eq!(j2.header(), &with_input);
        assert_eq!(j2.resumed(), 1);
        assert!(matches!(
            Journal::open(&path, header()),
            Err(ExploreError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_identity_is_refused() {
        let path = tmp("identity");
        let _ = std::fs::remove_file(&path);
        let _ = Journal::open(&path, header()).unwrap();
        for other in [
            JournalHeader { seed: 43, ..header() },
            JournalHeader { space: "other".into(), ..header() },
            JournalHeader { strategy: "halving2".into(), ..header() },
            JournalHeader { rungs: vec![Rung::Scale(0.02)], ..header() },
            JournalHeader {
                rungs: vec![Rung::Scale(0.02), Rung::Input("g.mcsr".into())],
            ..header()
            },
        ] {
            // Both the snapshot fast path and the cold path refuse.
            assert!(matches!(
                Journal::open(&path, other.clone()),
                Err(ExploreError::Journal(_))
            ));
            forget(&path);
            assert!(matches!(
                Journal::open(&path, other),
                Err(ExploreError::Journal(_))
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
