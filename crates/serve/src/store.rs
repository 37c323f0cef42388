//! The content-addressed result store.
//!
//! Every completed evaluation is memoized under a key that names
//! everything the simulated outcome depends on:
//!
//! ```text
//! {namespace}|{run wire form}|in:{input digest}
//! ```
//!
//! * **namespace** — the space identity the request arrived under
//!   (`adhoc` for single evaluations, `sweep/<name>` for named sweeps,
//!   `space/<name>` for explorations). The ISSUE's key tuple — space
//!   identity, point fingerprint, seed, scale, input digest — is all
//!   here: seed and scale live inside the wire form.
//! * **run wire form** — `minnow_bench::eval::run_to_json`, the
//!   canonical serialization of exactly the simulation-relevant fields,
//!   so two requests that must simulate identically share a key.
//! * **input digest** — FNV-1a/64 over the input file's bytes for
//!   external graphs (`gen` for generated inputs), so editing a graph
//!   on disk invalidates its cached results even at the same path.
//!
//! The store is size-capped with LRU eviction and persists itself as
//! an append-only JSONL file (`minnow-serve-store/v1`): one line per
//! insert, replayed in order on open (later lines win), compacted when
//! the file accumulates more dead lines than live entries. Eviction is
//! memory-only — an evicted entry whose line still sits in the file is
//! resurrected on the next open, which is harmless for a cache (the cap
//! is re-applied in replay order).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use minnow_bench::eval::{run_to_json, EvalReport};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::runner::BenchRun;

use crate::stats::ServeStats;

/// Schema identifier stamped on the persisted store's header line.
pub const STORE_SCHEMA: &str = "minnow-serve-store/v1";

/// FNV-1a over a byte string, the repo's stock 64-bit content hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-path digest memo: (file length, mtime) stamp plus the hex digest
/// computed when that stamp was last seen.
type DigestMemo = HashMap<PathBuf, (u64, Option<SystemTime>, String)>;

fn digest_cache() -> &'static Mutex<DigestMemo> {
    static CACHE: OnceLock<Mutex<DigestMemo>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The FNV-1a/64 digest of an input file's bytes, hex-encoded. Cached
/// per path and invalidated on length/mtime change, so a daemon serving
/// thousands of evaluations against one graph hashes it once.
///
/// # Errors
///
/// Returns a message naming the unreadable path.
pub fn input_digest(path: &Path) -> Result<String, String> {
    let meta =
        std::fs::metadata(path).map_err(|e| format!("input {}: {e}", path.display()))?;
    let stamp = (meta.len(), meta.modified().ok());
    if let Some((len, mtime, digest)) = digest_cache().lock().unwrap().get(path) {
        if (*len, *mtime) == stamp {
            return Ok(digest.clone());
        }
    }
    let bytes = std::fs::read(path).map_err(|e| format!("input {}: {e}", path.display()))?;
    let digest = format!("{:016x}", fnv64(&bytes));
    digest_cache()
        .lock()
        .unwrap()
        .insert(path.to_path_buf(), (stamp.0, stamp.1, digest.clone()));
    Ok(digest)
}

/// The content address of one evaluation: namespace, canonical run wire
/// form, input digest.
///
/// # Errors
///
/// Returns a message when the run names an unreadable input file.
pub fn store_key(namespace: &str, run: &BenchRun) -> Result<String, String> {
    let digest = match &run.input {
        Some(spec) => input_digest(&spec.path)?,
        None => "gen".into(),
    };
    Ok(format!("{namespace}|{}|in:{digest}", run_to_json(run)))
}

/// One memoized evaluation: the deterministic report plus the original
/// simulation's wall time (informational; repeat answers echo it).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEval {
    /// The deterministic simulation outcome.
    pub report: EvalReport,
    /// Wall microseconds the original simulation took.
    pub sim_wall_us: u64,
}

#[derive(Debug)]
struct Entry {
    eval: StoredEval,
    /// Store-local LRU clock value at last touch.
    last_used: u64,
    /// Accounted size: the persisted line's length.
    bytes: u64,
}

#[derive(Debug)]
struct Inner {
    entries: HashMap<String, Entry>,
    bytes: u64,
    tick: u64,
    file: Option<File>,
    /// Lines appended to the file since it was last compacted (live or
    /// superseded); drives the compaction heuristic on open.
    file_lines: u64,
}

/// The size-capped, persistent, content-addressed store.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
    cap_bytes: u64,
    stats: Arc<ServeStats>,
}

fn persist_line(key: &str, eval: &StoredEval) -> String {
    JsonObject::new()
        .str("key", key)
        .u64("sim_wall_us", eval.sim_wall_us)
        .raw("report", &eval.report.to_json())
        .finish()
}

impl Store {
    /// Opens a store, replaying `path` when given (a missing file is an
    /// empty store). Entries beyond `cap_bytes` are LRU-evicted; the
    /// cap is a floor of one entry so a single oversized result still
    /// caches.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable or schema-incompatible file.
    pub fn open(
        path: Option<PathBuf>,
        cap_bytes: u64,
        stats: Arc<ServeStats>,
    ) -> Result<Store, String> {
        let mut inner = Inner {
            entries: HashMap::new(),
            bytes: 0,
            tick: 0,
            file: None,
            file_lines: 0,
        };
        let mut skipped = 0usize;
        if let Some(p) = &path {
            match std::fs::read_to_string(p) {
                Ok(text) => {
                    for line in text.lines() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        inner.file_lines += 1;
                        match Json::parse(line) {
                            Ok(doc) if doc.get("schema").is_some() => {
                                let schema = doc.str_field("schema").unwrap_or("?");
                                if schema != STORE_SCHEMA {
                                    return Err(format!(
                                        "store {}: schema `{schema}`, expected `{STORE_SCHEMA}`",
                                        p.display()
                                    ));
                                }
                            }
                            Ok(doc) => match parse_entry(&doc) {
                                Ok((key, eval)) => {
                                    insert_unlocked(&mut inner, &key, &eval, cap_bytes, None)
                                }
                                Err(_) => skipped += 1,
                            },
                            // A torn final line (daemon killed mid-append)
                            // or isolated corruption: skip, keep serving.
                            Err(_) => skipped += 1,
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("store {}: {e}", p.display())),
            }
            if skipped > 0 {
                eprintln!(
                    "minnow-serve: store {}: skipped {skipped} unparsable line(s)",
                    p.display()
                );
            }
            // Compact when the file carries more dead weight than live
            // entries (evictions and superseding inserts accumulate).
            let live = inner.entries.len() as u64;
            if inner.file_lines > live.saturating_mul(2) + 16 {
                compact(p, &inner)?;
                inner.file_lines = live;
            }
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("store {}: {e}", p.display()))?;
                }
            }
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| format!("store {}: {e}", p.display()))?;
            if inner.file_lines == 0 {
                let header = JsonObject::new().str("schema", STORE_SCHEMA).finish();
                writeln!(file, "{header}").map_err(|e| format!("store {}: {e}", p.display()))?;
                inner.file_lines = 1;
            }
            inner.file = Some(file);
        }
        Ok(Store {
            inner: Mutex::new(inner),
            path,
            cap_bytes: cap_bytes.max(1),
            stats,
        })
    }

    /// Looks up a key, bumping the hit/miss counters and LRU clock.
    pub fn get(&self, key: &str) -> Option<StoredEval> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                ServeStats::bump(&self.stats.hits);
                Some(entry.eval.clone())
            }
            None => {
                ServeStats::bump(&self.stats.misses);
                None
            }
        }
    }

    /// Memoizes an evaluation: appends it to the persistence file
    /// (fsynced — results are worth milliseconds each) and LRU-evicts
    /// past the cap. Re-inserting a live key supersedes it.
    pub fn insert(&self, key: &str, eval: &StoredEval) {
        let mut inner = self.inner.lock().unwrap();
        insert_unlocked(&mut inner, key, eval, self.cap_bytes, Some(&self.stats));
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of the live entries.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// The configured size cap in bytes.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// The persistence path, when the store is durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

fn parse_entry(doc: &Json) -> Result<(String, StoredEval), String> {
    let key = doc.str_field("key")?.to_string();
    let report_doc = doc.get("report").ok_or("missing `report`")?;
    let report = EvalReport::from_json(report_doc)?;
    let sim_wall_us = doc.u64_field("sim_wall_us")?;
    Ok((
        key,
        StoredEval {
            report,
            sim_wall_us,
        },
    ))
}

fn insert_unlocked(
    inner: &mut Inner,
    key: &str,
    eval: &StoredEval,
    cap_bytes: u64,
    stats: Option<&ServeStats>,
) {
    let line = persist_line(key, eval);
    let cost = line.len() as u64 + 1;
    if let Some(file) = inner.file.as_mut() {
        // Persistence is best-effort: a full disk degrades the store to
        // memory-only rather than failing the evaluation that produced
        // the result.
        if writeln!(file, "{line}").is_ok() {
            let _ = file.sync_data();
            inner.file_lines += 1;
        }
    }
    inner.tick += 1;
    let tick = inner.tick;
    if let Some(old) = inner.entries.remove(key) {
        inner.bytes -= old.bytes;
    }
    inner.entries.insert(
        key.to_string(),
        Entry {
            eval: eval.clone(),
            last_used: tick,
            bytes: cost,
        },
    );
    inner.bytes += cost;
    while inner.bytes > cap_bytes && inner.entries.len() > 1 {
        let victim = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
            .expect("non-empty");
        if let Some(old) = inner.entries.remove(&victim) {
            inner.bytes -= old.bytes;
        }
        if let Some(stats) = stats {
            ServeStats::bump(&stats.evictions);
        }
    }
}

fn compact(path: &Path, inner: &Inner) -> Result<(), String> {
    let mut doc = String::new();
    doc.push_str(&JsonObject::new().str("schema", STORE_SCHEMA).finish());
    doc.push('\n');
    // Rewrite live entries oldest-touch first so a replay reconstructs
    // the same LRU order.
    let mut live: Vec<(&String, &Entry)> = inner.entries.iter().collect();
    live.sort_by_key(|(_, e)| e.last_used);
    for (key, entry) in live {
        doc.push_str(&persist_line(key, &entry.eval));
        doc.push('\n');
    }
    let tmp = path.with_extension("compact.tmp");
    std::fs::write(&tmp, &doc).map_err(|e| format!("store {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("store {}: {e}", path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_algos::WorkloadKind;

    fn report(makespan: u64) -> StoredEval {
        StoredEval {
            report: EvalReport {
                makespan,
                tasks: 1,
                ..EvalReport::default()
            },
            sim_wall_us: 7,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minnow-store-{}-{name}", std::process::id()))
    }

    #[test]
    fn keys_separate_namespaces_and_track_simulation_fields() {
        let mut a = BenchRun::minnow(WorkloadKind::Bfs, 2);
        let b = a.clone();
        assert_eq!(
            store_key("adhoc", &a).unwrap(),
            store_key("adhoc", &b).unwrap()
        );
        assert_ne!(
            store_key("adhoc", &a).unwrap(),
            store_key("sweep/smoke", &a).unwrap()
        );
        a.seed = 99;
        assert_ne!(
            store_key("adhoc", &a).unwrap(),
            store_key("adhoc", &b).unwrap(),
            "seed is part of the address"
        );
    }

    #[test]
    fn input_digest_tracks_file_content() {
        let p = tmp("digest.bin");
        std::fs::write(&p, b"hello").unwrap();
        let d1 = input_digest(&p).unwrap();
        assert_eq!(d1, input_digest(&p).unwrap(), "cached digest is stable");
        std::fs::write(&p, b"hello, world, now longer").unwrap();
        assert_ne!(d1, input_digest(&p).unwrap());
        std::fs::remove_file(&p).unwrap();
        assert!(input_digest(&p).is_err());
    }

    #[test]
    fn lru_eviction_honors_the_cap_and_touch_order() {
        let stats = Arc::new(ServeStats::new());
        // Cap sized for roughly two entries.
        let line = persist_line("k0", &report(1)).len() as u64 + 1;
        let store = Store::open(None, line * 2 + 2, Arc::clone(&stats)).unwrap();
        store.insert("k0", &report(10));
        store.insert("k1", &report(11));
        assert_eq!(store.len(), 2);
        // Touch k0 so k1 is the LRU victim.
        assert!(store.get("k0").is_some());
        store.insert("k2", &report(12));
        assert_eq!(store.len(), 2);
        assert!(store.get("k1").is_none(), "k1 was least-recently used");
        assert!(store.get("k0").is_some());
        assert!(store.get("k2").is_some());
        assert_eq!(stats.evictions.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(store.bytes() <= store.cap_bytes());
    }

    #[test]
    fn persistence_replays_across_opens_and_supersedes_in_order() {
        let p = tmp("persist.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            store.insert("a", &report(1));
            store.insert("b", &report(2));
            store.insert("a", &report(3)); // supersedes the first line
        }
        let reopened = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("a").unwrap().report.makespan, 3);
        assert_eq!(reopened.get("b").unwrap().report.makespan, 2);
        // A torn final line (kill -9 mid-append) is skipped, not fatal.
        drop(reopened);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"{\"key\":\"torn").unwrap();
        drop(f);
        let salvaged = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(salvaged.len(), 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn compaction_drops_dead_lines_but_keeps_live_entries() {
        let p = tmp("compact.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            // 40 supersedes of one key: 41 body lines, 1 live entry.
            for i in 0..40 {
                store.insert("hot", &report(i));
            }
            store.insert("cold", &report(99));
        }
        let before = std::fs::read_to_string(&p).unwrap().lines().count();
        assert!(before > 20);
        let reopened = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("hot").unwrap().report.makespan, 39);
        let after = std::fs::read_to_string(&p).unwrap().lines().count();
        assert_eq!(after, 3, "header + two live entries after compaction");
        let _ = std::fs::remove_file(&p);
    }
}
