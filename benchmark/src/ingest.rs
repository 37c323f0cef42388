//! The `ingest` workload: the graph layer's write path beside its read
//! path, with the simulator untouched.
//!
//! Set-up writes a seeded RMAT edge list. Each timed iteration ingests it
//! into a `minnow-csr-image/v1` file through the bounded-memory external
//! sort (symmetrized, deduplicated, self-loops dropped: the recipe that
//! reproduces the simulator's own RMAT graphs), then loads the image
//! zero-copy and through buffered reads. The two loads must yield equal
//! graphs, and the image checksum must repeat across iterations and match
//! the golden table.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use minnow_graph::gen::rmat::{self, RmatConfig};
use minnow_graph::image::{load_image, LoadMode};
use minnow_graph::ingest::{ingest_file_to_image, IngestOptions};
use minnow_graph::io::{stream_edges, GraphSource, ParseError};

use crate::golden::Golden;
use crate::host::Calibration;
use crate::stats::{geomean, median};
use crate::{ms, pct, Options, Outcome, SETUP_REPS};

/// Edges per node of the generated RMAT graph (Graph500's edge factor).
const EDGE_FACTOR: usize = 16;

/// Writes the seeded RMAT sample stream as a text edge list; returns the
/// number of edges written.
fn write_edge_list(cfg: &RmatConfig, seed: u64, path: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(err)?);
    let mut written = 0u64;
    let mut failed = None;
    rmat::for_each_edge(cfg, seed, |u, v| {
        if failed.is_none() {
            match writeln!(w, "{u} {v}") {
                Ok(()) => written += 1,
                Err(e) => failed = Some(e),
            }
        }
    });
    if let Some(e) = failed {
        return Err(err(e));
    }
    w.flush().map_err(err)?;
    Ok(written)
}

/// The checksum field of an image header.
fn image_checksum(path: &Path) -> Result<u64, String> {
    let mut header = [0u8; 40];
    File::open(path)
        .and_then(|mut f| f.read_exact(&mut header))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut field = [0u8; 8];
    field.copy_from_slice(&header[32..40]);
    Ok(u64::from_le_bytes(field))
}

/// Runs the ingest workload.
///
/// # Errors
///
/// Returns a message when the edge list cannot be written or the first
/// ingest fails (a later failure is counted as a failed operation).
pub fn run(opts: &Options, golden: &Golden, cal: &Calibration) -> Result<Outcome, String> {
    let cfg = RmatConfig::graph500(opts.sizes.rmat_scale, EDGE_FACTOR);
    let edges = opts.work_dir.join("rmat.el");
    let image = opts.work_dir.join("rmat.mcsr");
    let mut out = Outcome::default();

    let mut rounds = Vec::new();
    let mut written = 0;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        written = write_edge_list(&cfg, opts.seed, &edges)?;
        rounds.push(t0.elapsed().as_secs_f64());
    }
    out.put("setup_s", median(&rounds));

    let ingest_opts = IngestOptions {
        dedup: true,
        drop_self_loops: true,
        symmetrize: true,
        strip_weights: false,
        budget_bytes: opts.sizes.ingest_budget_bytes,
        nodes_hint: Some(cfg.nodes() as u64),
        temp_dir: Some(opts.work_dir.clone()),
    };
    let start = Instant::now();
    let (mut ingest_ms, mut mmap_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut parse = Duration::ZERO;
    let mut runs = 0;
    let mut first_checksum = None;
    loop {
        let t0 = Instant::now();
        let report =
            ingest_file_to_image(&edges, Some(GraphSource::EdgeList), &image, &ingest_opts);
        let t_ingest = t0.elapsed();
        let report = match report {
            Ok(r) => r,
            Err(e) if ingest_ms.is_empty() => return Err(format!("ingest: {e}")),
            Err(e) => {
                out.tally.check(false, || format!("ingest: {e}"));
                break;
            }
        };
        out.tally.check(report.edges_read == written, || {
            format!("ingest read {} of {written} edges", report.edges_read)
        });
        runs = report.runs;

        cal.tick();
        let t1 = Instant::now();
        let mapped = load_image(&image, LoadMode::Mmap);
        let t_mmap = t1.elapsed();
        cal.tick();
        let t2 = Instant::now();
        let read = load_image(&image, LoadMode::Read);
        let t_read = t2.elapsed();
        cal.tick();
        match (&mapped, &read) {
            (Ok(a), Ok(b)) => out
                .tally
                .check(a == b, || "mmap CSR differs from read CSR".into()),
            (Err(e), _) | (_, Err(e)) => out.tally.check(false, || format!("load: {e}")),
        }
        drop((mapped, read));

        let checksum = image_checksum(&image)?;
        match first_checksum {
            None => {
                first_checksum = Some(checksum);
                out.digest = Some(checksum);
                out.tally
                    .golden(golden, &opts.golden_case(), opts.seed, checksum);
            }
            Some(first) => out.tally.check(checksum == first, || {
                format!("image checksum {checksum:016x} differs from the first {first:016x}")
            }),
        }
        ingest_ms.push(ms(t_ingest));
        mmap_ms.push(ms(t_mmap));
        read_ms.push(ms(t_read));

        if opts.trace {
            // The parser alone, into a counting sink: the share of the
            // ingest that is text parsing rather than sort, merge and write.
            let t3 = Instant::now();
            let mut n = 0u64;
            let parsed = File::open(&edges).map_err(ParseError::from).and_then(|f| {
                stream_edges(GraphSource::EdgeList, f, |_, _, _| {
                    n += 1;
                    Ok(())
                })
            });
            parse += t3.elapsed();
            out.tally.check(parsed.is_ok() && n == written, || {
                format!("parse replay delivered {n} of {written} edges")
            });
        }
        // Start another iteration only if one more fits in the budget.
        if start.elapsed() + t0.elapsed() > opts.seconds {
            break;
        }
    }

    let (ingest, mmap, read) = (median(&ingest_ms), median(&mmap_ms), median(&read_ms));
    out.put("op_geomean_ms", geomean(&[ingest, mmap, read]));
    out.put("ingest_edges_per_s", written as f64 / (ingest / 1e3));
    out.put("ingest_ms", ingest);
    out.put("image_load_mmap_ms", mmap);
    out.put("image_load_read_ms", read);
    out.put("iterations", ingest_ms.len() as f64);
    out.put("graph.ingest.runs", runs as f64);
    if opts.trace {
        let total: f64 = ingest_ms.iter().chain(&mmap_ms).chain(&read_ms).sum();
        let spans = [
            ("graph.io.parse", ms(parse)),
            (
                "graph.ingest.sort_merge",
                ingest_ms.iter().sum::<f64>() - ms(parse),
            ),
            ("graph.image.mmap", mmap_ms.iter().sum()),
            ("graph.image.read", read_ms.iter().sum()),
        ];
        for (name, v) in spans {
            out.put(&format!("{name}_ms"), v);
            out.put(&format!("{name}_pct"), pct(v, total));
        }
        // The spans are the timed pass's own stamps around public calls;
        // tracing adds nothing inside them.
        out.put("trace.overhead_pct", 0.0);
    }
    Ok(out)
}
