//! `minnow-ingest` — bounded-memory graph ingestion and on-disk CSR images.
//!
//! Converts real-world graph files (edge list, Matrix Market, Graph500
//! binary tuples, DIMACS) into `minnow-csr-image/v2` files via external
//! sort: in core sit only the run buffer (at most `--budget-mb`, weighted
//! or not), the row-pointer array (8 bytes per node) and, while merging, a
//! 64 KiB block per spilled run, so scale-20+ inputs build without
//! materializing the edge list in RAM. The same binary streams RMAT edge
//! samples to disk (`--gen`), giving CI and the memory-ceiling check a
//! large input without shipping one.
//!
//! ```sh
//! minnow-ingest graph.el -o graph.mcsr --symmetrize --dedup
//! minnow-ingest --gen rmat:20:16 --seed 42 -o big.el
//! minnow-ingest big.el -o big.mcsr --budget-mb 64 \
//!     --symmetrize --dedup --drop-self-loops --nodes 1048576
//! minnow-sweep smoke --input big.mcsr
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use minnow_bench::cli::{write_with_parents, ArgStream};
use minnow_bench::json::JsonObject;
use minnow_bench::sweep::host_fingerprint;
use minnow_graph::gen::rmat::{self, RmatConfig};
use minnow_graph::image::{load_image, LoadMode};
use minnow_graph::ingest::{ingest_file_to_image, IngestOptions};
use minnow_graph::io::GraphSource;

/// Image loads per mode that `--bench-out` times.
const LOADS: usize = 5;

#[derive(Debug)]
struct Args {
    input: Option<String>,
    out: Option<String>,
    format: Option<String>,
    gen: Option<String>,
    seed: u64,
    dedup: bool,
    symmetrize: bool,
    drop_self_loops: bool,
    strip_weights: bool,
    budget_mb: Option<u64>,
    nodes: Option<u64>,
    temp_dir: Option<String>,
    bench_out: Option<String>,
}

const USAGE: &str = "\
usage: minnow-ingest <input> -o <image.mcsr> [options]
       minnow-ingest --gen rmat:<scale>:<edge-factor> --seed N -o <file>

Converts a graph file into a minnow-csr-image/v2 CSR image using
bounded-memory external sort, or streams RMAT edge samples to disk.

input formats (detected from the extension, or forced with --format):
  edge-list (.el/.tsv/.txt)   whitespace-separated `src dst [weight]`,
                              0-based, `#`/`%` comments
  matrix-market (.mtx)        coordinate pattern/integer/real,
                              general or symmetric
  graph500 (.g500/.bin)       16-byte little-endian u64 (src, dst) records
  dimacs (.gr)                `p sp` problem line + `a` arc lines, 1-based

options:
  -o PATH         output path (required). With --gen, the extension picks
                  the rendering: .g500/.bin binary tuples, else text
                  edge list
  --format F      input format: edge-list | matrix-market | graph500 |
                  dimacs (aliases: el, tsv, mtx, g500, bin, gr)
  --dedup         keep one copy of each (src, dst) pair (the minimum
                  weight among duplicates survives)
  --symmetrize    add the reverse of every edge (before dedup)
  --drop-self-loops
                  discard u -> u edges
  --strip-weights ignore input weights; the image stores none
  --budget-mb N   external-sort run buffer in MiB (default 256); in
                  core sit this buffer, 8 bytes per node and, while
                  merging, 64 KiB per spilled run; smaller budgets spill
                  more sorted runs, output is identical for every value
  --nodes N       node-count floor (pads isolated tail nodes the input's
                  max id cannot express)
  --temp-dir DIR  directory for spill/section temp files (default: the
                  system temp dir)
  --bench-out F   append an ingestion-throughput JSON document
                  (minnow-ingest-throughput/v1) to F, with the times to
                  load the image by reads and, on little-endian unix
                  hosts, by mmap: the first load and the median of 5
  --gen SPEC      generate instead of ingest: rmat:<scale>:<edge-factor>
                  streams the raw directed RMAT samples (self-loops
                  dropped) to -o without holding them in memory;
                  re-ingesting with --symmetrize --dedup
                  --drop-self-loops --nodes 2^scale reproduces the
                  simulator's generated graph exactly
  --seed N        generator seed (default 42; --gen only)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        out: None,
        format: None,
        gen: None,
        seed: 42,
        dedup: false,
        symmetrize: false,
        drop_self_loops: false,
        strip_weights: false,
        budget_mb: None,
        nodes: None,
        temp_dir: None,
        bench_out: None,
    };
    let mut argv = ArgStream::from_env();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "-o" | "--out" => args.out = Some(argv.value("-o")?),
            "--format" => args.format = Some(argv.value("--format")?),
            "--gen" => args.gen = Some(argv.value("--gen")?),
            "--seed" => args.seed = argv.parse("--seed")?,
            "--dedup" => args.dedup = true,
            "--symmetrize" => args.symmetrize = true,
            "--drop-self-loops" => args.drop_self_loops = true,
            "--strip-weights" => args.strip_weights = true,
            "--budget-mb" => args.budget_mb = Some(argv.parse_at_least("--budget-mb", 1)?),
            "--nodes" => args.nodes = Some(argv.parse_at_least("--nodes", 1)?),
            "--temp-dir" => args.temp_dir = Some(argv.value("--temp-dir")?),
            "--bench-out" => args.bench_out = Some(argv.value("--bench-out")?),
            other if !other.starts_with('-') && args.input.is_none() => {
                args.input = Some(other.to_string())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.out.is_none() {
        return Err("missing -o <output>".into());
    }
    if args.gen.is_none() && args.input.is_none() {
        return Err("missing input file (or --gen)".into());
    }
    if args.gen.is_some() && args.input.is_some() {
        return Err("--gen and an input file are mutually exclusive".into());
    }
    Ok(args)
}

/// Parses `rmat:<scale>:<edge-factor>` into a generator configuration.
fn parse_gen(spec: &str) -> Result<RmatConfig, String> {
    let mut parts = spec.split(':');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("rmat"), Some(scale), Some(ef), None) => {
            let scale: u32 = scale
                .parse()
                .map_err(|_| format!("bad scale in --gen `{spec}`"))?;
            let ef: usize = ef
                .parse()
                .map_err(|_| format!("bad edge factor in --gen `{spec}`"))?;
            if scale == 0 || scale > 28 {
                return Err(format!("--gen scale {scale} out of range (1-28)"));
            }
            Ok(RmatConfig::graph500(scale, ef))
        }
        _ => Err(format!(
            "bad --gen spec `{spec}` (expected rmat:<scale>:<edge-factor>)"
        )),
    }
}

/// Streams RMAT samples to `out`: Graph500 binary tuples for `.g500`/`.bin`
/// extensions, a text edge list otherwise.
fn generate(cfg: &RmatConfig, seed: u64, out: &Path) -> std::io::Result<u64> {
    use std::io::Write;
    let binary = matches!(GraphSource::detect(out), GraphSource::Graph500);
    let file = std::fs::File::create(out)?;
    let mut w = std::io::BufWriter::new(file);
    let mut written = 0u64;
    let mut err = None;
    rmat::for_each_edge(cfg, seed, |u, v| {
        if err.is_some() {
            return;
        }
        let r = if binary {
            w.write_all(&u64::from(u).to_le_bytes())
                .and_then(|()| w.write_all(&u64::from(v).to_le_bytes()))
        } else {
            writeln!(w, "{u} {v}")
        };
        match r {
            Ok(()) => written += 1,
            Err(e) => err = Some(e),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(written)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let out = args.out.as_deref().expect("checked in parse_args");

    if let Some(spec) = &args.gen {
        let cfg = match parse_gen(spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        let t0 = Instant::now();
        match generate(&cfg, args.seed, Path::new(out)) {
            Ok(edges) => {
                eprintln!(
                    "generated {spec} seed {}: {edges} directed samples -> {out} \
                     ({:.1}s)",
                    args.seed,
                    t0.elapsed().as_secs_f64()
                );
                eprintln!(
                    "reproduce the simulator's graph with: minnow-ingest {out} \
                     -o <image.mcsr> --symmetrize --dedup --drop-self-loops --nodes {}",
                    cfg.nodes()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: writing {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let input = args.input.as_deref().expect("checked in parse_args");
    let format = match args.format.as_deref() {
        None => None,
        Some(s) => match GraphSource::parse(s) {
            Some(GraphSource::Image) => {
                eprintln!("error: the input is already an image; nothing to ingest");
                return ExitCode::FAILURE;
            }
            Some(f) => Some(f),
            None => {
                eprintln!("error: unknown --format `{s}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    };
    let opts = IngestOptions {
        dedup: args.dedup,
        drop_self_loops: args.drop_self_loops,
        symmetrize: args.symmetrize,
        strip_weights: args.strip_weights,
        budget_bytes: args.budget_mb.map_or(256 << 20, |mb| (mb as usize) << 20),
        nodes_hint: args.nodes,
        temp_dir: args.temp_dir.as_ref().map(Into::into),
    };

    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let report = match ingest_file_to_image(Path::new(input), format, Path::new(out), &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: ingesting {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = t0.elapsed();
    let out_bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let rate = if wall.as_secs_f64() > 0.0 {
        report.edges_read as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    eprintln!(
        "ingested {input}: {} edges read, {} kept, {} nodes, {} ({} sorted run(s)) \
         -> {out} ({} bytes) in {:.1}s ({:.0} edges/s)",
        report.edges_read,
        report.edges_kept,
        report.nodes,
        if report.weighted {
            "weighted"
        } else {
            "unweighted"
        },
        report.runs,
        out_bytes,
        wall.as_secs_f64(),
        rate
    );

    if let Some(path) = &args.bench_out {
        // Images are mapped only on little-endian unix hosts; elsewhere
        // the document has no `load_mmap_ms`.
        let modes: &[LoadMode] = if cfg!(all(unix, target_endian = "little")) {
            &[LoadMode::Mmap, LoadMode::Read]
        } else {
            &[LoadMode::Read]
        };
        // Each mode's loads, alternating: a process's first load faults in
        // fresh memory that later ones largely reuse.
        let mut load_ms = vec![Vec::new(); modes.len()];
        for _ in 0..LOADS {
            for (&mode, times) in modes.iter().zip(&mut load_ms) {
                let t0 = Instant::now();
                let loaded = load_image(Path::new(out), mode);
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = loaded {
                    eprintln!("error: loading {out} ({}): {e}", mode.label());
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut doc = JsonObject::new()
            .str("schema", "minnow-ingest-throughput/v1")
            .str("input", input)
            .str("image", out)
            .u64("input_bytes", in_bytes)
            .u64("image_bytes", out_bytes)
            .u64("edges_read", report.edges_read)
            .u64("edges_kept", report.edges_kept)
            .u64("nodes", report.nodes)
            .bool("weighted", report.weighted)
            .u64("runs", report.runs as u64)
            .u64("budget_bytes", opts.budget_bytes as u64)
            .u64("wall_ms", wall.as_millis() as u64)
            .f64("edges_per_sec", rate);
        for (mode, mut times) in modes.iter().zip(load_ms) {
            doc = doc.f64(&format!("load_{}_ms", mode.label()), times[0]);
            times.sort_by(f64::total_cmp);
            doc = doc.f64(
                &format!("load_{}_median_ms", mode.label()),
                times[LOADS / 2],
            );
        }
        let doc = doc.raw("host", &host_fingerprint()).finish() + "\n";
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                use std::io::Write;
                f.write_all(doc.as_bytes())
            });
        let result = match appended {
            Ok(()) => Ok(()),
            // Fall back to creating parents for fresh paths.
            Err(_) => write_with_parents(path, &doc),
        };
        if let Err(e) = result {
            eprintln!("error: writing benchmark document to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("appended ingestion-throughput document to {path}");
    }
    ExitCode::SUCCESS
}
