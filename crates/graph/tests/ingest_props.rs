//! Property tests for the ingestion pipeline and every external-format
//! writer/reader pair: round-trips are lossless, streamed external-sort
//! builds agree with in-memory builds, and the memory budget never changes
//! the output.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use minnow_graph::image::{load_image, write_image, LoadMode};
use minnow_graph::ingest::{ingest_to_csr, IngestOptions};
use minnow_graph::io::{self, GraphSource, ParseError};
use minnow_graph::{Csr, NodeId};

/// Deterministic Fisher–Yates driven by a SplitMix64 stream, so proptest can
/// explore permutations without any global randomness.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

fn graph_from(edges: &[(u32, u32, u32)], n: usize, weighted: bool) -> Csr {
    let pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
    let weights: Vec<u32> = edges.iter().map(|&(_, _, w)| w).collect();
    Csr::from_edges(n, &pairs, if weighted { Some(&weights) } else { None })
}

fn raw(g: &Csr) -> (Vec<u64>, Vec<NodeId>, Vec<u32>) {
    let (r, c, w) = g.raw_parts();
    (r.to_vec(), c.to_vec(), w.to_vec())
}

fn unique_temp(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "minnow-props-{}-{}-{tag}.mcsr",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Edge list writer/reader is a lossless pair on weighted graphs.
    #[test]
    fn edge_list_roundtrip(edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..50), 0..120)) {
        let g = graph_from(&edges, 24, true);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        // The edge-list format carries no node count, so isolated tail
        // nodes are the one thing it cannot preserve.
        prop_assert!(back.nodes() <= g.nodes());
        let (_, gc, gw) = raw(&g);
        let (_, bc, bw) = raw(&back);
        prop_assert_eq!(gc, bc);
        prop_assert_eq!(gw, bw);
    }

    /// Matrix Market round-trips both weighted (integer) and pattern graphs.
    #[test]
    fn matrix_market_roundtrip(edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..50), 0..120),
                               weighted in any::<bool>()) {
        let g = graph_from(&edges, 24, weighted);
        let mut buf = Vec::new();
        io::write_matrix_market(&g, &mut buf).unwrap();
        let back = io::read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(g.nodes(), back.nodes());
        prop_assert_eq!(raw(&g), raw(&back));
        prop_assert_eq!(g.is_weighted(), back.is_weighted());
    }

    /// Graph500 binary tuples round-trip unweighted graphs.
    #[test]
    fn graph500_roundtrip(edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..2), 0..120)) {
        let g = graph_from(&edges, 24, false);
        let mut buf = Vec::new();
        io::write_graph500(&g, &mut buf).unwrap();
        let back = io::read_graph500(buf.as_slice()).unwrap();
        // The binary format carries no node count, so isolated tail nodes
        // are the one thing it cannot preserve.
        prop_assert!(back.nodes() <= g.nodes());
        let (_, gc, gw) = raw(&g);
        let (_, bc, bw) = raw(&back);
        prop_assert_eq!(gc, bc);
        prop_assert_eq!(gw, bw);
    }

    /// DIMACS round-trips arbitrary weighted graphs exactly.
    #[test]
    fn dimacs_roundtrip(edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..50), 0..120)) {
        let g = graph_from(&edges, 24, true);
        let mut buf = Vec::new();
        io::write_dimacs(&g, &mut buf).unwrap();
        let back = io::read_dimacs(buf.as_slice()).unwrap();
        prop_assert_eq!(g.nodes(), back.nodes());
        prop_assert_eq!(raw(&g), raw(&back));
    }

    /// The on-disk image round-trips through both load paths, including the
    /// sorted flag and weightedness.
    #[test]
    fn image_roundtrip(edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..50), 0..120),
                       weighted in any::<bool>(), sort in any::<bool>()) {
        let mut g = graph_from(&edges, 24, weighted);
        if sort {
            g.sort_adjacency();
        }
        let path = unique_temp("img");
        write_image(&g, &path).unwrap();
        let modes: &[LoadMode] = if cfg!(unix) {
            &[LoadMode::Read, LoadMode::Auto, LoadMode::Mmap]
        } else {
            &[LoadMode::Read, LoadMode::Auto]
        };
        for &mode in modes {
            let back = load_image(&path, mode).unwrap();
            prop_assert_eq!(&g, &back);
            prop_assert_eq!(g.is_weighted(), back.is_weighted());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Streamed (external-sort) ingestion is independent of the input edge
    /// order and of duplicate injection, and matches the canonical in-memory
    /// build of the same edge multiset. Ids and weights reach past 2^16, so
    /// every part of the packed sort key varies; duplicates of an edge carry
    /// other weights and land in other runs, so the minimum-weight dedup
    /// rule is checked across a multi-run merge.
    #[test]
    fn stream_build_matches_in_memory_build(
        edges in prop::collection::vec((0u32..WIDE_IDS, 0u32..WIDE_IDS, any::<u32>()), 1..2000),
        dup_weights in prop::collection::vec(any::<u32>(), 4200..4400),
        perm_seed in any::<u64>(),
    ) {
        // Stream input: the edges plus re-weighted copies of them (enough
        // records to spill more than one run), shuffled.
        let mut noisy = edges.clone();
        for (i, &w) in dup_weights.iter().enumerate() {
            let (u, v, _) = edges[i % edges.len()];
            noisy.push((u, v, w));
        }
        shuffle(&mut noisy, perm_seed);

        // Reference: one edge per (src, dst) with its minimum weight, built
        // in memory with sorted adjacency.
        let mut lightest = std::collections::BTreeMap::new();
        for &(u, v, w) in &noisy {
            let slot = lightest.entry((u, v)).or_insert(w);
            *slot = (*slot).min(w);
        }
        let unique: Vec<(u32, u32, u32)> =
            lightest.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        let mut reference = graph_from(&unique, WIDE_IDS as usize, true);
        reference.sort_adjacency();

        let opts = IngestOptions {
            dedup: true,
            budget_bytes: 1,
            nodes_hint: Some(u64::from(WIDE_IDS)),
            ..IngestOptions::default()
        };
        let (streamed, report) =
            ingest_to_csr(GraphSource::EdgeList, edge_text(&noisy, true).as_bytes(), &opts).unwrap();
        prop_assert!(report.runs > 1, "expected spill runs, got {}", report.runs);
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(report.edges_kept as usize, unique.len());
    }

    /// The external-sort memory budget never changes the output: a budget
    /// small enough to merge at least three spill runs produces the same
    /// CSR as one in-core run, for weighted input with re-weighted
    /// duplicates and for unweighted input alike.
    #[test]
    fn budget_does_not_change_output(
        edges in prop::collection::vec((0u32..WIDE_IDS, 0u32..WIDE_IDS, any::<u32>()), 8200..9000),
        dup_every in 1usize..50,
        perm_seed in any::<u64>(),
        symmetrize in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let mut noisy = edges.clone();
        for (i, &(u, v, w)) in edges.iter().enumerate() {
            if i % dup_every == 0 {
                noisy.push((u, v, w.rotate_left(13)));
            }
        }
        shuffle(&mut noisy, perm_seed);
        let text = edge_text(&noisy, weighted);
        let base = IngestOptions {
            dedup: true,
            symmetrize,
            nodes_hint: Some(u64::from(WIDE_IDS)),
            ..IngestOptions::default()
        };
        let tiny = IngestOptions { budget_bytes: 1, ..base.clone() };
        let (a, ra) = ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &base).unwrap();
        let (b, rb) = ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &tiny).unwrap();
        prop_assert_eq!(ra.runs, 1);
        prop_assert!(rb.runs >= 3, "expected at least 3 spill runs, got {}", rb.runs);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ra.edges_kept, rb.edges_kept);
        prop_assert_eq!(ra.nodes, rb.nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The edge-list parser agrees with the `BufRead::lines` parser it
    /// replaced on arbitrary text: the same edges delivered in the same
    /// order, the same `weighted` flag, and the same error (line number and
    /// message, or I/O kind and message), with and without a final newline.
    #[test]
    fn edge_list_parser_matches_lines_oracle(
        lines in prop::collection::vec(
            prop_oneof![plain_line(), plain_line(), spliced_line(), noisy_line()],
            0..40,
        ),
    ) {
        let mut input: Vec<u8> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if i > 0 {
                input.push(b'\n');
            }
            input.extend_from_slice(line);
        }
        for text in [input.clone(), [input.as_slice(), b"\n"].concat()] {
            let mut got = Vec::new();
            let result = io::stream_edges(GraphSource::EdgeList, text.as_slice(), |u, v, w| {
                got.push((u, v, w));
                Ok(())
            });
            let mut want = Vec::new();
            let expected = oracle_edge_list(text.as_slice(), |u, v, w| {
                want.push((u, v, w));
                Ok(())
            });
            prop_assert_eq!(&got, &want, "input {:?}", String::from_utf8_lossy(&text));
            prop_assert_eq!(outcome(result), outcome(expected), "input {:?}", String::from_utf8_lossy(&text));
        }
    }
}

/// Ids past 2^16 (so more than one sort digit varies) with a node count the
/// in-memory reference can still allocate.
const WIDE_IDS: u32 = 1 << 17;

/// An edge list, with or without its weight column.
fn edge_text(edges: &[(u32, u32, u32)], weighted: bool) -> String {
    let mut text = String::new();
    for (u, v, w) in edges {
        if weighted {
            text.push_str(&format!("{u} {v} {w}\n"));
        } else {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    text
}

/// A well-formed `src dst [w]` line, sometimes with odd spacing or CRLF.
fn plain_line() -> impl Strategy<Value = Vec<u8>> {
    (0u64..5000, 0u64..5000, 0u64..100, 0u8..6).prop_map(|(u, v, w, shape)| {
        match shape {
            0 => format!("{u} {v}"),
            1 => format!("{u}\t{v}\t{w}"),
            2 => format!("  {u}   {v} {w}  "),
            3 => format!("{u} {v} {w}\r"),
            4 => format!("{u} {v} {w} 7 8"),
            _ => format!("{u} {v} {w}"),
        }
        .into_bytes()
    })
}

/// One of the pieces the parser must judge: `\r`, comment markers, signs,
/// Unicode and ASCII whitespace other than space and tab, numbers at the
/// edges of the `u32`/`u64` ranges, and bytes that are not UTF-8.
fn odd_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"\r".to_vec()),
        Just(b"#".to_vec()),
        Just(b"%".to_vec()),
        Just(b"+".to_vec()),
        Just(b"-".to_vec()),
        Just("\u{a0}".as_bytes().to_vec()),
        Just("\u{2003}".as_bytes().to_vec()),
        Just("\u{3000}".as_bytes().to_vec()),
        Just(b"\x0b".to_vec()),
        Just(b"\x0c".to_vec()),
        Just(b" 4294967294".to_vec()),
        Just(b" 4294967295".to_vec()),
        Just(b" 4294967296".to_vec()),
        Just(b" 9999999999999999999".to_vec()),
        Just(b" 18446744073709551615".to_vec()),
        Just(b" 18446744073709551616".to_vec()),
        Just(b" 100000000000000000000".to_vec()),
        Just(vec![0xff]),
        Just(vec![0xc3]),
        Just(vec![0x80]),
    ]
}

/// A well-formed line with one or two odd pieces spliced in anywhere.
fn spliced_line() -> impl Strategy<Value = Vec<u8>> {
    (
        plain_line(),
        odd_piece(),
        0usize..24,
        odd_piece(),
        0usize..24,
        any::<bool>(),
    )
        .prop_map(|(mut line, a, i, b, j, both)| {
            line.splice(i.min(line.len())..i.min(line.len()), a);
            if both {
                line.splice(j.min(line.len())..j.min(line.len()), b);
            }
            line
        })
}

/// A line of numbers, spaces, tabs and odd pieces in any order.
fn noisy_line() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        (0u64..1000).prop_map(|n| n.to_string().into_bytes()),
        (0u64..1000).prop_map(|n| n.to_string().into_bytes()),
        Just(b" ".to_vec()),
        Just(b" ".to_vec()),
        Just(b"\t".to_vec()),
        odd_piece(),
    ];
    prop::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

/// A parse outcome in comparable form.
fn outcome(result: Result<io::EdgeStreamInfo, ParseError>) -> Result<io::EdgeStreamInfo, String> {
    result.map_err(|e| match e {
        ParseError::Io(e) => format!("io {:?}: {e}", e.kind()),
        other => other.to_string(),
    })
}

/// The edge-list parser as it stood on `BufRead::lines`: one `String` per
/// line, `str` splitting and parsing throughout. The differential oracle
/// for [`io::stream_edges`] on [`GraphSource::EdgeList`].
fn oracle_edge_list<R, F>(reader: R, mut sink: F) -> Result<io::EdgeStreamInfo, ParseError>
where
    R: std::io::Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    use std::io::BufRead;
    let format_err = |line: usize, message: &str| ParseError::Format {
        line,
        message: message.into(),
    };
    let reader = std::io::BufReader::new(reader);
    let mut info = io::EdgeStreamInfo {
        edges: 0,
        declared_nodes: None,
        weighted: false,
    };
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let body = line.split('#').next().unwrap_or("");
        if body.trim_start().starts_with('%') {
            continue;
        }
        let mut parts = body.split_whitespace();
        let Some(src) = parts.next() else { continue };
        let src: u64 = src
            .parse()
            .map_err(|_| format_err(lineno, "bad source id"))?;
        let dst: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format_err(lineno, "missing target id"))?;
        let w: u32 = match parts.next() {
            Some(s) => {
                info.weighted = true;
                s.parse().map_err(|_| format_err(lineno, "bad weight"))?
            }
            None => 1,
        };
        if src > u32::MAX as u64 - 1 || dst > u32::MAX as u64 - 1 {
            return Err(format_err(lineno, "node id exceeds u32 range"));
        }
        sink(src as NodeId, dst as NodeId, w)?;
        info.edges += 1;
    }
    Ok(info)
}
