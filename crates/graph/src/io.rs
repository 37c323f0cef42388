//! Graph file I/O: the external formats behind `minnow-sweep --input`.
//!
//! Four external formats are unified behind [`GraphSource`], each with a
//! streaming parser (used by the bounded-memory [`crate::ingest`] pipeline),
//! an in-memory reader, and a writer:
//!
//! * **Edge list** ([`GraphSource::EdgeList`]): one `src dst [weight]`
//!   triple per line, **0-based** ids. `#` starts a comment that runs to
//!   end of line (so SNAP-style `# Nodes: … Edges: …` headers are skipped),
//!   and lines beginning with `%` are skipped too. The node count is one
//!   past the largest id seen — a 1-indexed file therefore loads with an
//!   extra isolated node 0 rather than shifting ids; convert such files
//!   explicitly if that matters.
//! * **Matrix Market** ([`GraphSource::MatrixMarket`]): `%%MatrixMarket
//!   matrix coordinate <pattern|integer|real> <general|symmetric>` with
//!   **1-based** ids (stored 0-based); `symmetric` emits both directions.
//! * **Graph500 binary** ([`GraphSource::Graph500`]): the reference-code
//!   edge tuple layout — 16-byte records of two little-endian `u64` node
//!   ids, 0-based, unweighted.
//! * **DIMACS** ([`GraphSource::Dimacs`]): 9th DIMACS Implementation
//!   Challenge shortest-path format (`c` comments, one `p sp <nodes>
//!   <arcs>` problem line, `a <src> <dst> <weight>` arcs, **1-based** ids,
//!   stored 0-based) — the paper's `USA-road-d.*` inputs ship in it.
//!
//! [`GraphSource::Image`] rounds out the enum for dispatch purposes; binary
//! CSR images are loaded through [`crate::image::load_image`] rather than an
//! edge-stream parser.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::csr::{Csr, NodeId};

/// Errors from graph parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure (including non-UTF8 bytes in text formats).
    Io(std::io::Error),
    /// Structural problem with the input text.
    Format {
        /// 1-based line number (record number for binary formats).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Structural problem with a binary CSR image.
    Image {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Format { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ParseError::Image { message } => write!(f, "csr image error: {message}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Format { .. } | ParseError::Image { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn format_err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Format {
        line,
        message: message.into(),
    }
}

/// The external graph formats `minnow` can consume, plus the binary CSR
/// image. See the module docs for each format's shape and id base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSource {
    /// `src dst [weight]` per line, 0-based, `#`/`%` comments.
    EdgeList,
    /// Matrix Market coordinate format, 1-based.
    MatrixMarket,
    /// Graph500-style binary edge tuples (two LE `u64`s per edge).
    Graph500,
    /// 9th DIMACS Challenge `.gr` shortest-path format, 1-based.
    Dimacs,
    /// `minnow-csr-image` binary CSR image (v2, or v1).
    Image,
}

impl GraphSource {
    /// Every source, in CLI listing order.
    pub const ALL: [GraphSource; 5] = [
        GraphSource::EdgeList,
        GraphSource::MatrixMarket,
        GraphSource::Graph500,
        GraphSource::Dimacs,
        GraphSource::Image,
    ];

    /// Canonical CLI label.
    pub fn label(self) -> &'static str {
        match self {
            GraphSource::EdgeList => "edge-list",
            GraphSource::MatrixMarket => "matrix-market",
            GraphSource::Graph500 => "graph500",
            GraphSource::Dimacs => "dimacs",
            GraphSource::Image => "image",
        }
    }

    /// Parses a CLI spelling (canonical labels plus common aliases like
    /// `el`, `mtx`, `g500`, `gr`, `mcsr`).
    pub fn parse(s: &str) -> Option<GraphSource> {
        match s {
            "edge-list" | "edgelist" | "el" | "tsv" | "txt" => Some(GraphSource::EdgeList),
            "matrix-market" | "matrixmarket" | "mtx" => Some(GraphSource::MatrixMarket),
            "graph500" | "g500" | "bin" => Some(GraphSource::Graph500),
            "dimacs" | "gr" => Some(GraphSource::Dimacs),
            "image" | "mcsr" | "csr" => Some(GraphSource::Image),
            _ => None,
        }
    }

    /// Infers the source from a path's extension; unknown or missing
    /// extensions default to the edge-list format.
    pub fn detect(path: &Path) -> GraphSource {
        match path.extension().and_then(|e| e.to_str()) {
            Some("mtx") => GraphSource::MatrixMarket,
            Some("g500") | Some("bin") => GraphSource::Graph500,
            Some("gr") | Some("dimacs") => GraphSource::Dimacs,
            Some("mcsr") | Some("csrimg") => GraphSource::Image,
            _ => GraphSource::EdgeList,
        }
    }
}

/// What a streaming parse learned about its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStreamInfo {
    /// Edges delivered to the sink.
    pub edges: u64,
    /// Node count declared by the format's header, if it has one.
    pub declared_nodes: Option<u64>,
    /// Whether the input carried explicit weights (DIMACS always does;
    /// Graph500 never does; edge lists and `.mtx` depend on the content).
    pub weighted: bool,
}

/// Streams the edges of a text or binary edge format into `sink` without
/// materializing the edge list — the front half of [`crate::ingest`].
///
/// The sink receives `(src, dst, weight)` with 0-based ids (weight 1 when
/// the input has none) and may abort the parse by returning an error.
///
/// # Errors
///
/// Returns [`ParseError`] for I/O failures and malformed input, and for
/// [`GraphSource::Image`], which holds a finished CSR rather than an edge
/// stream (load it with [`crate::image::load_image`]).
pub fn stream_edges<R, F>(
    source: GraphSource,
    reader: R,
    sink: F,
) -> Result<EdgeStreamInfo, ParseError>
where
    R: Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    match source {
        GraphSource::EdgeList => stream_edge_list(reader, sink),
        GraphSource::MatrixMarket => stream_matrix_market(reader, sink),
        GraphSource::Graph500 => stream_graph500(reader, sink),
        GraphSource::Dimacs => stream_dimacs(reader, sink),
        GraphSource::Image => Err(ParseError::Image {
            message: "a CSR image is not an edge stream; load it with load_image".into(),
        }),
    }
}

fn check_id_range(lineno: usize, src: u64, dst: u64) -> Result<(), ParseError> {
    if src > u32::MAX as u64 - 1 || dst > u32::MAX as u64 - 1 {
        return Err(format_err(lineno, "node id exceeds u32 range"));
    }
    Ok(())
}

/// A node count a header declares, refused when it exceeds the ids a
/// [`NodeId`] can hold: every reader sizes its graph by it, so this must
/// come before any allocation.
fn check_declared_nodes(lineno: usize, n: u64) -> Result<u64, ParseError> {
    if n > u64::from(NodeId::MAX) {
        return Err(format_err(
            lineno,
            format!("declared node count {n} exceeds the u32 node-id range"),
        ));
    }
    Ok(n)
}

/// An empty row-pointer array with room for `nodes + 1` entries, or an
/// [`std::io::ErrorKind::OutOfMemory`] error when that memory cannot be
/// had. Readers size `row_ptr` by a node count that a header may declare,
/// so a count the id range allows but memory does not is refused here
/// instead of aborting the process.
pub(crate) fn row_ptr_for(nodes: u64) -> Result<Vec<u64>, ParseError> {
    let mut row_ptr = Vec::new();
    let entries = usize::try_from(nodes).ok().and_then(|n| n.checked_add(1));
    match entries.map(|n| row_ptr.try_reserve_exact(n)) {
        Some(Ok(())) => Ok(row_ptr),
        _ => Err(ParseError::Io(std::io::Error::new(
            std::io::ErrorKind::OutOfMemory,
            format!(
                "cannot allocate the row pointers of {nodes} nodes ({} bytes)",
                u128::from(nodes) * 8 + 8
            ),
        ))),
    }
}

/// The lines of a text input split exactly as [`BufRead::lines`] splits
/// them (`\n` terminators, one `\r` before a terminator stripped, an
/// unterminated last line kept), without a fresh `String` per line: a line
/// that lies inside the read buffer is handed out in place, and only one
/// that spans a refill is copied, into a reused buffer.
struct Lines<R> {
    reader: BufReader<R>,
    /// Bytes of the read buffer the last in-place line used, consumed on
    /// the next call.
    pending: usize,
    spanning: Vec<u8>,
    lineno: usize,
}

impl<R: Read> Lines<R> {
    fn new(reader: R) -> Lines<R> {
        Lines {
            reader: BufReader::with_capacity(64 << 10, reader),
            pending: 0,
            spanning: Vec::new(),
            lineno: 0,
        }
    }

    /// The next line's 1-based number and raw bytes, or `None` at the end
    /// of the input.
    fn next_bytes(&mut self) -> std::io::Result<Option<(usize, &[u8])>> {
        self.reader.consume(std::mem::take(&mut self.pending));
        let end = self.reader.fill_buf()?.iter().position(|&b| b == b'\n');
        let line = match end {
            Some(end) => {
                self.pending = end + 1;
                &self.reader.buffer()[..=end]
            }
            None => {
                self.spanning.clear();
                if self.reader.read_until(b'\n', &mut self.spanning)? == 0 {
                    return Ok(None);
                }
                &self.spanning[..]
            }
        };
        let line = match line.strip_suffix(b"\n") {
            Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
            None => line,
        };
        self.lineno += 1;
        Ok(Some((self.lineno, line)))
    }

    /// [`Lines::next_bytes`] checked as UTF-8, failing as `lines` fails.
    fn next_str(&mut self) -> std::io::Result<Option<(usize, &str)>> {
        match self.next_bytes()? {
            Some((lineno, bytes)) => Ok(Some((lineno, utf8(bytes)?))),
            None => Ok(None),
        }
    }
}

/// The line as text, or the error [`BufRead::lines`] gives for bytes that
/// are not UTF-8.
fn utf8(bytes: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// One edge-list line's `(src, dst, weight)`, the weight `None` when the
/// line has no third column.
type EdgeFields = (u64, u64, Option<u32>);

/// Parses a plain edge-list line (nothing but ASCII digits, spaces and
/// tabs, with at least two fields, each in range) straight from its bytes.
/// Every other line returns `None` and is judged by [`edge_list_fields`],
/// which gives the same answer on the lines this accepts.
fn plain_edge_fields(line: &[u8]) -> Option<EdgeFields> {
    let mut fields = [0u64; 3];
    let mut count = 0;
    let mut i = 0;
    while i < line.len() {
        match line[i] {
            b' ' | b'\t' => i += 1,
            b'0'..=b'9' => {
                let mut value = 0u64;
                while let Some(&d @ b'0'..=b'9') = line.get(i) {
                    value = value.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                    i += 1;
                }
                if count < fields.len() {
                    fields[count] = value;
                }
                count += 1;
            }
            _ => return None,
        }
    }
    match count {
        0 | 1 => None,
        2 => Some((fields[0], fields[1], None)),
        _ => Some((fields[0], fields[1], Some(u32::try_from(fields[2]).ok()?))),
    }
}

/// Parses any edge-list line: `None` for a blank or comment line.
fn edge_list_fields(lineno: usize, line: &str) -> Result<Option<EdgeFields>, ParseError> {
    let body = line.split('#').next().unwrap_or("");
    if body.trim_start().starts_with('%') {
        return Ok(None);
    }
    let mut parts = body.split_whitespace();
    let Some(src) = parts.next() else {
        return Ok(None);
    };
    let src: u64 = src
        .parse()
        .map_err(|_| format_err(lineno, "bad source id"))?;
    let dst: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format_err(lineno, "missing target id"))?;
    let w = match parts.next() {
        Some(s) => Some(s.parse().map_err(|_| format_err(lineno, "bad weight"))?),
        None => None,
    };
    Ok(Some((src, dst, w)))
}

fn stream_edge_list<R, F>(reader: R, mut sink: F) -> Result<EdgeStreamInfo, ParseError>
where
    R: Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    let mut lines = Lines::new(reader);
    let mut info = EdgeStreamInfo {
        edges: 0,
        declared_nodes: None,
        weighted: false,
    };
    while let Some((lineno, line)) = lines.next_bytes()? {
        let fields = match plain_edge_fields(line) {
            Some(fields) => fields,
            None => match edge_list_fields(lineno, utf8(line)?)? {
                Some(fields) => fields,
                None => continue,
            },
        };
        let (src, dst, w) = fields;
        if w.is_some() {
            info.weighted = true;
        }
        check_id_range(lineno, src, dst)?;
        sink(src as NodeId, dst as NodeId, w.unwrap_or(1))?;
        info.edges += 1;
    }
    Ok(info)
}

fn stream_dimacs<R, F>(reader: R, mut sink: F) -> Result<EdgeStreamInfo, ParseError>
where
    R: Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    let mut lines = Lines::new(reader);
    let mut nodes: Option<u64> = None;
    let mut info = EdgeStreamInfo {
        edges: 0,
        declared_nodes: None,
        weighted: true, // DIMACS arcs always carry a weight
    };
    while let Some((lineno, line)) = lines.next_str()? {
        let mut parts = line.split_whitespace();
        match parts.next() {
            None | Some("c") => continue,
            Some("p") => {
                if nodes.is_some() {
                    return Err(format_err(lineno, "duplicate problem line"));
                }
                if parts.next() != Some("sp") {
                    return Err(format_err(lineno, "expected `p sp <nodes> <arcs>`"));
                }
                let n: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format_err(lineno, "bad node count"))?;
                let _m: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format_err(lineno, "bad arc count"))?;
                check_declared_nodes(lineno, n)?;
                nodes = Some(n);
                info.declared_nodes = Some(n);
            }
            Some("a") => {
                let n = nodes.ok_or_else(|| format_err(lineno, "arc before problem line"))?;
                let mut field = |name: &str| {
                    parts
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| format_err(lineno, format!("bad {name}")))
                };
                let (src, dst, w) = (field("source")?, field("target")?, field("weight")?);
                if src == 0 || dst == 0 || src > n || dst > n {
                    return Err(format_err(lineno, "node id out of range (1-based)"));
                }
                check_id_range(lineno, src - 1, dst - 1)?;
                sink(
                    (src - 1) as NodeId,
                    (dst - 1) as NodeId,
                    w.min(u32::MAX as u64) as u32,
                )?;
                info.edges += 1;
            }
            Some(other) => {
                return Err(format_err(lineno, format!("unknown line type `{other}`")));
            }
        }
    }
    if nodes.is_none() {
        return Err(format_err(0, "missing problem line"));
    }
    Ok(info)
}

fn stream_matrix_market<R, F>(reader: R, mut sink: F) -> Result<EdgeStreamInfo, ParseError>
where
    R: Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    let mut lines = Lines::new(reader);

    // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (_, banner) = lines
        .next_str()?
        .ok_or_else(|| format_err(1, "empty file (missing MatrixMarket banner)"))?;
    let b: Vec<&str> = banner.split_whitespace().collect();
    if b.first().map(|s| s.to_ascii_lowercase()) != Some("%%matrixmarket".into()) {
        return Err(format_err(1, "missing %%MatrixMarket banner"));
    }
    if b.len() < 5 {
        return Err(format_err(
            1,
            "banner must be `%%MatrixMarket matrix coordinate <field> <symmetry>`",
        ));
    }
    if !b[1].eq_ignore_ascii_case("matrix") || !b[2].eq_ignore_ascii_case("coordinate") {
        return Err(format_err(
            1,
            format!("only `matrix coordinate` is supported, got `{} {}`", b[1], b[2]),
        ));
    }
    let pattern = match b[3].to_ascii_lowercase().as_str() {
        "pattern" => true,
        "integer" | "real" => false,
        other => {
            return Err(format_err(
                1,
                format!("unsupported field `{other}` (want pattern|integer|real)"),
            ))
        }
    };
    let symmetric = match b[4].to_ascii_lowercase().as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(format_err(
                1,
                format!("unsupported symmetry `{other}` (want general|symmetric)"),
            ))
        }
    };

    // Comments, then the size line: rows cols nnz.
    let mut size: Option<(u64, u64, u64)> = None;
    let mut size_line = 0usize;
    while let Some((lineno, line)) = lines.next_str()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let mut field = |name: &str| {
            parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format_err(lineno, format!("bad {name} in size line")))
        };
        size = Some((field("row count")?, field("column count")?, field("entry count")?));
        size_line = lineno;
        break;
    }
    let (rows, cols, nnz) = size.ok_or_else(|| format_err(0, "missing size line"))?;

    let mut info = EdgeStreamInfo {
        edges: 0,
        declared_nodes: Some(check_declared_nodes(size_line, rows.max(cols))?),
        weighted: !pattern,
    };
    let mut entries = 0u64;
    while let Some((lineno, line)) = lines.next_str()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if entries == nnz {
            return Err(format_err(
                lineno,
                format!("more than the declared {nnz} entries"),
            ));
        }
        let mut parts = trimmed.split_whitespace();
        let mut field = |name: &str| {
            parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format_err(lineno, format!("bad {name}")))
        };
        let (i, j) = (field("row index")?, field("column index")?);
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(format_err(
                lineno,
                format!("entry ({i}, {j}) out of range for a {rows} x {cols} matrix (1-based)"),
            ));
        }
        let w: u32 = if pattern {
            1
        } else {
            let raw = parts
                .next()
                .ok_or_else(|| format_err(lineno, "missing entry value"))?;
            match raw.parse::<u64>() {
                Ok(v) => v.min(u32::MAX as u64) as u32,
                Err(_) => {
                    let v: f64 = raw
                        .parse()
                        .map_err(|_| format_err(lineno, "bad entry value"))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(format_err(lineno, "entry value must be finite and >= 0"));
                    }
                    v.round().min(u32::MAX as f64) as u32
                }
            }
        };
        check_id_range(lineno, i - 1, j - 1)?;
        entries += 1;
        sink((i - 1) as NodeId, (j - 1) as NodeId, w)?;
        info.edges += 1;
        if symmetric && i != j {
            sink((j - 1) as NodeId, (i - 1) as NodeId, w)?;
            info.edges += 1;
        }
    }
    if entries != nnz {
        return Err(format_err(
            size_line,
            format!("size line declares {nnz} entries but the file has {entries}"),
        ));
    }
    Ok(info)
}

fn stream_graph500<R, F>(reader: R, mut sink: F) -> Result<EdgeStreamInfo, ParseError>
where
    R: Read,
    F: FnMut(NodeId, NodeId, u32) -> Result<(), ParseError>,
{
    let mut reader = BufReader::new(reader);
    let mut info = EdgeStreamInfo {
        edges: 0,
        declared_nodes: None,
        weighted: false,
    };
    let mut rec = [0u8; 16];
    loop {
        // Fill a whole record, tolerating short reads; a partial record at
        // EOF is a truncation error, a clean EOF ends the stream.
        let mut filled = 0;
        while filled < rec.len() {
            match reader.read(&mut rec[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if filled == 0 {
            break;
        }
        let record = info.edges as usize + 1;
        if filled < rec.len() {
            return Err(format_err(
                record,
                format!(
                    "truncated record ({filled} trailing bytes; the file length \
                     must be a multiple of 16)"
                ),
            ));
        }
        let src = u64::from_le_bytes(rec[0..8].try_into().unwrap());
        let dst = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        check_id_range(record, src, dst)?;
        sink(src as NodeId, dst as NodeId, 1)?;
        info.edges += 1;
    }
    Ok(info)
}

/// Collects a streamed format into an in-memory CSR, preserving the file's
/// edge order. `declared_nodes` (if any) wins over the largest id seen.
fn collect_stream<R: Read>(source: GraphSource, reader: R) -> Result<Csr, ParseError> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut weights: Vec<u32> = Vec::new();
    let mut max_node: u64 = 0;
    let info = stream_edges(source, reader, |u, v, w| {
        max_node = max_node.max(u as u64).max(v as u64);
        edges.push((u, v));
        weights.push(w);
        Ok(())
    })?;
    let seen = if edges.is_empty() { 0 } else { max_node + 1 };
    let n = info.declared_nodes.unwrap_or(0).max(seen);
    let weights = info.weighted.then_some(&weights[..]);
    Ok(Csr::from_edges_in(
        row_ptr_for(n)?,
        n as usize,
        &edges,
        weights,
    ))
}

/// Reads a DIMACS `.gr` shortest-path graph.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure, missing/duplicate problem line,
/// out-of-range node ids, or malformed arc lines.
pub fn read_dimacs<R: Read>(reader: R) -> Result<Csr, ParseError> {
    collect_stream(GraphSource::Dimacs, reader)
}

/// Writes a graph in DIMACS `.gr` format (1-based ids; unweighted graphs get
/// weight 1).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dimacs<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "c generated by minnow-graph")?;
    writeln!(writer, "p sp {} {}", graph.nodes(), graph.edges())?;
    for v in 0..graph.nodes() as NodeId {
        for (_, u, w) in graph.edges_of(v) {
            writeln!(writer, "a {} {} {}", v + 1, u + 1, w)?;
        }
    }
    Ok(())
}

/// Reads a plain edge list (`src dst [weight]` per line, **0-based** ids).
///
/// Comment handling: everything after a `#` on any line is ignored (so
/// SNAP-style `# Nodes: … Edges: …` headers are silently skipped), and
/// lines whose first non-blank character is `%` are skipped whole. The
/// graph is weighted iff at least one line carries a third column; lines
/// without one default to weight 1. The node count is one past the largest
/// id seen — ids are **not** re-based, so a 1-indexed file gains an
/// isolated node 0 (see the module docs).
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure (including non-UTF8 bytes) or
/// malformed lines; node ids above `u32::MAX - 1` are rejected.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Csr, ParseError> {
    collect_stream(GraphSource::EdgeList, reader)
}

/// Writes a plain edge list (0-based ids, one `src dst [weight]` per line;
/// the weight column appears only for weighted graphs).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    let weighted = graph.is_weighted();
    for v in 0..graph.nodes() as NodeId {
        for (_, u, w) in graph.edges_of(v) {
            if weighted {
                writeln!(writer, "{v} {u} {w}")?;
            } else {
                writeln!(writer, "{v} {u}")?;
            }
        }
    }
    Ok(())
}

/// Reads a Matrix Market coordinate file (1-based ids, stored 0-based;
/// `symmetric` inputs emit both edge directions; `pattern` inputs are
/// unweighted, `integer`/`real` values become `u32` weights).
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure, a malformed banner/size line,
/// out-of-range entries (including any entry against a zero-node header),
/// or an entry count that contradicts the size line.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, ParseError> {
    collect_stream(GraphSource::MatrixMarket, reader)
}

/// Writes a Matrix Market coordinate file (`integer general` for weighted
/// graphs, `pattern general` otherwise; ids 1-based on disk).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_matrix_market<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    let weighted = graph.is_weighted();
    writeln!(
        writer,
        "%%MatrixMarket matrix coordinate {} general",
        if weighted { "integer" } else { "pattern" }
    )?;
    writeln!(writer, "% generated by minnow-graph")?;
    writeln!(writer, "{} {} {}", graph.nodes(), graph.nodes(), graph.edges())?;
    for v in 0..graph.nodes() as NodeId {
        for (_, u, w) in graph.edges_of(v) {
            if weighted {
                writeln!(writer, "{} {} {}", v + 1, u + 1, w)?;
            } else {
                writeln!(writer, "{} {}", v + 1, u + 1)?;
            }
        }
    }
    Ok(())
}

/// Reads Graph500-style binary edge tuples (16-byte records of two
/// little-endian `u64` node ids; unweighted).
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure, a file length that is not a
/// multiple of 16, or node ids above `u32::MAX - 1`.
pub fn read_graph500<R: Read>(reader: R) -> Result<Csr, ParseError> {
    collect_stream(GraphSource::Graph500, reader)
}

/// Writes Graph500-style binary edge tuples. Weights, having no place in
/// the format, are dropped.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_graph500<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    for v in 0..graph.nodes() as NodeId {
        for (_, u, _) in graph.edges_of(v) {
            writer.write_all(&(v as u64).to_le_bytes())?;
            writer.write_all(&(u as u64).to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads any graph file, inferring the format from the extension unless
/// `source` pins it. Text/binary edge formats preserve file edge order;
/// images load via [`crate::image::load_image`] in the given mode.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure or malformed content.
pub fn read_file(
    path: &Path,
    source: Option<GraphSource>,
    mode: crate::image::LoadMode,
) -> Result<Csr, ParseError> {
    let source = source.unwrap_or_else(|| GraphSource::detect(path));
    match source {
        GraphSource::Image => crate::image::load_image(path, mode),
        other => collect_stream(other, std::fs::File::open(path)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_GR: &str = "\
c tiny road graph
p sp 3 4
a 1 2 7
a 2 1 7
a 2 3 2
a 3 2 2
";

    #[test]
    fn dimacs_roundtrip() {
        let g = read_dimacs(SAMPLE_GR.as_bytes()).unwrap();
        assert_eq!(g.nodes(), 3);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.edge_weight(0), 7);

        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_rejects_bad_ids() {
        let err = read_dimacs("p sp 2 1\na 1 5 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn dimacs_requires_problem_line_first() {
        let err = read_dimacs("a 1 2 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("before problem line"));
        let err = read_dimacs("c only comments\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing problem line"));
    }

    #[test]
    fn dimacs_rejects_duplicate_problem_line() {
        let err = read_dimacs("p sp 1 0\np sp 2 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    /// Asserts that `text`, whose header declares 2^40 nodes, is refused
    /// by `read` and by the streaming ingest into a CSR and into an image,
    /// each with a parse error rather than an attempt to allocate.
    fn assert_huge_declared_count_refused(
        source: GraphSource,
        text: &'static str,
        read: fn(&'static [u8]) -> Result<Csr, ParseError>,
    ) {
        let want = "declared node count 1099511627776 exceeds the u32 node-id range";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains(want), "{source:?} read: {err}");
        let opts = crate::ingest::IngestOptions::default();
        let err = crate::ingest::ingest_to_csr(source, text.as_bytes(), &opts).unwrap_err();
        assert!(err.to_string().contains(want), "{source:?} ingest: {err}");
        let image = std::env::temp_dir().join(format!(
            "minnow-io-huge-{}-{}.mcsr",
            source.label(),
            std::process::id()
        ));
        let err =
            crate::ingest::ingest_to_image(source, text.as_bytes(), &image, &opts).unwrap_err();
        assert!(err.to_string().contains(want), "{source:?} image ingest: {err}");
        assert!(!image.exists(), "a refused ingest writes no image");
    }

    #[test]
    fn dimacs_refuses_a_node_count_beyond_the_id_range() {
        assert_huge_declared_count_refused(
            GraphSource::Dimacs,
            "p sp 1099511627776 1\na 1 2 3\n",
            read_dimacs::<&[u8]>,
        );
        // One past the largest count a NodeId can index is refused too.
        let err = read_dimacs("p sp 4294967296 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert_eq!(check_declared_nodes(1, u64::from(u32::MAX)).unwrap(), u64::from(u32::MAX));
    }

    #[test]
    fn matrix_market_refuses_a_node_count_beyond_the_id_range() {
        assert_huge_declared_count_refused(
            GraphSource::MatrixMarket,
            "%%MatrixMarket matrix coordinate pattern general\n2 1099511627776 1\n1 2\n",
            read_matrix_market::<&[u8]>,
        );
    }

    #[test]
    fn row_pointers_beyond_memory_are_an_error_not_an_abort() {
        let room = row_ptr_for(3).unwrap();
        assert!(room.is_empty() && room.capacity() >= 4);
        // `nodes + 1` entries overflow: refused before any allocation.
        let err = row_ptr_for(u64::MAX).unwrap_err();
        match &err {
            ParseError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::OutOfMemory),
            other => panic!("{other}"),
        }
        assert!(
            err.to_string()
                .contains("row pointers of 18446744073709551615 nodes"),
            "{err}"
        );
    }

    #[test]
    fn dimacs_declared_nodes_win_over_max_seen_id() {
        // Five declared nodes, arcs touching only the first two: the
        // remaining nodes must exist as isolated nodes.
        let g = read_dimacs("p sp 5 1\na 1 2 3\n".as_bytes()).unwrap();
        assert_eq!(g.nodes(), 5);
        assert_eq!(g.edges(), 1);
    }

    #[test]
    fn edge_list_infers_nodes_and_weights() {
        let g = read_edge_list("0 1 5\n1 2 3\n# comment\n2 0 1\n".as_bytes()).unwrap();
        assert_eq!(g.nodes(), 3);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0), 5);

        let unweighted = read_edge_list("0 3\n3 0\n".as_bytes()).unwrap();
        assert_eq!(unweighted.nodes(), 4);
        assert!(!unweighted.is_weighted());
    }

    #[test]
    fn edge_list_is_zero_based_and_does_not_rebase() {
        // A "1-indexed" file: ids 1..=3. Node 0 exists but is isolated —
        // the documented behavior (ids are taken literally).
        let g = read_edge_list("1 2\n2 3\n3 1\n".as_bytes()).unwrap();
        assert_eq!(g.nodes(), 4);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn edge_list_skips_snap_headers_and_inline_comments() {
        let text = "\
# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 3 Edges: 2
% percent comments too
0 1   # trailing comment
1 2
";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.nodes(), 3);
        assert_eq!(g.edges(), 2);
        assert!(!g.is_weighted());
    }

    #[test]
    fn edge_list_empty_input_is_empty_graph() {
        let g = read_edge_list("# nothing here\n".as_bytes()).unwrap();
        assert_eq!(g.nodes(), 0);
        assert_eq!(g.edges(), 0);
    }

    #[test]
    fn edge_list_reports_line_numbers() {
        let err = read_edge_list("0 1\nbogus line\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn edge_list_rejects_overflowing_ids() {
        let text = format!("0 {}\n", u64::from(u32::MAX));
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("u32 range"), "{err}");
        let err = read_edge_list("0 99999999999999999999\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing target id"), "{err}");
    }

    #[test]
    fn edge_list_rejects_non_utf8_bytes() {
        let bytes: &[u8] = &[b'0', b' ', b'1', b'\n', 0xff, 0xfe, b'\n'];
        let err = read_edge_list(bytes).unwrap_err();
        assert!(matches!(err, ParseError::Io(_)), "{err}");
    }

    #[test]
    fn edge_list_roundtrip_weighted_and_not() {
        for g in [
            read_edge_list("0 1 5\n1 2 3\n2 0 1\n".as_bytes()).unwrap(),
            read_edge_list("0 3\n3 0\n1 2\n".as_bytes()).unwrap(),
        ] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let back = read_edge_list(buf.as_slice()).unwrap();
            assert_eq!(g, back);
        }
    }

    #[test]
    fn matrix_market_reads_general_and_symmetric() {
        let general = "\
%%MatrixMarket matrix coordinate integer general
% a comment
3 3 2
1 2 5
3 1 7
";
        let g = read_matrix_market(general.as_bytes()).unwrap();
        assert_eq!(g.nodes(), 3);
        assert_eq!(g.edges(), 2);
        assert!(g.is_weighted());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.edge_weight(0), 5);

        let symmetric = "\
%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
";
        let g = read_matrix_market(symmetric.as_bytes()).unwrap();
        assert_eq!(g.edges(), 3, "off-diagonal doubled, diagonal not");
        assert!(!g.is_weighted());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[2]);
    }

    #[test]
    fn matrix_market_roundtrip() {
        let g = read_matrix_market(
            "%%MatrixMarket matrix coordinate integer general\n3 3 3\n1 2 5\n2 3 2\n3 1 9\n"
                .as_bytes(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn matrix_market_rejects_malformed_input() {
        let err = read_matrix_market("not a banner\n1 1 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("banner"), "{err}");

        let err = read_matrix_market(
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n".as_bytes(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("declares 1"), "{err}");

        let err = read_matrix_market(
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 5\n2 1 4\n".as_bytes(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("more than the declared"), "{err}");

        // Zero-node header with an entry: out of range, not a panic.
        let err = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n0 0 1\n1 1\n".as_bytes(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn matrix_market_zero_size_is_empty_graph() {
        let g = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(g.nodes(), 0);
        assert_eq!(g.edges(), 0);
    }

    #[test]
    fn graph500_roundtrip_and_truncation() {
        let g = read_edge_list("0 2\n2 1\n1 0\n".as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_graph500(&g, &mut buf).unwrap();
        assert_eq!(buf.len(), 3 * 16);
        let back = read_graph500(buf.as_slice()).unwrap();
        assert_eq!(g, back);

        let err = read_graph500(&buf[..buf.len() - 5]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn graph500_rejects_wide_ids() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_graph500(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("u32 range"), "{err}");
    }

    #[test]
    fn source_labels_parse_and_detect() {
        for s in GraphSource::ALL {
            assert_eq!(GraphSource::parse(s.label()), Some(s));
        }
        assert_eq!(GraphSource::parse("mtx"), Some(GraphSource::MatrixMarket));
        assert_eq!(GraphSource::parse("nope"), None);
        assert_eq!(
            GraphSource::detect(Path::new("a/b/wiki.mtx")),
            GraphSource::MatrixMarket
        );
        assert_eq!(
            GraphSource::detect(Path::new("edges.g500")),
            GraphSource::Graph500
        );
        assert_eq!(
            GraphSource::detect(Path::new("USA-road-d.NY.gr")),
            GraphSource::Dimacs
        );
        assert_eq!(
            GraphSource::detect(Path::new("graph.mcsr")),
            GraphSource::Image
        );
        assert_eq!(
            GraphSource::detect(Path::new("plain.txt")),
            GraphSource::EdgeList
        );
        assert_eq!(
            GraphSource::detect(Path::new("no_extension")),
            GraphSource::EdgeList
        );
    }

    #[test]
    fn stream_edges_refuses_image_source() {
        let err = stream_edges(GraphSource::Image, &[][..], |_, _, _| Ok(())).unwrap_err();
        assert!(matches!(err, ParseError::Image { .. }), "{err}");
    }

    #[test]
    fn generated_graph_survives_dimacs_roundtrip() {
        use crate::gen::grid::{self, GridConfig};
        let g = grid::generate(&GridConfig::new(6, 6).weighted(1..=9), 3);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(buf.as_slice()).unwrap();
        assert_eq!(g.nodes(), g2.nodes());
        assert_eq!(g.edges(), g2.edges());
        for v in 0..g.nodes() as NodeId {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }
}
