//! CSR graph images: the simulated-memory view and the on-disk format.
//!
//! Two related facilities live here:
//!
//! * [`GraphImage`] — a [`MemoryImage`] backing the simulated edge-array
//!   region with real CSR contents so IMP-style indirect prefetchers can
//!   dereference edge records to destination node ids.
//! * The **`minnow-csr-image/v1`** on-disk format — a checksummed,
//!   little-endian serialization of a [`Csr`]'s three sections that loads
//!   back either zero-copy (private read-only `mmap`, the sections borrowed
//!   straight from the page cache) or through buffered reads. Repeated
//!   sweeps of the same ingested input hit the image in milliseconds
//!   instead of re-parsing text.
//!
//! ## `minnow-csr-image/v1` layout
//!
//! All integers little-endian. One 64-byte header, then three 8-byte-aligned
//! sections back to back; the file length is exactly the header plus the
//! sections (any deviation is reported as truncation/corruption):
//!
//! ```text
//! offset  size            field
//! 0       8               magic "MNWCSR1\n"
//! 8       2               endian marker, u16 = 0x0102 (bytes 02 01 on disk)
//! 10      2               format version, u16 = 1
//! 12      4               flags, u32: bit0 = weighted, bit1 = sorted
//! 16      8               node count, u64
//! 24      8               edge count, u64
//! 32      8               checksum, u64 (see below)
//! 40      24              reserved, must be zero
//! 64      (nodes+1) * 8   row_ptr section, u64 per entry
//! ...     edges * 4       col section, u32 per entry
//! ...     edges * 4       weights section (absent when bit0 clear)
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the concatenated little-endian
//! digests of the three sections, each digest itself FNV-1a over that
//! section's bytes (an absent weights section hashes as the empty string).
//! Per-section digests let the streaming ingest writer checksum the col and
//! weight streams as they spill, before `row_ptr` is complete. The header
//! is outside the checksum: each of its fields is checked on its own, and
//! clearing the sorted flag only withdraws a claim.
//!
//! FNV-1a is a serial chain of about four cycles a byte, so most of a load
//! is the hash. Where the process may use a second CPU
//! (`crate::pipeline`), the hash runs there: beside the CSR invariant
//! checks on the mapped path, and a decoded piece behind the reader on the
//! buffered path, which checks `col` as it decodes it. A checksum mismatch
//! is still reported before an invalid CSR.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use minnow_sim::observer::MemoryImage;

use crate::csr::{Check, Csr};
use crate::io::ParseError;
use crate::layout::{AddressMap, EDGE_BASE};
use crate::mmap::Mapping;
use crate::pipeline::{self, Relay};

/// Schema identifier for the on-disk CSR image format.
pub const IMAGE_SCHEMA: &str = "minnow-csr-image/v1";

/// Magic bytes opening every image file.
pub const IMAGE_MAGIC: [u8; 8] = *b"MNWCSR1\n";

const HEADER_LEN: u64 = 64;
const ENDIAN_MARKER: u16 = 0x0102;
const VERSION: u16 = 1;
const FLAG_WEIGHTED: u32 = 1;
const FLAG_SORTED: u32 = 2;

/// How [`load_image`] should get the section bytes into memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Try the zero-copy `mmap` path, fall back to buffered reads.
    #[default]
    Auto,
    /// Zero-copy `mmap` only; error if mapping is unavailable.
    Mmap,
    /// Buffered reads into owned vectors only.
    Read,
}

impl LoadMode {
    /// Parses a CLI spelling (`auto` | `mmap` | `read`).
    pub fn parse(s: &str) -> Option<LoadMode> {
        match s {
            "auto" => Some(LoadMode::Auto),
            "mmap" => Some(LoadMode::Mmap),
            "read" => Some(LoadMode::Read),
            _ => None,
        }
    }

    /// CLI label.
    pub fn label(self) -> &'static str {
        match self {
            LoadMode::Auto => "auto",
            LoadMode::Mmap => "mmap",
            LoadMode::Read => "read",
        }
    }
}

/// Bytes moved per read or write when streaming a section: a multiple of
/// every word size in the format.
pub(crate) const BLOCK_BYTES: usize = 64 << 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a, used for the per-section digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Combines the three per-section digests into the header checksum.
pub(crate) fn combine_digests(row_ptr: u64, col: u64, weights: u64) -> u64 {
    let mut h = Fnv::new();
    h.update(&row_ptr.to_le_bytes());
    h.update(&col.to_le_bytes());
    h.update(&weights.to_le_bytes());
    h.finish()
}

fn digest_u64s(values: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn digest_u32s(values: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

fn image_err(message: impl Into<String>) -> ParseError {
    ParseError::Image {
        message: message.into(),
    }
}

/// The parsed + validated fixed-size header of an image file.
#[derive(Debug, Clone, Copy)]
struct Header {
    weighted: bool,
    sorted: bool,
    nodes: u64,
    edges: u64,
    checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN as usize] {
        let mut h = [0u8; HEADER_LEN as usize];
        h[0..8].copy_from_slice(&IMAGE_MAGIC);
        h[8..10].copy_from_slice(&ENDIAN_MARKER.to_le_bytes());
        h[10..12].copy_from_slice(&VERSION.to_le_bytes());
        let mut flags = 0u32;
        if self.weighted {
            flags |= FLAG_WEIGHTED;
        }
        if self.sorted {
            flags |= FLAG_SORTED;
        }
        h[12..16].copy_from_slice(&flags.to_le_bytes());
        h[16..24].copy_from_slice(&self.nodes.to_le_bytes());
        h[24..32].copy_from_slice(&self.edges.to_le_bytes());
        h[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        h
    }

    fn decode(h: &[u8; HEADER_LEN as usize]) -> Result<Header, ParseError> {
        if h[0..8] != IMAGE_MAGIC {
            return Err(image_err("not a minnow-csr-image file (bad magic)"));
        }
        let endian = u16::from_le_bytes([h[8], h[9]]);
        if endian != ENDIAN_MARKER {
            if endian == ENDIAN_MARKER.swap_bytes() {
                return Err(image_err(
                    "image was written on a big-endian host; \
                     minnow-csr-image/v1 is little-endian only",
                ));
            }
            return Err(image_err(format!(
                "unrecognized endian marker {endian:#06x} (corrupt header?)"
            )));
        }
        let version = u16::from_le_bytes([h[10], h[11]]);
        if version != VERSION {
            return Err(image_err(format!(
                "unsupported image version {version}; this build reads \
                 {IMAGE_SCHEMA} only — re-ingest the input or upgrade"
            )));
        }
        let flags = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        if flags & !(FLAG_WEIGHTED | FLAG_SORTED) != 0 {
            return Err(image_err(format!(
                "unknown flag bits {:#x} (written by a newer tool?)",
                flags & !(FLAG_WEIGHTED | FLAG_SORTED)
            )));
        }
        if h[40..64].iter().any(|&b| b != 0) {
            return Err(image_err("reserved header bytes are not zero"));
        }
        Ok(Header {
            weighted: flags & FLAG_WEIGHTED != 0,
            sorted: flags & FLAG_SORTED != 0,
            nodes: u64::from_le_bytes(h[16..24].try_into().unwrap()),
            edges: u64::from_le_bytes(h[24..32].try_into().unwrap()),
            checksum: u64::from_le_bytes(h[32..40].try_into().unwrap()),
        })
    }

    /// Byte offsets `(row_ptr, col, weights, total_len)` implied by the
    /// header, with overflow checks.
    fn layout(&self) -> Result<(u64, u64, u64, u64), ParseError> {
        let overflow = || image_err("section sizes overflow (corrupt header)");
        let row_bytes = self
            .nodes
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(overflow)?;
        let col_bytes = self.edges.checked_mul(4).ok_or_else(overflow)?;
        let w_bytes = if self.weighted { col_bytes } else { 0 };
        let col_off = HEADER_LEN.checked_add(row_bytes).ok_or_else(overflow)?;
        let w_off = col_off.checked_add(col_bytes).ok_or_else(overflow)?;
        let total = w_off.checked_add(w_bytes).ok_or_else(overflow)?;
        Ok((HEADER_LEN, col_off, w_off, total))
    }
}

/// Writes `graph` as a `minnow-csr-image/v1` document.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_image_to<W: Write>(graph: &Csr, mut writer: W) -> io::Result<()> {
    let (row_ptr, col, weights) = graph.raw_parts();
    let header = Header {
        weighted: graph.is_weighted(),
        sorted: graph.is_sorted(),
        nodes: graph.nodes() as u64,
        edges: graph.edges() as u64,
        checksum: combine_digests(
            digest_u64s(row_ptr),
            digest_u32s(col),
            digest_u32s(weights),
        ),
    };
    writer.write_all(&header.encode())?;
    write_words(&mut writer, row_ptr, u64::to_le_bytes)?;
    write_words(&mut writer, col, u32::to_le_bytes)?;
    write_words(&mut writer, weights, u32::to_le_bytes)?;
    writer.flush()
}

/// Writes `values` little-endian, encoding one [`BLOCK_BYTES`] block per
/// write.
fn write_words<T: Copy, const N: usize>(
    w: &mut impl Write,
    values: &[T],
    encode: fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut block = Vec::with_capacity(BLOCK_BYTES);
    for chunk in values.chunks(BLOCK_BYTES / N) {
        block.clear();
        for &v in chunk {
            block.extend_from_slice(&encode(v));
        }
        w.write_all(&block)?;
    }
    Ok(())
}

/// Fills `out` with little-endian words read a `block` at a time.
fn read_words<T, const N: usize>(
    r: &mut impl Read,
    block: &mut [u8],
    out: &mut [T],
    decode: fn([u8; N]) -> T,
) -> io::Result<()> {
    for words in out.chunks_mut(block.len() / N) {
        let bytes = &mut block[..words.len() * N];
        r.read_exact(bytes)?;
        for (word, raw) in words.iter_mut().zip(bytes.chunks_exact(N)) {
            *word = decode(raw.try_into().expect("chunks_exact yields N bytes"));
        }
    }
    Ok(())
}

/// Words per hand-off from the buffered reader to the hashing stage: the
/// stage wakes once per 1 MiB of `col`.
const HASH_WORDS: usize = 1 << 18;

/// A decoded piece of one section, on its way to the hashing stage.
enum Piece<'a> {
    RowPtr(&'a [u64]),
    Col(&'a [u32]),
    Weights(&'a [u32]),
}

impl Piece<'_> {
    /// Adds the piece's little-endian bytes to its section's digest in
    /// `digests` (`row_ptr`, `col`, `weights`).
    fn hash(&self, digests: &mut [Fnv; 3]) {
        match *self {
            Piece::RowPtr(words) => words
                .iter()
                .for_each(|w| digests[0].update(&w.to_le_bytes())),
            Piece::Col(words) => words
                .iter()
                .for_each(|w| digests[1].update(&w.to_le_bytes())),
            Piece::Weights(words) => words
                .iter()
                .for_each(|w| digests[2].update(&w.to_le_bytes())),
        }
    }
}

/// Writes `graph` as a `minnow-csr-image/v1` file at `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_image(graph: &Csr, path: &Path) -> io::Result<()> {
    write_image_to(graph, File::create(path)?)
}

/// Assembles an image file from a finished row-pointer array plus col and
/// weight streams sitting in temp files — the back half of the streaming
/// ingest pipeline, which never holds the edge sections in memory.
///
/// `col_digest`/`weights_digest` are the FNV-1a digests of the temp files'
/// contents, computed while they were written.
pub(crate) fn assemble_image(
    path: &Path,
    row_ptr: &[u64],
    sorted: bool,
    col_src: &mut File,
    col_digest: u64,
    weights_src: Option<(&mut File, u64)>,
    edges: u64,
) -> io::Result<()> {
    use std::io::Seek;
    let (weights_digest, weighted) = match &weights_src {
        Some((_, d)) => (*d, true),
        None => (digest_bytes(&[]), false),
    };
    let header = Header {
        weighted,
        sorted,
        nodes: row_ptr.len() as u64 - 1,
        edges,
        checksum: combine_digests(digest_u64s(row_ptr), col_digest, weights_digest),
    };
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&header.encode())?;
    write_words(&mut w, row_ptr, u64::to_le_bytes)?;
    col_src.seek(io::SeekFrom::Start(0))?;
    io::copy(col_src, &mut w)?;
    if let Some((weights, _)) = weights_src {
        weights.seek(io::SeekFrom::Start(0))?;
        io::copy(weights, &mut w)?;
    }
    w.flush()
}

/// Loads a `minnow-csr-image/v1` file.
///
/// With [`LoadMode::Mmap`] (or [`LoadMode::Auto`] where mapping works) the
/// returned [`Csr`] borrows its sections zero-copy from a shared read-only
/// mapping; with [`LoadMode::Read`] they are copied into owned vectors.
/// Either way the section checksum and every CSR invariant are verified
/// before the graph is returned.
///
/// A mapped image must not shrink while the graph is alive: a page past a
/// truncated end raises `SIGBUS` on access, which kills the process
/// rather than returning an error. Load with [`LoadMode::Read`] when
/// another process may rewrite the file.
///
/// # Errors
///
/// Returns a structured [`ParseError`] for I/O failures, short/overlong
/// files, bad magic, wrong endianness, unsupported versions, unknown flags,
/// checksum mismatches, and invariant violations. Never panics on corrupt
/// input.
pub fn load_image(path: &Path, mode: LoadMode) -> Result<Csr, ParseError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN {
        return Err(image_err(format!(
            "file is {file_len} bytes, smaller than the {HEADER_LEN}-byte header \
             (truncated?)"
        )));
    }
    let mut raw = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut raw)?;
    let header = Header::decode(&raw)?;
    let (_, col_off, w_off, total) = header.layout()?;
    if file_len != total {
        return Err(image_err(format!(
            "file is {file_len} bytes but the header implies {total} \
             (truncated or corrupt)"
        )));
    }

    // The zero-copy path reinterprets mapped bytes as host integers, which
    // is only the serialized little-endian format on little-endian hosts.
    let mappable = cfg!(target_endian = "little");
    match mode {
        LoadMode::Mmap => {
            if !mappable {
                return Err(image_err(
                    "zero-copy load requires a little-endian host; use read mode",
                ));
            }
            load_mapped(&file, &header, col_off, w_off)
        }
        LoadMode::Auto => {
            if mappable {
                if let Ok(g) = load_mapped(&file, &header, col_off, w_off) {
                    return Ok(g);
                }
            }
            load_buffered(file, &header)
        }
        LoadMode::Read => load_buffered(file, &header),
    }
}

fn checksum_mismatch(header: &Header, checksum: u64) -> ParseError {
    image_err(format!(
        "checksum mismatch: header says {:#018x}, sections hash to \
         {checksum:#018x} (file corrupt)",
        header.checksum
    ))
}

fn invalid_csr(e: String) -> ParseError {
    image_err(format!("invalid CSR in image: {e}"))
}

/// The mapped path: the sections are hashed on a second CPU while the CSR
/// checks run on this one. A checksum mismatch is still reported first.
fn load_mapped(file: &File, header: &Header, col_off: u64, w_off: u64) -> Result<Csr, ParseError> {
    let map = Arc::new(Mapping::of_file(file)?);
    let bytes = map.bytes();
    let row_count = header.nodes as usize + 1;
    let col_count = header.edges as usize;
    let w_count = if header.weighted { col_count } else { 0 };
    let (row_off, col_off, w_off) = (HEADER_LEN as usize, col_off as usize, w_off as usize);

    let (checksum, graph) = pipeline::beside(
        || {
            combine_digests(
                digest_bytes(&bytes[row_off..col_off]),
                digest_bytes(&bytes[col_off..w_off]),
                digest_bytes(&bytes[w_off..]),
            )
        },
        || {
            Csr::from_mapped(
                Arc::clone(&map),
                (row_off, row_count),
                (col_off, col_count),
                (w_off, w_count),
                header.sorted,
            )
        },
    );
    if checksum != header.checksum {
        return Err(checksum_mismatch(header, checksum));
    }
    graph.map_err(invalid_csr)
}

/// The buffered path: each section is read and decoded a block at a time,
/// `col` checked as it is decoded, and every decoded piece hashed on a
/// second CPU while the next is read. A checksum mismatch is still
/// reported before an invalid CSR.
fn load_buffered(mut file: File, header: &Header) -> Result<Csr, ParseError> {
    let edges = header.edges as usize;
    let mut row_ptr = vec![0u64; header.nodes as usize + 1];
    let mut col = vec![0u32; edges];
    let w_count = if header.weighted { edges } else { 0 };
    let mut weights = vec![0u32; w_count];
    let mut digests = [Fnv::new(); 3];
    let mut block = vec![0u8; BLOCK_BYTES];
    let checked = std::thread::scope(|s| -> io::Result<Result<(), String>> {
        let mut hash = Relay::new(s, |piece: &mut Piece| {
            piece.hash(&mut digests);
            Ok(())
        });
        read_words(&mut file, &mut block, &mut row_ptr, u64::from_le_bytes)?;
        let row_ptr = &row_ptr[..];
        for words in row_ptr.chunks(HASH_WORDS) {
            hash.pass(Piece::RowPtr(words))?;
        }
        let mut check = Check::new(row_ptr, edges, header.sorted);
        for words in col.chunks_mut(HASH_WORDS) {
            read_words(&mut file, &mut block, words, u32::from_le_bytes)?;
            check.feed(words);
            hash.pass(Piece::Col(words))?;
        }
        for words in weights.chunks_mut(HASH_WORDS) {
            read_words(&mut file, &mut block, words, u32::from_le_bytes)?;
            hash.pass(Piece::Weights(words))?;
        }
        hash.finish()?;
        Ok(check.finish(w_count))
    })?;
    let [row_digest, col_digest, w_digest] = digests.map(Fnv::finish);
    let checksum = combine_digests(row_digest, col_digest, w_digest);
    if checksum != header.checksum {
        return Err(checksum_mismatch(header, checksum));
    }
    checked.map_err(invalid_csr)?;
    Ok(Csr::from_checked_parts(
        row_ptr,
        col,
        weights,
        header.sorted,
    ))
}

/// A [`MemoryImage`] over one graph laid out by an [`AddressMap`].
///
/// IMP-style prefetchers chase `A[B[i]]` by reading the index array `B` out
/// of cache; this backs the simulated edge-array region with the actual CSR
/// contents so such prefetchers can dereference edge records to destination
/// node ids.
#[derive(Debug, Clone)]
pub struct GraphImage<'a> {
    graph: &'a Csr,
    map: AddressMap,
}

impl<'a> GraphImage<'a> {
    /// Wraps `graph` under `map`'s layout.
    pub fn new(graph: &'a Csr, map: AddressMap) -> Self {
        GraphImage { graph, map }
    }

    /// The address map in use.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }
}

impl MemoryImage for GraphImage<'_> {
    fn read_u64(&self, addr: u64) -> Option<u64> {
        // Edge records: 16B each, destination id in the first word.
        if addr >= EDGE_BASE {
            let offset = addr - EDGE_BASE;
            let idx = (offset / 16) as usize;
            if offset.is_multiple_of(16) && idx < self.graph.edges() {
                return Some(self.graph.edge_dst(idx) as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::NodeId;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minnow-image-test-{}-{tag}.mcsr", std::process::id()))
    }

    fn sample() -> Csr {
        let mut g = Csr::from_edges(
            4,
            &[(0, 2), (0, 1), (1, 3), (3, 0), (3, 2)],
            Some(&[5, 2, 9, 1, 4]),
        );
        g.sort_adjacency();
        g
    }

    #[test]
    fn reads_edge_destinations() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1), (2, 0)], None);
        let map = AddressMap::standard();
        let img = GraphImage::new(&g, map);
        assert_eq!(img.read_u64(map.edge_addr(0)), Some(2));
        assert_eq!(img.read_u64(map.edge_addr(1)), Some(1));
        assert_eq!(img.read_u64(map.edge_addr(2)), Some(0));
    }

    #[test]
    fn out_of_range_reads_are_none() {
        let g = Csr::from_edges(2, &[(0, 1)], None);
        let map = AddressMap::standard();
        let img = GraphImage::new(&g, map);
        assert_eq!(img.read_u64(map.edge_addr(5)), None);
        assert_eq!(img.read_u64(map.edge_addr(0) + 8), None, "mid-record");
        assert_eq!(img.read_u64(0x100), None, "outside edge region");
    }

    #[test]
    fn image_roundtrip_buffered_and_mapped() {
        let g = sample();
        let path = temp_path("roundtrip");
        write_image(&g, &path).unwrap();

        let buffered = load_image(&path, LoadMode::Read).unwrap();
        assert_eq!(g, buffered);
        assert!(!buffered.is_mapped());

        let auto = load_image(&path, LoadMode::Auto).unwrap();
        assert_eq!(g, auto);
        #[cfg(unix)]
        {
            let mapped = load_image(&path, LoadMode::Mmap).unwrap();
            assert_eq!(g, mapped);
            assert!(mapped.is_mapped());
            assert!(mapped.is_sorted());
            // Mapped graphs survive mutation by copying out.
            let mut owned = mapped.clone();
            owned.sort_adjacency();
            assert_eq!(owned, mapped);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unweighted_empty_and_isolated_graphs_roundtrip() {
        for g in [
            Csr::from_edges(0, &[], None),
            Csr::from_edges(5, &[], None),
            Csr::from_edges(3, &[(1, 0), (1, 2)], None),
        ] {
            let path = temp_path(&format!("shape-{}-{}", g.nodes(), g.edges()));
            write_image(&g, &path).unwrap();
            for mode in [LoadMode::Read, LoadMode::Auto] {
                let back = load_image(&path, mode).unwrap();
                assert_eq!(g, back);
                assert!(!back.is_weighted());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corrupted_section_fails_checksum() {
        let path = temp_path("corrupt");
        write_image(&sample(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        for mode in [LoadMode::Read, LoadMode::Auto, LoadMode::Mmap] {
            let err = load_image(&path, mode).unwrap_err();
            if cfg!(unix) || !matches!(mode, LoadMode::Mmap) {
                assert!(err.to_string().contains("checksum"), "{mode:?}: {err}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let path = temp_path("truncated");
        write_image(&sample(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 7, 63, bytes.len() - 3] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = load_image(&path, LoadMode::Auto).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("header"),
                "cut={cut}: {msg}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_wrong_endian_and_future_version() {
        let path = temp_path("header");
        write_image(&sample(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[8..10].copy_from_slice(&ENDIAN_MARKER.swap_bytes().to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = load_image(&path, LoadMode::Auto).unwrap_err();
        assert!(err.to_string().contains("big-endian"), "{err}");

        let mut bad = good.clone();
        bad[10..12].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = load_image(&path, LoadMode::Auto).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = load_image(&path, LoadMode::Auto).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let mut bad = good;
        bad[12] |= 0x80; // unknown flag bit
        std::fs::write(&path, &bad).unwrap();
        let err = load_image(&path, LoadMode::Auto).unwrap_err();
        assert!(err.to_string().contains("flag"), "{err}");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sorted_flag_is_preserved_and_enables_has_edge() {
        let path = temp_path("sorted");
        let g = sample();
        write_image(&g, &path).unwrap();
        let back = load_image(&path, LoadMode::Auto).unwrap();
        assert!(back.is_sorted());
        let (found, _) = back.has_edge(0, 2);
        assert!(found);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn neighbors_match_through_every_mode() {
        let path = temp_path("modes");
        let g = sample();
        write_image(&g, &path).unwrap();
        let modes: &[LoadMode] = if cfg!(unix) {
            &[LoadMode::Read, LoadMode::Auto, LoadMode::Mmap]
        } else {
            &[LoadMode::Read, LoadMode::Auto]
        };
        for &mode in modes {
            let back = load_image(&path, mode).unwrap();
            for v in 0..g.nodes() as NodeId {
                assert_eq!(g.neighbors(v), back.neighbors(v));
                let a: Vec<_> = g.edges_of(v).collect();
                let b: Vec<_> = back.edges_of(v).collect();
                assert_eq!(a, b);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
