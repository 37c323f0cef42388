//! CSR graph images: the simulated-memory view and the on-disk format.
//!
//! Two related facilities live here:
//!
//! * [`GraphImage`] — a [`MemoryImage`] backing the simulated edge-array
//!   region with real CSR contents so IMP-style indirect prefetchers can
//!   dereference edge records to destination node ids.
//! * The **`minnow-csr-image/v2`** on-disk format — a checksummed,
//!   little-endian serialization of a [`Csr`]'s three sections that loads
//!   back either zero-copy (private read-only `mmap`, the sections borrowed
//!   straight from the page cache) or through buffered reads. Repeated
//!   sweeps of the same ingested input hit the image in milliseconds
//!   instead of re-parsing text.
//!
//! ## `minnow-csr-image/v2` layout
//!
//! All integers little-endian. One 64-byte header, then three 8-byte-aligned
//! sections back to back; the file length is exactly the header plus the
//! sections (any deviation is reported as truncation/corruption):
//!
//! ```text
//! offset  size            field
//! 0       8               magic "MNWCSR1\n"
//! 8       2               endian marker, u16 = 0x0102 (bytes 02 01 on disk)
//! 10      2               format version, u16 = 2 (1 is still read)
//! 12      4               flags, u32: bit0 = weighted, bit1 = sorted
//! 16      8               node count, u64
//! 24      8               edge count, u64
//! 32      8               identity, u64 (see below)
//! 40      8               integrity digest, u64 (v2; zero in v1)
//! 48      16              reserved, must be zero
//! 64      (nodes+1) * 8   row_ptr section, u64 per entry
//! ...     edges * 4       col section, u32 per entry
//! ...     edges * 4       weights section (absent when bit0 clear)
//! ```
//!
//! The **identity** names the graph: FNV-1a (64-bit) over the concatenated
//! little-endian digests of the three sections, each digest itself FNV-1a
//! over that section's bytes (an absent weights section hashes as the
//! empty string). It is the same for a v1 and a v2 image of one graph, and
//! golden tables pin it. Byte-wise FNV-1a is a serial chain of about four
//! cycles a byte, so only the writers compute it.
//!
//! The **integrity digest** is what a v2 load verifies: one word hash over
//! header bytes 0..40 (the identity included) followed by the three section
//! digests, each itself the same hash over that section's bytes.
//! Per-section digests let the streaming ingest writer hash the col and
//! weight streams as they spill, before `row_ptr` is complete.
//!
//! The word hash reads little-endian `u64` words and deals them to four
//! lanes in turn (word `i` to lane `i % 4`; a partial tail word byte by
//! byte to the next lane), then folds lanes 1-3 into lane 0 with the same
//! step. A step xors a word into the lane and multiplies by the FNV prime
//! (an FNV-1a step), then applies a xorshift by 32 and a multiply by a
//! dense odd constant. The four chains run side by side, where byte-wise
//! FNV-1a is one chain of four cycles a byte. Each step is a bijection of its
//! lane, so any one changed word changes the digest, and every single-byte
//! flip of a v2 image, header included, is refused. A multiply carries a
//! flip of bit 63 to bit 63 alone, whatever the state; the xorshift and
//! second multiply leave no such difference, so a later word in a lane
//! cannot cancel an earlier one's change with certainty. (With one
//! multiply per step, two top-bit flips would cancel, and with the
//! xorshift alone, three flipped bytes.)
//!
//! A v1 image has no integrity digest: its load recomputes the identity,
//! and its header is outside that checksum, so a v1 image whose sorted flag
//! was cleared loads as an unsorted graph. Both versions share every other
//! step of a load, and a checksum mismatch is reported before an invalid
//! CSR.
//!
//! ## Loading
//!
//! A mapped load hashes the sections on a second CPU, when there is one,
//! while this thread runs the CSR checks over the mapping. A buffered load
//! reads each 64 KiB block straight into its section vector, then hashes
//! it and checks it while it is in cache, on one thread. The checks are
//! the branch-free reductions of the crate's `Check`: they rescan `col`
//! only to name a fault they found.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use minnow_sim::observer::MemoryImage;

use crate::csr::{Check, Csr};
use crate::io::ParseError;
use crate::layout::{AddressMap, EDGE_BASE};
use crate::mmap::Mapping;
use crate::pipeline;

/// Schema identifier for the on-disk CSR image format the writers emit.
pub const IMAGE_SCHEMA: &str = "minnow-csr-image/v2";

/// Magic bytes opening every image file.
pub const IMAGE_MAGIC: [u8; 8] = *b"MNWCSR1\n";

const HEADER_LEN: u64 = 64;
const ENDIAN_MARKER: u16 = 0x0102;
/// The format version the writers emit.
pub const IMAGE_VERSION: u16 = 2;
/// The first version, still read: no integrity digest.
const V1: u16 = 1;
/// Header bytes under the integrity digest: everything before it.
const SEALED: usize = 40;
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
/// every word size in the format and of a [`WordHash`] round of words.
pub(crate) const BLOCK_BYTES: usize = 64 << 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// An odd multiplier with bits set across the word (2^64 over the golden
/// ratio).
const MIX_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A running digest of a section's bytes.
trait Digest: Copy {
    fn new() -> Self;
    fn update(&mut self, bytes: &[u8]);
    fn finish(self) -> u64;
}

/// 64-bit FNV-1a over bytes: the identity's hash, and what a v1 load
/// verifies.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Digest for Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Independent hash chains a [`WordHash`] keeps, so that a load is not
/// bound by the latency of one chain's multiplies.
const LANES: usize = 4;

/// A 64-bit hash over little-endian `u64` words: the integrity digest's
/// hash, and what a v2 load verifies. Word `i` of the input takes a
/// [`mix`] step in lane `i % LANES`, a trailing partial word's bytes one
/// step each in the lane after the last word's, and [`Digest::finish`]
/// mixes lanes 1.. into lane 0 in order. Every update but the last must
/// be a whole number of rounds of `LANES` words.
#[derive(Debug, Clone, Copy)]
struct WordHash([u64; LANES]);

impl Digest for WordHash {
    fn new() -> WordHash {
        WordHash([FNV_OFFSET; LANES])
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut lanes = self.0;
        let mut groups = bytes.chunks_exact(8 * LANES);
        for group in &mut groups {
            for (lane, word) in lanes.iter_mut().zip(group.chunks_exact(8)) {
                *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
        let rest = groups.remainder();
        let mut words = rest.chunks_exact(8);
        for (lane, word) in lanes.iter_mut().zip(&mut words) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = &mut lanes[rest.len() / 8];
        for &b in words.remainder() {
            *tail = mix(*tail, b as u64);
        }
        self.0 = lanes;
    }

    fn finish(self) -> u64 {
        let [first, rest @ ..] = self.0;
        rest.into_iter().fold(first, mix)
    }
}

/// One step of a [`WordHash`] lane: an FNV-1a step over `word`, then a
/// xorshift and a second multiply (see the module doc for why both).
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(FNV_PRIME);
    (h ^ (h >> 32)).wrapping_mul(MIX_MULTIPLIER)
}

/// Both running digests of one section, which the writers keep together:
/// byte-wise for the identity, word-wise for the integrity digest. Every
/// update but the last must be a whole number of [`WordHash`] rounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionDigest {
    identity: Fnv,
    integrity: WordHash,
}

impl SectionDigest {
    pub(crate) fn new() -> SectionDigest {
        SectionDigest {
            identity: Fnv::new(),
            integrity: WordHash::new(),
        }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.identity.update(bytes);
        self.integrity.update(bytes);
    }

    /// The digest of `values` encoded little-endian.
    fn of<T: Copy, const N: usize>(values: &[T], encode: fn(T) -> [u8; N]) -> SectionDigest {
        let mut digest = SectionDigest::new();
        for_each_block(values, encode, |block| {
            digest.update(block);
            Ok(())
        })
        .expect("hashing cannot fail");
        digest
    }
}

/// Combines the three byte-wise section digests into the identity.
fn combine_digests([row_ptr, col, weights]: [u64; 3]) -> u64 {
    let mut h = Fnv::new();
    h.update(&row_ptr.to_le_bytes());
    h.update(&col.to_le_bytes());
    h.update(&weights.to_le_bytes());
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
    version: u16,
    weighted: bool,
    sorted: bool,
    nodes: u64,
    edges: u64,
    /// Bytes 32..40, the graph's identity (in v1 also its checksum).
    identity: u64,
    /// Bytes 40..48, the integrity digest (zero in v1).
    integrity: u64,
}

impl Header {
    /// The v2 header of a graph whose three sections have the given
    /// digests.
    fn seal(
        weighted: bool,
        sorted: bool,
        nodes: u64,
        edges: u64,
        sections: [SectionDigest; 3],
    ) -> Header {
        let mut header = Header {
            version: IMAGE_VERSION,
            weighted,
            sorted,
            nodes,
            edges,
            identity: combine_digests(sections.map(|s| s.identity.finish())),
            integrity: 0,
        };
        header.integrity = header.integrity_of(sections.map(|s| s.integrity.finish()));
        header
    }

    /// The integrity digest of this header over word-wise section digests:
    /// one hash of header bytes 0..40 followed by the three digests.
    fn integrity_of(&self, sections: [u64; 3]) -> u64 {
        let mut sealed = self.encode();
        for (at, digest) in (SEALED..).step_by(8).zip(sections) {
            sealed[at..at + 8].copy_from_slice(&digest.to_le_bytes());
        }
        let mut h = WordHash::new();
        h.update(&sealed);
        h.finish()
    }

    fn encode(&self) -> [u8; HEADER_LEN as usize] {
        let mut h = [0u8; HEADER_LEN as usize];
        h[0..8].copy_from_slice(&IMAGE_MAGIC);
        h[8..10].copy_from_slice(&ENDIAN_MARKER.to_le_bytes());
        h[10..12].copy_from_slice(&self.version.to_le_bytes());
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
        h[32..40].copy_from_slice(&self.identity.to_le_bytes());
        h[40..48].copy_from_slice(&self.integrity.to_le_bytes());
        h
    }

    /// Parses a header. Every header it accepts encodes back to the same
    /// bytes, so [`Header::integrity_of`] hashes what was read.
    fn decode(h: &[u8; HEADER_LEN as usize]) -> Result<Header, ParseError> {
        if h[0..8] != IMAGE_MAGIC {
            return Err(image_err("not a minnow-csr-image file (bad magic)"));
        }
        let endian = u16::from_le_bytes([h[8], h[9]]);
        if endian != ENDIAN_MARKER {
            if endian == ENDIAN_MARKER.swap_bytes() {
                return Err(image_err(
                    "image was written on a big-endian host; \
                     minnow-csr-image is little-endian only",
                ));
            }
            return Err(image_err(format!(
                "unrecognized endian marker {endian:#06x} (corrupt header?)"
            )));
        }
        let version = u16::from_le_bytes([h[10], h[11]]);
        let reserved = match version {
            V1 => 40,
            IMAGE_VERSION => 48,
            _ => {
                return Err(image_err(format!(
                    "unsupported image version {version}; this build reads \
                     minnow-csr-image/v1 and {IMAGE_SCHEMA} only — re-ingest \
                     the input or upgrade"
                )))
            }
        };
        let flags = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        if flags & !(FLAG_WEIGHTED | FLAG_SORTED) != 0 {
            return Err(image_err(format!(
                "unknown flag bits {:#x} (written by a newer tool?)",
                flags & !(FLAG_WEIGHTED | FLAG_SORTED)
            )));
        }
        if h[reserved..].iter().any(|&b| b != 0) {
            return Err(image_err("reserved header bytes are not zero"));
        }
        let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
        let header = Header {
            version,
            weighted: flags & FLAG_WEIGHTED != 0,
            sorted: flags & FLAG_SORTED != 0,
            nodes: word(16),
            edges: word(24),
            identity: word(32),
            integrity: word(40),
        };
        debug_assert!(header.encode() == *h);
        Ok(header)
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

    /// Checks the three sections' digests, [`Fnv`] in v1 and [`WordHash`]
    /// in v2: against the identity in v1, the integrity digest in v2.
    fn verify(&self, sections: [u64; 3]) -> Result<(), ParseError> {
        let (field, want, got) = match self.version {
            V1 => ("checksum", self.identity, combine_digests(sections)),
            _ => (
                "integrity digest",
                self.integrity,
                self.integrity_of(sections),
            ),
        };
        if want == got {
            return Ok(());
        }
        Err(image_err(format!(
            "checksum mismatch: the header's {field} is {want:#018x}, the image \
             hashes to {got:#018x} (file corrupt)"
        )))
    }
}

/// Writes `graph` as a `minnow-csr-image/v2` document.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_image_to<W: Write>(graph: &Csr, mut writer: W) -> io::Result<()> {
    let (row_ptr, col, weights) = graph.raw_parts();
    let header = Header::seal(
        graph.is_weighted(),
        graph.is_sorted(),
        graph.nodes() as u64,
        graph.edges() as u64,
        [
            SectionDigest::of(row_ptr, u64::to_le_bytes),
            SectionDigest::of(col, u32::to_le_bytes),
            SectionDigest::of(weights, u32::to_le_bytes),
        ],
    );
    writer.write_all(&header.encode())?;
    write_words(&mut writer, row_ptr, u64::to_le_bytes)?;
    write_words(&mut writer, col, u32::to_le_bytes)?;
    write_words(&mut writer, weights, u32::to_le_bytes)?;
    writer.flush()
}

/// Hands `values`, encoded little-endian, to `f` one [`BLOCK_BYTES`] block
/// at a time.
fn for_each_block<T: Copy, const N: usize>(
    values: &[T],
    encode: fn(T) -> [u8; N],
    mut f: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut block = Vec::with_capacity(BLOCK_BYTES);
    for chunk in values.chunks(BLOCK_BYTES / N) {
        block.clear();
        for &v in chunk {
            block.extend_from_slice(&encode(v));
        }
        f(&block)?;
    }
    Ok(())
}

/// Writes `values` little-endian, one [`BLOCK_BYTES`] block per write.
fn write_words<T: Copy, const N: usize>(
    w: &mut impl Write,
    values: &[T],
    encode: fn(T) -> [u8; N],
) -> io::Result<()> {
    for_each_block(values, encode, |block| w.write_all(block))
}

/// A section's word type, whose bytes in memory are its little-endian
/// encoding once [`Word::from_le`] has run over them. Only `u32` and
/// `u64` implement it.
trait Word: Copy {
    fn from_le(word: Self) -> Self;
}

impl Word for u32 {
    fn from_le(word: u32) -> u32 {
        u32::from_le(word)
    }
}

impl Word for u64 {
    fn from_le(word: u64) -> u64 {
        u64::from_le(word)
    }
}

/// The bytes of `words` in memory, to be written over.
fn bytes_mut<T: Word>(words: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(words);
    // SAFETY: a `Word` is a `u32` or a `u64`, which have no padding and
    // for which every byte pattern is a valid value, so the bytes are
    // initialised and whatever is written to them leaves valid words. The
    // view covers exactly the slice's `len` bytes, `u8` needs no
    // alignment, and it borrows `words` mutably for its lifetime.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) }
}

/// Fills `out` with little-endian words read straight into it,
/// [`BLOCK_BYTES`] at a time; adds each block's bytes to `digest` and
/// hands its words to `each`.
fn read_words<T: Word>(
    r: &mut impl Read,
    out: &mut [T],
    digest: &mut impl Digest,
    mut each: impl FnMut(&[T]),
) -> io::Result<()> {
    for words in out.chunks_mut(BLOCK_BYTES / std::mem::size_of::<T>()) {
        let bytes = bytes_mut(words);
        r.read_exact(bytes)?;
        digest.update(bytes);
        // A no-op on little-endian hosts.
        for word in words.iter_mut() {
            *word = T::from_le(*word);
        }
        each(words);
    }
    Ok(())
}

/// Writes `graph` as a `minnow-csr-image/v2` file at `path`.
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
/// `col_digest`/the weights' digest are the [`SectionDigest`]s of the temp
/// files' contents, updated while they were written.
pub(crate) fn assemble_image(
    path: &Path,
    row_ptr: &[u64],
    sorted: bool,
    col_src: &mut File,
    col_digest: SectionDigest,
    weights_src: Option<(&mut File, SectionDigest)>,
    edges: u64,
) -> io::Result<()> {
    use std::io::Seek;
    let (weights_digest, weighted) = match &weights_src {
        Some((_, d)) => (*d, true),
        None => (SectionDigest::new(), false),
    };
    let header = Header::seal(
        weighted,
        sorted,
        row_ptr.len() as u64 - 1,
        edges,
        [
            SectionDigest::of(row_ptr, u64::to_le_bytes),
            col_digest,
            weights_digest,
        ],
    );
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

/// Loads a `minnow-csr-image/v2` or `/v1` file.
///
/// With [`LoadMode::Mmap`] (or [`LoadMode::Auto`] where mapping works) the
/// returned [`Csr`] borrows its sections zero-copy from a shared read-only
/// mapping; with [`LoadMode::Read`] they are copied into owned vectors.
/// Either way the image's digest (the integrity digest in v2, the
/// identity in v1) and every CSR invariant are verified before the graph
/// is returned.
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
    let header = read_header(&mut file, file_len)?;
    let (_, col_off, w_off, total) = header.layout()?;
    if file_len != total {
        return Err(image_err(format!(
            "file is {file_len} bytes but the header implies {total} \
             (truncated or corrupt)"
        )));
    }

    match header.version {
        V1 => load_sections::<Fnv>(file, &header, mode, col_off, w_off),
        _ => load_sections::<WordHash>(file, &header, mode, col_off, w_off),
    }
}

/// The format version of the image at `path`, read from its header alone
/// ([`IMAGE_VERSION`] or an older one this build still loads).
///
/// # Errors
///
/// Returns the header errors [`load_image`] would.
pub fn image_version(path: &Path) -> Result<u16, ParseError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    Ok(read_header(&mut file, file_len)?.version)
}

/// Reads and decodes the header of a `file_len`-byte image.
fn read_header(file: &mut File, file_len: u64) -> Result<Header, ParseError> {
    if file_len < HEADER_LEN {
        return Err(image_err(format!(
            "file is {file_len} bytes, smaller than the {HEADER_LEN}-byte header \
             (truncated?)"
        )));
    }
    let mut raw = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut raw)?;
    Header::decode(&raw)
}

/// Loads the sections after the header, hashing them with the digest `D`
/// that the header's version verifies.
fn load_sections<D: Digest>(
    file: File,
    header: &Header,
    mode: LoadMode,
    col_off: u64,
    w_off: u64,
) -> Result<Csr, ParseError> {
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
            load_mapped::<D>(&file, header, col_off, w_off)
        }
        LoadMode::Auto => {
            if mappable {
                if let Ok(g) = load_mapped::<D>(&file, header, col_off, w_off) {
                    return Ok(g);
                }
            }
            load_buffered::<D>(file, header)
        }
        LoadMode::Read => load_buffered::<D>(file, header),
    }
}

fn invalid_csr(e: String) -> ParseError {
    image_err(format!("invalid CSR in image: {e}"))
}

/// The mapped path: the sections are hashed on a second CPU while the CSR
/// checks run on this one. A checksum mismatch is still reported first.
fn load_mapped<D: Digest>(
    file: &File,
    header: &Header,
    col_off: u64,
    w_off: u64,
) -> Result<Csr, ParseError> {
    let map = Arc::new(Mapping::of_file(file)?);
    let bytes = map.bytes();
    let row_count = header.nodes as usize + 1;
    let col_count = header.edges as usize;
    let w_count = if header.weighted { col_count } else { 0 };
    let (row_off, col_off, w_off) = (HEADER_LEN as usize, col_off as usize, w_off as usize);
    let (digests, graph) = pipeline::beside(
        || {
            [row_off..col_off, col_off..w_off, w_off..bytes.len()].map(|section| {
                let mut digest = D::new();
                digest.update(&bytes[section]);
                digest.finish()
            })
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
    header.verify(digests)?;
    graph.map_err(invalid_csr)
}

/// The buffered path: each section is read a block at a time straight
/// into its vector, each block hashed as read, and `col` checked a block
/// at a time while the block is in cache. A checksum mismatch is still
/// reported before an invalid CSR.
fn load_buffered<D: Digest>(mut file: File, header: &Header) -> Result<Csr, ParseError> {
    let edges = header.edges as usize;
    let mut row_ptr = vec![0u64; header.nodes as usize + 1];
    let mut col = vec![0u32; edges];
    let w_count = if header.weighted { edges } else { 0 };
    let mut weights = vec![0u32; w_count];
    let mut digests = [D::new(); 3];
    let [row_digest, col_digest, w_digest] = &mut digests;
    read_words(&mut file, &mut row_ptr, row_digest, |_| {})?;
    let mut check = Check::new(&row_ptr, edges, header.sorted);
    read_words(&mut file, &mut col, col_digest, |words| check.feed(words))?;
    read_words(&mut file, &mut weights, w_digest, |_| {})?;
    let checked = check.finish(&col, w_count);
    header.verify(digests.map(D::finish))?;
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
    fn word_hash_is_the_same_over_any_split_into_rounds() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 + i / 7) as u8).collect();
        for len in [0, 5, 8, 31, 32, 37, 64, 999] {
            let mut whole = WordHash::new();
            whole.update(&bytes[..len]);
            for round in [32, 64, 96] {
                let mut pieces = WordHash::new();
                for piece in bytes[..len].chunks(round) {
                    pieces.update(piece);
                }
                assert_eq!(pieces.finish(), whole.finish(), "len {len}, pieces of {round}");
            }
        }
        // Every byte counts, the tail's included.
        let digest = |b: &[u8]| {
            let mut h = WordHash::new();
            h.update(b);
            h.finish()
        };
        for len in [1, 7, 9, 40] {
            assert_ne!(digest(&bytes[..len]), digest(&bytes[..len - 1]), "len {len}");
        }
    }

    #[test]
    fn word_views_cover_exactly_their_slice() {
        let mut none: [u32; 0] = [];
        assert!(bytes_mut(&mut none).is_empty());
        let mut words = [0u32; 3];
        let bytes = bytes_mut(&mut words);
        assert_eq!(bytes.len(), 12);
        bytes.copy_from_slice(&[1, 0, 0, 0, 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        for word in &mut words {
            *word = Word::from_le(*word);
        }
        assert_eq!(words, [1, 256, u32::MAX]);
        // A view of a sub-slice writes that range and nothing around it.
        let mut longs = [7u64; 4];
        let raw: Vec<u8> = (1..=16).collect();
        bytes_mut(&mut longs[1..3]).copy_from_slice(&raw);
        for word in &mut longs {
            *word = Word::from_le(*word);
        }
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        assert_eq!(longs, [7, le(&raw[..8]), le(&raw[8..]), 7]);
    }

    #[test]
    fn read_words_fills_every_block_and_refuses_a_short_section() {
        let per_block = BLOCK_BYTES / 4;
        let values: Vec<u32> = (0..2 * per_block as u32 + 5)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut out = vec![0u32; values.len()];
        let mut digest = WordHash::new();
        let mut pieces = Vec::new();
        read_words(&mut &raw[..], &mut out, &mut digest, |w| {
            pieces.push(w.len())
        })
        .unwrap();
        assert_eq!(out, values);
        assert_eq!(pieces, [per_block, per_block, 5]);
        let mut whole = WordHash::new();
        whole.update(&raw);
        assert_eq!(digest.finish(), whole.finish());

        let mut out = vec![0u32; values.len()];
        let short = &raw[..raw.len() - 1];
        let err = read_words(&mut &short[..], &mut out, &mut WordHash::new(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A v2 image of the raw sections, digests and all, whatever they
    /// hold: the way to an image that is intact but not a valid CSR.
    fn sealed_image(path: &Path, row_ptr: &[u64], col: &[u32], sorted: bool) {
        let header = Header::seal(
            false,
            sorted,
            row_ptr.len() as u64 - 1,
            col.len() as u64,
            [
                SectionDigest::of(row_ptr, u64::to_le_bytes),
                SectionDigest::of(col, u32::to_le_bytes),
                SectionDigest::new(),
            ],
        );
        let mut bytes = header.encode().to_vec();
        bytes.extend(row_ptr.iter().flat_map(|v| v.to_le_bytes()));
        bytes.extend(col.iter().flat_map(|v| v.to_le_bytes()));
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn an_intact_image_of_an_invalid_csr_is_refused_in_every_mode() {
        let path = temp_path("invalid-csr");
        // (row_ptr, col, the message) with `sorted` claimed. Row 1 is
        // empty; node 2's row starts below node 0's last column (legal).
        type Case = (&'static [u64], &'static [u32], &'static str);
        let cases: [Case; 4] = [
            (&[0, 2, 2, 4], &[1, 2, 3, 1], "column 3 out of range (n=3)"),
            (
                &[0, 2, 2, 4],
                &[1, 2, 2, 1],
                "adjacency of node 2 is not sorted",
            ),
            // Out of range is reported before the earlier descent.
            (&[0, 2, 2, 4], &[2, 1, 0, 7], "column 7 out of range (n=3)"),
            (
                &[0, 2, 4, 4],
                &[1, 2, 1, 0],
                "adjacency of node 1 is not sorted",
            ),
        ];
        let modes: &[LoadMode] = if cfg!(unix) {
            &[LoadMode::Read, LoadMode::Mmap, LoadMode::Auto]
        } else {
            &[LoadMode::Read, LoadMode::Auto]
        };
        for (row_ptr, col, want) in cases {
            sealed_image(&path, row_ptr, col, true);
            for &mode in modes {
                let err = load_image(&path, mode).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("csr image error: invalid CSR in image: {want}"),
                    "{mode:?}"
                );
            }
        }
        // The same rows without the claim load, descents and all.
        sealed_image(&path, &[0, 2, 2, 4], &[1, 2, 2, 1], false);
        for &mode in modes {
            let g = load_image(&path, mode).unwrap();
            assert_eq!(g.neighbors(2), &[2, 1]);
        }
        std::fs::remove_file(&path).unwrap();
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
        bad[10..12].copy_from_slice(&3u16.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = load_image(&path, LoadMode::Auto).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");

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
