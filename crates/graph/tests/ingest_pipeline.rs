//! The two-core ingest and load pipeline: images stay byte-identical
//! whatever the number of sorted runs, their identity stays the byte-wise
//! FNV-1a value the golden tables pin, a failure in either stage ends the
//! ingest cleanly (an error, no hang, no temp files left), and a load
//! refuses every single-byte flip of an image, header included, the
//! integrity digest taking precedence over the CSR checks. A
//! `minnow-csr-image/v1` image still loads, checked as before.
//!
//! The run counts differ with the CPUs the process may use (two run
//! buffers share the budget when a second CPU sorts and spills), so the
//! budgets below are chosen to give 1, 2, 3 and at least 24 runs either
//! way. Each test uses its own temp directory, so they run in parallel.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use minnow_graph::gen::rmat::{for_each_edge, RmatConfig};
use minnow_graph::image::{load_image, write_image, LoadMode};
use minnow_graph::ingest::{ingest_to_csr, ingest_to_image, IngestOptions};
use minnow_graph::io::{GraphSource, ParseError};
use minnow_graph::Csr;

/// A fresh, empty temp directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minnow-pipeline-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Runs `f` on its own thread and fails the test if it does not return
/// within a minute.
fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the ingest returned within the timeout");
    worker.join().unwrap();
    out
}

/// A scale-13 RMAT edge list (131,072 samples less self-loops, repeats
/// included), as text with a weight column when `weighted`.
fn rmat_text(weighted: bool) -> (String, usize) {
    let mut text = String::new();
    let mut lines = 0;
    for_each_edge(&RmatConfig::graph500(13, 16), 5, |u, v| {
        lines += 1;
        if weighted {
            text.push_str(&format!("{u} {v} {}\n", 1 + (lines * 7) % 5));
        } else {
            text.push_str(&format!("{u} {v}\n"));
        }
    });
    (text, lines)
}

#[test]
fn images_are_byte_identical_across_run_counts() {
    let dir = temp_dir("run-counts");
    for weighted in [false, true] {
        let (text, lines) = rmat_text(weighted);
        // A run buffer holds 8 bytes an edge while every weight agrees and
        // 12 once they differ, so a budget of `bytes * lines * k` gives
        // ceil(1/k) runs with one buffer and ceil(2/k) with two; the margin
        // keeps rounding from adding a run. The last budget is below the
        // 4096-edge floor.
        let bytes = if weighted { 12.0 } else { 8.0 };
        let share = |k: f64| (bytes * lines as f64 * k) as usize + 1000;
        let budgets = [share(2.0), share(1.0), share(2.0 / 3.0), share(0.4), 1];
        let mut first: Option<Vec<u8>> = None;
        let mut runs = Vec::new();
        for budget in budgets {
            let opts = IngestOptions {
                dedup: true,
                budget_bytes: budget,
                temp_dir: Some(dir.clone()),
                ..IngestOptions::default()
            };
            let path = dir.join("out.mcsr");
            let report =
                ingest_to_image(GraphSource::EdgeList, text.as_bytes(), &path, &opts).unwrap();
            assert_eq!(report.weighted, weighted);
            runs.push(report.runs);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            match &first {
                None => {
                    // The streamed image is the in-memory ingest, written.
                    let (g, _) =
                        ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &opts).unwrap();
                    write_image(&g, &path).unwrap();
                    assert!(std::fs::read(&path).unwrap() == bytes, "budget {budget}");
                    std::fs::remove_file(&path).unwrap();
                    first = Some(bytes);
                }
                Some(first) => assert!(
                    *first == bytes,
                    "weighted={weighted}: the image at budget {budget} ({} runs) differs",
                    report.runs
                ),
            }
        }
        for want in [1, 2, 3] {
            assert!(runs.contains(&want), "weighted={weighted}: runs {runs:?}");
        }
        assert!(runs[4] >= 24, "weighted={weighted}: runs {runs:?}");
        assert_eq!(entries(&dir), Vec::<String>::new(), "temp files left");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_parse_error_after_spilled_runs_ends_the_ingest_cleanly() {
    let dir = temp_dir("parse-error");
    // 100,000 edges a run buffer alone, 50,000 when two share the budget:
    // the error line follows at least three full runs either way, right
    // after the last of them was handed to the spill stage.
    let budget = 12 * 100_000;
    let good = 3 * 100_000 + 10;
    let mut text: String = (0..good)
        .map(|i| format!("{} {}\n", i % 977, i % 1009))
        .collect();
    text.push_str("7 not-a-number\n");
    let opts = IngestOptions {
        budget_bytes: budget,
        temp_dir: Some(dir.clone()),
        ..IngestOptions::default()
    };
    let image = dir.join("never.mcsr");
    let err = within_timeout(move || {
        ingest_to_image(GraphSource::EdgeList, text.as_bytes(), &image, &opts).unwrap_err()
    });
    match err {
        ParseError::Format { line, .. } => assert_eq!(line, good + 1),
        other => panic!("expected a format error, got {other}"),
    }
    assert_eq!(entries(&dir), Vec::<String>::new(), "temp files left");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Input that removes the ingest's temp directory once `cut` bytes have
/// been read, so the next run file cannot be created.
struct Vanishing {
    data: Vec<u8>,
    pos: usize,
    cut: usize,
    dir: PathBuf,
}

impl Read for Vanishing {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // A run file created meanwhile can make one attempt fail.
        while self.pos >= self.cut && self.dir.exists() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
        let n = buf.len().min(self.data.len() - self.pos).min(4096);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn a_vanished_temp_dir_fails_the_ingest_cleanly() {
    let parent = temp_dir("vanishing");
    let dir = parent.join("runs");
    std::fs::create_dir(&dir).unwrap();
    // 4096-edge runs: the directory goes after about three of them, and
    // about seven more still have to spill.
    let text: String = (0..40_000u32)
        .map(|i| format!("{} {}\n", i % 4001, i % 3989))
        .collect();
    let cut = text.len() / 4;
    let input = Vanishing {
        data: text.into_bytes(),
        pos: 0,
        cut,
        dir: dir.clone(),
    };
    let opts = IngestOptions {
        budget_bytes: 1,
        temp_dir: Some(dir.clone()),
        ..IngestOptions::default()
    };
    let image = parent.join("never.mcsr");
    let err = within_timeout(move || {
        ingest_to_image(GraphSource::EdgeList, input, &image, &opts).unwrap_err()
    });
    match err {
        ParseError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
        other => panic!("expected an I/O error, got {other}"),
    }
    assert!(!dir.exists());
    assert_eq!(entries(&parent), Vec::<String>::new(), "files left");
    std::fs::remove_dir_all(&parent).unwrap();
}

/// Sorted, weighted, with an empty row: 64 header bytes and 80 of
/// sections.
fn small_image() -> Csr {
    let mut g = Csr::from_edges(
        5,
        &[(0, 2), (0, 1), (1, 3), (3, 0), (3, 2)],
        Some(&[5, 2, 9, 1, 4]),
    );
    g.sort_adjacency();
    g
}

fn load_modes() -> &'static [LoadMode] {
    if cfg!(unix) {
        &[LoadMode::Read, LoadMode::Mmap]
    } else {
        &[LoadMode::Read]
    }
}

#[test]
fn every_single_byte_flip_is_refused() {
    let dir = temp_dir("flips");
    let path = dir.join("img.mcsr");
    write_image(&small_image(), &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert_eq!(good.len(), 64 + 6 * 8 + 2 * 5 * 4);
    for at in 0..good.len() {
        // 0x02 at byte 12 clears the sorted flag: the one header flip that
        // still describes a valid image.
        for mask in [0xff_u8, 0x01, 0x02, 0x80] {
            let mut bad = good.clone();
            bad[at] ^= mask;
            std::fs::write(&path, &bad).unwrap();
            for &mode in load_modes() {
                let err = match load_image(&path, mode) {
                    Ok(_) => panic!("byte {at} ^ {mask:#04x} loaded in {mode:?}"),
                    Err(e) => e.to_string(),
                };
                // The integrity digest covers the header's first 40 bytes,
                // itself and every section byte, and is checked before the
                // CSR invariants. Other header flips fail its field checks.
                if at >= 64 || (32..48).contains(&at) || (at, mask) == (12, 0x02) {
                    assert!(
                        err.contains("checksum mismatch") && err.contains("integrity digest"),
                        "byte {at} ^ {mask:#04x} {mode:?}: {err}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flips that cancel with certainty in a word hash with one multiply per
/// step: a multiply carries a flip of bit 63 to bit 63 alone, whatever
/// the state, so a later word in the same chain can undo it. Each is
/// refused with the integrity digest named, in both load modes.
#[test]
fn flips_that_cancel_in_a_one_multiply_word_hash_are_refused() {
    let dir = temp_dir("top-bits");
    let path = dir.join("img.mcsr");
    let edges: Vec<(u32, u32)> = (0..40).map(|i| (i % 8, (i * 3 + 1) % 8)).collect();
    let weights: Vec<u32> = (0..40).map(|i| i * 7 + 1).collect();
    write_image(&Csr::from_edges(8, &edges, Some(&weights)), &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    // Sections hashed from their own starts: row_ptr 64..136, col
    // 136..296, weights 296..456, which get no CSR check.
    let (col, weights) = (136, 296);
    assert_eq!(good.len(), weights + 160);
    let top = |section: usize, words: usize| (0..words).map(move |w| section + 8 * w + 7);
    let mut cases: Vec<Vec<usize>> = Vec::new();
    // The identity's top byte with the top byte of any section word.
    for at in top(64, 9).chain(top(col, 20)).chain(top(weights, 20)) {
        cases.push(vec![39, at]);
    }
    // Any two top bits of the weights, and the top bit of one word with
    // bits 31 and 63 of a later one, which cancel if the multiply is
    // followed by a xorshift by 32 alone.
    for (i, a) in top(weights, 20).enumerate() {
        for b in top(weights, 20).skip(i + 1) {
            cases.push(vec![a, b]);
            cases.push(vec![a, b - 4, b]);
        }
    }
    for flips in cases {
        let mut bad = good.clone();
        for &at in &flips {
            bad[at] ^= 0x80;
        }
        std::fs::write(&path, &bad).unwrap();
        for &mode in load_modes() {
            let err = match load_image(&path, mode) {
                Ok(_) => panic!("top bits of bytes {flips:?} loaded in {mode:?}"),
                Err(e) => e.to_string(),
            };
            assert!(
                err.contains("checksum mismatch") && err.contains("integrity digest"),
                "bytes {flips:?} {mode:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same image as a `minnow-csr-image/v1` file: version 1 and no
/// integrity digest.
fn as_v1(v2: &[u8]) -> Vec<u8> {
    let mut v1 = v2.to_vec();
    v1[10..12].copy_from_slice(&1u16.to_le_bytes());
    v1[40..48].fill(0);
    v1
}

#[test]
fn v1_images_load_with_their_sections_checked() {
    let dir = temp_dir("v1");
    let path = dir.join("img.mcsr");
    let mut unweighted = Csr::from_edges(4, &[(0, 3), (0, 1), (2, 1)], None);
    unweighted.sort_adjacency();
    for g in [small_image(), unweighted] {
        write_image(&g, &path).unwrap();
        let v1 = as_v1(&std::fs::read(&path).unwrap());
        std::fs::write(&path, &v1).unwrap();
        for &mode in load_modes() {
            assert_eq!(load_image(&path, mode).unwrap(), g, "{mode:?}");
        }

        // A v1 load still verifies the sections against the identity.
        let mut bad = v1.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        for &mode in load_modes() {
            let err = load_image(&path, mode).unwrap_err().to_string();
            assert!(
                err.contains("checksum mismatch") && err.contains("checksum is"),
                "{mode:?}: {err}"
            );
        }

        // A v1 limitation: its header is outside the checksum, so clearing
        // the sorted flag loads the same sections as an unsorted graph.
        let mut unsorted = v1;
        unsorted[12] ^= 0x02;
        std::fs::write(&path, &unsorted).unwrap();
        for &mode in load_modes() {
            let back = load_image(&path, mode).unwrap();
            assert!(!back.is_sorted());
            assert_eq!(back.raw_parts(), g.raw_parts());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Byte-wise 64-bit FNV-1a: the reference for an image's identity.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the FNV-1a digests of an image's three sections: what
/// header bytes 32..40 must hold.
fn identity_of(image: &[u8]) -> u64 {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let col_off = 64 + (word(16) + 1) * 8;
    let w_off = col_off + word(24) * 4;
    let digests: Vec<u8> = [&image[64..col_off], &image[col_off..w_off], &image[w_off..]]
        .into_iter()
        .flat_map(|section| fnv1a(section).to_le_bytes())
        .collect();
    fnv1a(&digests)
}

fn header_identity(image: &[u8]) -> u64 {
    u64::from_le_bytes(image[32..40].try_into().unwrap())
}

#[test]
fn header_identity_is_the_byte_wise_fnv_of_the_sections() {
    let dir = temp_dir("identity");
    let path = dir.join("img.mcsr");
    for weighted in [false, true] {
        let (text, lines) = rmat_text(weighted);
        let bytes_per_edge = if weighted { 12.0 } else { 8.0 };
        let mut runs = Vec::new();
        // One run, then at least three, however many CPUs sort them.
        for k in [2.0, 0.4] {
            let opts = IngestOptions {
                dedup: true,
                budget_bytes: (bytes_per_edge * lines as f64 * k) as usize + 1000,
                temp_dir: Some(dir.clone()),
                ..IngestOptions::default()
            };
            let report =
                ingest_to_image(GraphSource::EdgeList, text.as_bytes(), &path, &opts).unwrap();
            runs.push(report.runs);
            let image = std::fs::read(&path).unwrap();
            assert_eq!(
                header_identity(&image),
                identity_of(&image),
                "weighted={weighted}, {} runs",
                report.runs
            );

            let (g, _) = ingest_to_csr(GraphSource::EdgeList, text.as_bytes(), &opts).unwrap();
            write_image(&g, &path).unwrap();
            let image = std::fs::read(&path).unwrap();
            assert_eq!(header_identity(&image), identity_of(&image), "write_image");
        }
        assert!(
            runs[0] == 1 && runs[1] >= 3,
            "weighted={weighted}: runs {runs:?}"
        );
    }
    let image = {
        write_image(&small_image(), &path).unwrap();
        std::fs::read(&path).unwrap()
    };
    assert_eq!(header_identity(&image), identity_of(&image), "small image");
    assert_eq!(
        header_identity(&as_v1(&image)),
        header_identity(&image),
        "v1 and v2 images of one graph share the identity"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
