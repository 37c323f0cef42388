//! Minimal read-only file memory-mapping, used by the on-disk CSR image
//! loader ([`crate::image`]) for its zero-copy path.
//!
//! The workspace is dependency-free by policy, so this wraps the raw
//! `mmap(2)`/`munmap(2)` symbols directly (std already links libc on every
//! unix target). Non-unix builds report [`std::io::ErrorKind::Unsupported`]
//! and callers fall back to buffered reads.

use std::fs::File;
use std::io;

/// A read-only, private mapping of an entire file.
///
/// The mapping is immutable (`PROT_READ`, `MAP_PRIVATE`) and unmapped on
/// drop. Empty files cannot be mapped (`mmap` rejects zero-length maps);
/// callers are expected to hold a header-sized minimum anyway.
///
/// The file must not be truncated while it is mapped: reading a page that
/// no longer has file bytes behind it raises `SIGBUS`, which no caller
/// can turn into an error.
#[derive(Debug)]
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime and `mmap`'d
// memory is not tied to the creating thread.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `file` in its entirety.
    ///
    /// # Errors
    ///
    /// Fails when the file is empty, when `mmap` itself fails, or — with
    /// [`std::io::ErrorKind::Unsupported`] — on non-unix targets.
    pub fn of_file(file: &File) -> io::Result<Mapping> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "file too large to map")
        })?;
        sys::map(file, len).map(|ptr| Mapping { ptr, len })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` mapped, readable bytes until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Base address of the mapping.
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a live mapping).
    #[allow(dead_code)] // paired with `len` for the conventional API shape
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub fn map(file: &File, len: usize) -> io::Result<*const u8> {
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of an open fd; the
        // kernel validates the fd and length and reports failure via
        // MAP_FAILED (-1).
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    pub fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: `ptr`/`len` came from a successful `map` and are unmapped
        // exactly once (Mapping is not Clone).
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    pub fn map(_file: &File, _len: usize) -> io::Result<*const u8> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory-mapping is only implemented on unix targets",
        ))
    }

    pub fn unmap(_ptr: *const u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minnow-mmap-test-{}-{tag}", std::process::id()))
    }

    #[test]
    #[cfg(unix)]
    fn maps_file_contents() {
        let path = temp_path("contents");
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(b"hello mapping"))
            .unwrap();
        let file = File::open(&path).unwrap();
        let map = Mapping::of_file(&file).unwrap();
        assert_eq!(map.bytes(), b"hello mapping");
        assert_eq!(map.len(), 13);
        assert!(!map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    /// Writes `bytes` to a fresh temp file and maps it.
    #[cfg(unix)]
    fn mapped(tag: &str, bytes: &[u8]) -> (std::path::PathBuf, Mapping) {
        let path = temp_path(tag);
        std::fs::write(&path, bytes).unwrap();
        let map = Mapping::of_file(&File::open(&path).unwrap()).unwrap();
        (path, map)
    }

    /// `unsafe impl Send` and `Sync`: two threads read one mapping at
    /// once, then a third owns and drops it.
    #[test]
    #[cfg(unix)]
    fn mapping_is_shared_across_threads_and_moved_to_another() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * 4096 + 17).collect();
        let (path, map) = mapped("threads", &data);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| map.bytes().iter().map(|&b| u64::from(b)).sum::<u64>()))
                .collect();
            let want: u64 = data.iter().map(|&b| u64::from(b)).sum();
            for r in readers {
                assert_eq!(r.join().unwrap(), want);
            }
        });
        let owner = std::thread::spawn(move || {
            let copy = map.bytes().to_vec();
            drop(map);
            copy
        });
        assert_eq!(owner.join().unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    /// `bytes`: the slice stays valid once the `File` is closed and the
    /// path unlinked, since the mapping holds its own reference.
    #[test]
    #[cfg(unix)]
    fn bytes_outlive_the_file_handle_and_the_path() {
        let (path, map) = mapped("unlinked", b"still mapped after unlink");
        std::fs::remove_file(&path).unwrap();
        assert!(!path.exists());
        assert_eq!(map.bytes(), b"still mapped after unlink");
    }

    /// `map`: `mmap` refuses a `PROT_READ` mapping of a write-only fd;
    /// that is an `Err`, not a panic or a bogus pointer.
    #[test]
    #[cfg(unix)]
    fn write_only_fd_is_an_error() {
        let path = temp_path("write-only");
        std::fs::write(&path, b"not readable through this fd").unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let err = Mapping::of_file(&file).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// `unmap`: every drop returns its mapping. The lines of
    /// `/proc/self/maps` naming the file are counted, so other tests'
    /// threads mapping and unmapping at the same time cannot disturb it.
    #[test]
    #[cfg(target_os = "linux")]
    fn dropped_mappings_leave_no_trace_in_the_address_space() {
        let path = temp_path("unmap");
        std::fs::write(&path, vec![7u8; 8192]).unwrap();
        let name = path.to_str().unwrap().to_string();
        let lines = || {
            let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
            maps.lines().filter(|l| l.ends_with(&name)).count()
        };
        let before = lines();
        let file = File::open(&path).unwrap();
        let live = Mapping::of_file(&file).unwrap();
        assert_eq!(lines(), before + 1, "a live mapping shows in the maps");
        drop(live);
        for _ in 0..1000 {
            drop(Mapping::of_file(&file).unwrap());
        }
        assert_eq!(lines(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_empty_file() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        assert!(Mapping::of_file(&file).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
