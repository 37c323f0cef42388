//! Transport plumbing: a stream that is either a Unix domain socket or
//! a TCP connection, address parsing, and capped line I/O.
//!
//! The daemon, its workers, and its clients all speak newline-delimited
//! JSON; every line read anywhere in the crate goes through
//! [`read_line_capped`] so an oversized (or hostile) payload is
//! detected *before* it is buffered whole.
//!
//! A reader that expects input soon can poll the socket without
//! blocking for up to [`SPIN`] first ([`CpuGate::spin_for_input`]), so
//! a line that arrives within a warm request's service time is picked
//! up without a blocked-thread wake-up. The gate lets it only while a
//! CPU is free for the spinner and one for its peer.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a spinning reader polls before it blocks: about
/// four times the daemon's in-process service time for a warm `eval`.
pub const SPIN: Duration = Duration::from_micros(100);

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// An independent handle to the same connection (for split
    /// read/write halves).
    ///
    /// # Errors
    ///
    /// Propagates the OS `dup` failure.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down both directions, unblocking any reader.
    pub fn shutdown(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A socket whose `O_NONBLOCK` flag can be switched.
pub(crate) trait NonBlocking {
    /// Switches non-blocking mode on or off.
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()>;
}

impl NonBlocking for Stream {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A daemon address: a socket path (anything containing `/`) or a TCP
/// `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP `host:port`.
    Tcp(String),
}

impl ServeAddr {
    /// Parses an address: text containing a `/` is a socket path,
    /// anything else a TCP `host:port`.
    pub fn parse(text: &str) -> ServeAddr {
        if text.contains('/') {
            ServeAddr::Unix(PathBuf::from(text))
        } else {
            ServeAddr::Tcp(text.to_string())
        }
    }

    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// Propagates the OS connect failure.
    pub fn connect(&self) -> std::io::Result<Stream> {
        Ok(match self {
            ServeAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            ServeAddr::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        })
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// Outcome of a capped line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// Clean end of stream (or a torn trailing fragment).
    Eof,
    /// The line exceeded the cap; the stream is desynchronized and must
    /// be dropped after an error reply.
    Oversized,
}

/// Reads one `\n`-terminated line, refusing to buffer more than `cap`
/// bytes.
///
/// # Errors
///
/// Propagates transport errors; non-UTF-8 lines surface as
/// `InvalidData`.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: u64) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(cap).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if !buf.ends_with(b"\n") {
        return if n as u64 == cap {
            Ok(LineRead::Oversized)
        } else {
            // The peer vanished mid-line; nothing complete to hand up.
            Ok(LineRead::Eof)
        };
    }
    buf.pop();
    if buf.ends_with(b"\r") {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(LineRead::Line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes `line` plus a newline in one buffer and flushes. One buffer
/// means one `write` on an unbuffered stream, so the peer never wakes on
/// a line without its newline.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_line<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// Polls `reader`'s socket, whose buffer is empty, without blocking
/// until bytes (or end of stream) arrive or [`SPIN`] passes, then
/// returns; the caller's blocking read takes over from there.
///
/// # Errors
///
/// Propagates transport errors, including a failure to restore
/// blocking mode.
fn spin_for_input<S: Read + NonBlocking>(reader: &mut BufReader<S>) -> std::io::Result<()> {
    reader.get_ref().set_nonblocking(true)?;
    let deadline = Instant::now() + SPIN;
    let polled = loop {
        match reader.fill_buf() {
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break Ok(());
                }
                std::hint::spin_loop();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    // `O_NONBLOCK` is shared with every `try_clone`d handle, the writer
    // half included, so blocking mode comes back on every path.
    let restored = reader.get_ref().set_nonblocking(false);
    polled.and(restored)
}

/// Decides who may spin. A spinning reader holds a CPU, and the peer it
/// waits on needs another one to answer; without both, the spin only
/// delays that answer (on two CPUs held by simulations, or on one CPU,
/// spinning on both ends made warm round trips about 8x slower). The
/// gate counts the CPUs held by running simulations (one each) and by
/// spinning readers (two each: the reader and its peer), and lets a
/// reader spin only while the count stays within the host's CPUs.
#[derive(Debug)]
pub(crate) struct CpuGate {
    cpus: usize,
    held: AtomicUsize,
}

/// CPUs held on a [`CpuGate`], given back on drop.
#[derive(Debug)]
pub(crate) struct Held<'a> {
    gate: &'a CpuGate,
    cpus: usize,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.gate.held.fetch_sub(self.cpus, Ordering::Relaxed);
    }
}

impl CpuGate {
    /// A gate over `cpus` CPUs.
    pub(crate) fn new(cpus: usize) -> CpuGate {
        CpuGate {
            cpus,
            held: AtomicUsize::new(0),
        }
    }

    /// Holds one CPU for a running simulation, free or not.
    pub(crate) fn occupy(&self) -> Held<'_> {
        self.held.fetch_add(1, Ordering::Relaxed);
        Held {
            gate: self,
            cpus: 1,
        }
    }

    /// Holds two CPUs, a spinner's and its peer's, if both are free.
    fn try_spin(&self) -> Option<Held<'_>> {
        self.held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                (held + 2 <= self.cpus).then_some(held + 2)
            })
            .ok()
            .map(|_| Held {
                gate: self,
                cpus: 2,
            })
    }

    /// Polls `reader`'s socket for up to [`SPIN`] if nothing is
    /// buffered and the gate grants the spin; otherwise returns at once
    /// and the caller blocks.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, including a failure to restore
    /// blocking mode.
    pub(crate) fn spin_for_input<S: Read + NonBlocking>(
        &self,
        reader: &mut BufReader<S>,
    ) -> std::io::Result<()> {
        if !reader.buffer().is_empty() {
            return Ok(());
        }
        match self.try_spin() {
            Some(_held) => spin_for_input(reader),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn addresses_parse_by_shape() {
        assert_eq!(
            ServeAddr::parse("/tmp/minnow.sock"),
            ServeAddr::Unix(PathBuf::from("/tmp/minnow.sock"))
        );
        assert_eq!(
            ServeAddr::parse("127.0.0.1:7070"),
            ServeAddr::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            ServeAddr::parse("./serve.sock"),
            ServeAddr::Unix(PathBuf::from("./serve.sock"))
        );
    }

    #[test]
    fn capped_reads_distinguish_lines_eof_and_oversize() {
        let mut r = BufReader::new(&b"hello\nworld"[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Line("hello".into()));
        // Torn trailing fragment under the cap: EOF, not a line.
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Eof);
        let mut r = BufReader::new(&b"abcdefghij\n"[..]);
        assert_eq!(read_line_capped(&mut r, 4).unwrap(), LineRead::Oversized);
        let mut r = BufReader::new(&b"crlf\r\nrest\n"[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Line("crlf".into()));
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Line("rest".into()));
        let mut r = BufReader::new(&b""[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Eof);
    }

    #[test]
    fn exact_cap_length_line_still_parses() {
        // A line of exactly `cap` bytes *including* the newline fits.
        let mut r = BufReader::new(&b"abc\n"[..]);
        assert_eq!(read_line_capped(&mut r, 4).unwrap(), LineRead::Line("abc".into()));
    }

    /// A socket stand-in: non-blocking reads stall `stalls` times with
    /// `WouldBlock` (or fail with `fail`), a blocking read hands over
    /// `data`, and every mode switch is recorded.
    #[derive(Default)]
    struct Scripted {
        stalls: usize,
        fail: Option<ErrorKind>,
        data: Vec<u8>,
        modes: RefCell<Vec<bool>>,
    }

    impl NonBlocking for Scripted {
        fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
            self.modes.borrow_mut().push(on);
            Ok(())
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.modes.borrow().last() == Some(&true) {
                if let Some(kind) = self.fail {
                    return Err(kind.into());
                }
                if self.stalls > 0 {
                    self.stalls -= 1;
                    return Err(ErrorKind::WouldBlock.into());
                }
            }
            let n = self.data.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data.drain(..n);
            Ok(n)
        }
    }

    fn scripted(stalls: usize, fail: Option<ErrorKind>) -> BufReader<Scripted> {
        BufReader::new(Scripted {
            stalls,
            fail,
            data: b"reply\n".to_vec(),
            ..Scripted::default()
        })
    }

    #[test]
    fn one_cpu_never_switches_to_non_blocking() {
        let mut r = scripted(3, None);
        CpuGate::new(1).spin_for_input(&mut r).unwrap();
        assert!(r.get_ref().modes.borrow().is_empty());
        assert!(r.buffer().is_empty(), "nothing was read while not spinning");
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("reply".into())
        );
    }

    #[test]
    fn spinning_picks_up_a_prompt_reply_and_restores_blocking_mode() {
        let gate = CpuGate::new(2);
        let mut r = scripted(3, None);
        gate.spin_for_input(&mut r).unwrap();
        assert_eq!(*r.get_ref().modes.borrow(), [true, false]);
        assert_eq!(r.buffer(), b"reply\n", "the reply was read while spinning");
        // Bytes already buffered: no second switch.
        gate.spin_for_input(&mut r).unwrap();
        assert_eq!(r.get_ref().modes.borrow().len(), 2);
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("reply".into())
        );
    }

    #[test]
    fn spinning_gives_up_after_the_bound_and_restores_blocking_mode() {
        let mut r = scripted(usize::MAX, None);
        let t0 = Instant::now();
        spin_for_input(&mut r).unwrap();
        assert!(t0.elapsed() >= SPIN);
        assert_eq!(*r.get_ref().modes.borrow(), [true, false]);
        assert!(r.buffer().is_empty());
        // The blocking read after the spin still gets the late reply.
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("reply".into())
        );
    }

    #[test]
    fn a_transport_error_while_spinning_restores_blocking_mode() {
        let mut r = scripted(0, Some(ErrorKind::ConnectionReset));
        let err = spin_for_input(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
        assert_eq!(*r.get_ref().modes.borrow(), [true, false]);
    }

    #[test]
    fn a_reply_later_than_the_spin_bound_is_still_read_from_a_socket() {
        let (a, b) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            let mut b = Stream::Unix(b);
            std::thread::sleep(SPIN * 50);
            write_line(&mut b, "late").unwrap();
        });
        let mut r = BufReader::new(Stream::Unix(a));
        spin_for_input(&mut r).unwrap();
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("late".into()),
            "blocking mode is back: the read waited instead of failing"
        );
        writer.join().unwrap();
    }

    #[test]
    fn a_busy_cpu_or_another_spinner_stops_the_spin() {
        let spins = |gate: &CpuGate| {
            let mut r = scripted(0, None);
            gate.spin_for_input(&mut r).unwrap();
            let switched = !r.get_ref().modes.borrow().is_empty();
            switched
        };
        let two = CpuGate::new(2);
        {
            let _sim = two.occupy();
            assert!(!spins(&two), "a simulation holds one of the two CPUs");
        }
        {
            let _spinner = two.try_spin().unwrap();
            assert!(
                two.try_spin().is_none(),
                "one spinner and its peer fill two CPUs"
            );
            assert!(!spins(&two));
        }
        assert!(spins(&two), "every CPU is given back");
        let four = CpuGate::new(4);
        let _sim = four.occupy();
        let _spinner = four.try_spin().unwrap();
        assert!(!spins(&four), "3 of 4 CPUs held");
        let busy = (four.occupy(), four.occupy(), four.occupy());
        assert_eq!(
            four.held.load(Ordering::Relaxed),
            6,
            "simulations are counted past the CPUs"
        );
        drop(busy);
        assert_eq!(four.held.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn lines_leave_in_one_write() {
        /// Counts `write` calls.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_line(&mut w, "{\"ok\":true}").unwrap();
        assert_eq!(w.0, [b"{\"ok\":true}\n".to_vec()]);
    }
}
