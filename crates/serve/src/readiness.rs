//! Readiness waits: one `poll(2)` over a handful of sockets.
//!
//! The server's reactor blocks here instead of sleeping, during the
//! graceful drain too; no worker ever waits on a socket. `poll` is
//! declared directly: std already links the C library, so no crate is
//! added (DESIGN.md "Hermetic zero-dependency policy"). [`wait`] is the
//! one safe wrapper around the workspace's only `unsafe` block.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `POLLIN`: data to read, or end of stream.
const POLLIN: c_short = 0x001;
/// `POLLOUT`: room to write.
const POLLOUT: c_short = 0x004;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One descriptor to wait on: C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Wait until `fd` has bytes to read or reaches end of stream.
    pub(crate) fn readable(fd: &impl AsRawFd) -> Self {
        PollFd::new(fd, POLLIN)
    }

    /// Wait until `fd` accepts more bytes.
    pub(crate) fn writable(fd: &impl AsRawFd) -> Self {
        PollFd::new(fd, POLLOUT)
    }

    /// Whether the last [`wait`] reported anything for this descriptor:
    /// the readiness asked for, an error or a hang-up.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until at least one of `fds` is ready or `timeout` passes
/// (`None` waits indefinitely), and returns how many are ready. The
/// timeout is rounded up to whole milliseconds, so the wait never ends
/// early, and a signal interrupting the wait restarts it.
///
/// # Errors
///
/// The `poll(2)` error other than `EINTR`, or `InvalidInput` if `fds`
/// is longer than `nfds_t` can count.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    let nfds =
        Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // records laid out as `struct pollfd`, and `nfds` is its exact
        // length, so `poll` reads and writes only inside the slice, and
        // it keeps no pointer past the call. A descriptor that is not
        // open is reported as `POLLNVAL`, not dereferenced.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if let Ok(ready) = usize::try_from(ready) {
            return Ok(ready);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    const POLLHUP: c_short = 0x010;

    #[test]
    fn a_silent_pair_times_out_with_nothing_ready() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(&a)];
        let started = Instant::now();
        // 1.5 ms rounds up to 2 ms: the wait never ends early.
        let ready = wait(&mut fds, Some(Duration::from_micros(1_500))).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].is_ready());
        assert!(started.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn a_write_makes_the_peer_readable() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::readable(&a)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].is_ready());
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn dropping_the_peer_reports_readable_or_hang_up() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::readable(&a)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents & (POLLIN | POLLHUP), 0);
    }

    #[test]
    fn an_empty_socket_is_writable() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::writable(&a)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
    }

    #[test]
    fn only_the_ready_descriptor_is_reported() {
        let (a, _b) = UnixStream::pair().unwrap();
        let (c, mut d) = UnixStream::pair().unwrap();
        d.write_all(b"y").unwrap();
        let mut fds = [PollFd::readable(&a), PollFd::readable(&c)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(!fds[0].is_ready());
        assert!(fds[1].is_ready());
    }
}
