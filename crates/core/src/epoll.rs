//! Readiness notification for the C100K ingress path: a thin wrapper
//! over Linux `epoll`, declared directly against glibc (no libc crate —
//! this workspace builds fully offline), in the same spirit as
//! [`crate::affinity`]. Like that module it exists on Linux only.
//!
//! The runtime's TCP ingest server drives thousands of connections from
//! **one** thread: its serve loop registers the listener and every
//! accepted socket here, sleeps in [`Epoll::wait`], and services exactly
//! the descriptors the kernel reports ready. Each wait return is one
//! *readiness burst*, and the loop turns a whole burst into a single
//! scheduler submission — so frame batching strengthens with connection
//! count instead of collapsing under it.

use std::io;

/// One ready file descriptor. Readable, peer-closed and errored
/// descriptors all report alike: the caller reads, and the read says
/// which it was.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The caller-chosen token registered with [`Epoll::add`]
    /// (connection-table index, listener sentinel, …).
    pub token: u64,
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event` as the kernel ABI lays it out: packed (12
/// bytes) on x86_64, naturally aligned (16 bytes) everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    /// glibc wrapper; returns the epoll fd or -1.
    fn epoll_create1(flags: i32) -> i32;
    /// glibc wrapper; reads `event`.
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    /// glibc wrapper; blocks up to `timeout` milliseconds.
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    /// glibc wrapper; releases the epoll fd.
    fn close(fd: i32) -> i32;
}

/// An epoll instance (closed on drop). Registered descriptors report
/// level-triggered read readiness plus peer-close/error conditions.
///
/// The wrapper exposes only what the ingest event loop needs: `add` a
/// raw descriptor under a caller-chosen token and `wait` for the next
/// readiness burst (closing a descriptor deregisters it). Tokens come
/// back verbatim in [`Event::token`] — the caller owns their meaning
/// (the runtime uses connection-table indices plus a listener
/// sentinel).
pub struct Epoll {
    fd: i32,
    /// The kernel-facing event array `wait` fills, kept across calls so
    /// a steady-state wait allocates nothing.
    raw: Vec<EpollEvent>,
}

impl Epoll {
    /// Create an epoll instance (`epoll_create1`, close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // Safety: plain syscall, no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            raw: Vec::new(),
        })
    }

    /// Register `fd` for level-triggered read readiness under `token`.
    /// The caller keeps ownership of the descriptor and must close it
    /// before reusing the token.
    pub fn add(&self, fd: i32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            // Level-triggered read interest: leftover socket bytes
            // re-report on the next wait, so one read per burst per
            // connection is starvation-free without EAGAIN loops.
            events: EPOLLIN | EPOLLRDHUP,
            data: token,
        };
        // Safety: `ev` is a live POD local; the call reads it.
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout_ms` milliseconds (`-1` = forever, `0` =
    /// poll) for ready descriptors; `out` is cleared and refilled with
    /// up to `max` events (clamped to `1..=4096`). Returns the event
    /// count — `0` is a timeout (or a signal), not an error. The kernel
    /// array grows to the largest `max` seen and is reused, so with a
    /// reused `out` a wait allocates nothing.
    pub fn wait(&mut self, out: &mut Vec<Event>, max: usize, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let max = max.clamp(1, 4096);
        if self.raw.len() < max {
            self.raw.resize(max, EpollEvent { events: 0, data: 0 });
        }
        // Safety: `raw` provides at least `max` writable events; the
        // kernel writes at most that many.
        let n = unsafe { epoll_wait(self.fd, self.raw.as_mut_ptr(), max as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            // A signal mid-wait is a zero-event wakeup, not a fault.
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        out.extend(
            self.raw[..n as usize]
                .iter()
                .map(|ev| Event { token: ev.data }),
        );
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // Safety: `fd` is a live epoll descriptor we own.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_round_trip_over_a_pipe_pair() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let mut ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), 42).unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut events, 16, 0).unwrap(), 0);

        tx.write_all(b"ping").unwrap();
        assert_eq!(ep.wait(&mut events, 16, 1_000).unwrap(), 1);
        assert_eq!(events[0].token, 42);

        // Peer close still reports (level-triggered: the unread "ping"
        // keeps it ready too).
        drop(tx);
        assert_eq!(ep.wait(&mut events, 16, 1_000).unwrap(), 1);
        assert_eq!(events[0].token, 42);

        drop(rx);
        assert_eq!(
            ep.wait(&mut events, 16, 0).unwrap(),
            0,
            "closing deregisters"
        );
    }

    #[test]
    fn add_rejects_a_bad_descriptor() {
        let ep = Epoll::new().unwrap();
        assert!(ep.add(-1, 0).is_err());
    }
}
