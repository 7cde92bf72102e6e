//! Reactor plumbing for the server: a minimal epoll facade.
//!
//! The offline toolchain has no `mio`/`libc`, so on Linux/x86_64 the
//! [`Poller`] drives `epoll` through raw syscalls (the same shim
//! approach the workspace uses for third-party crates). Elsewhere it
//! degrades to a level-triggered scan: a wait sleeps one tick and
//! reports every registered token as ready for whatever it is armed
//! for, and the server's non-blocking reads and writes turn the
//! over-approximation into correctness (they simply observe
//! `WouldBlock`). The facade is deliberately tiny — one `u64` token per
//! fd. The server's workers register each socket one-shot
//! ([`Poller::add_oneshot`]): an event disarms it until the worker that
//! served it [`rearm`](Poller::rearm)s it, and each worker takes one
//! event at a time ([`Poller::wait_one`]). [`Poller::add`] and
//! [`Poller::wait`] stay plain level-triggered, for callers that drive
//! a set of sockets from one thread.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable event bit (matches `EPOLLIN`).
pub const EV_IN: u32 = 0x1;
/// Writable event bit (matches `EPOLLOUT`).
pub const EV_OUT: u32 = 0x4;
/// Error and hang-up bits (`ERR | HUP`), reported whatever the interest.
const EV_ERR_HUP: u32 = 0x8 | 0x10;
/// The peer's half-close (`RDHUP`): news only to a reader (its next
/// read returns EOF), so it is armed with reads.
const EV_RDHUP: u32 = 0x2000;

/// One-shot registration (`EPOLLONESHOT`): an event disarms the fd
/// until it is re-armed.
const EV_ONESHOT: u32 = 1 << 30;

/// The event mask for the given interest.
fn mask(read: bool, write: bool) -> u32 {
    let read = if read { EV_IN | EV_RDHUP } else { 0 };
    let write = if write { EV_OUT } else { 0 };
    EV_ERR_HUP | read | write
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::*;
    use std::arch::asm;

    const SYS_CLOSE: usize = 3;
    const SYS_EPOLL_WAIT: usize = 232;
    const SYS_EPOLL_CTL: usize = 233;
    const SYS_EPOLL_CREATE1: usize = 291;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0o2000000;

    /// x86_64 `struct epoll_event` is packed to 12 bytes.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// An epoll instance (level-triggered).
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let fd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
            Ok(Poller { epfd: fd as RawFd })
        }

        fn ctl(&self, op: usize, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let ev = EpollEvent {
                events,
                data: token,
            };
            let ptr = if op == EPOLL_CTL_DEL {
                0
            } else {
                &ev as *const EpollEvent as usize
            };
            check(unsafe { syscall4(SYS_EPOLL_CTL, self.epfd as usize, op, fd as usize, ptr) })?;
            Ok(())
        }

        /// Register `fd` with read interest.
        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, mask(true, false))
        }

        /// Register `fd` one-shot with read interest: its first event
        /// disarms it until [`Poller::rearm`].
        pub fn add_oneshot(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, mask(true, false) | EV_ONESHOT)
        }

        /// Re-arm a one-shot `fd` for the given interest. Level-triggered:
        /// a condition that already holds is reported at once.
        pub fn rearm(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, mask(read, write) | EV_ONESHOT)
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait up to `timeout` for at most `N` events.
        fn wait_n<const N: usize>(&self, timeout: Duration) -> io::Result<impl Iterator<Item = (u64, u32)>> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; N];
            let n = check(unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    N,
                    timeout.as_millis().min(i32::MAX as u128) as usize,
                )
            })?;
            Ok(buf.into_iter().take(n).map(|ev| (ev.data, ev.events)))
        }

        /// Wait up to `timeout` for events, appending `(token, events)`
        /// pairs to `out`. Returns the number of events delivered.
        pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Duration) -> io::Result<usize> {
            let before = out.len();
            out.extend(self.wait_n::<128>(timeout)?);
            Ok(out.len() - before)
        }

        /// Wait up to `timeout` for one event: `(token, events)`, or
        /// `None` when the wait timed out.
        pub fn wait_one(&self, timeout: Duration) -> io::Result<Option<(u64, u32)>> {
            Ok(self.wait_n::<1>(timeout)?.next())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            let _ = unsafe { syscall4(SYS_CLOSE, self.epfd as usize, 0, 0, 0) };
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::Mutex;

    /// Portable fallback: no kernel poller, so a wait sleeps one short
    /// tick and reports every registered token as ready for what it is
    /// armed for. The server's non-blocking reads and writes absorb the
    /// over-approximation. A one-shot fd is disarmed (its mask kept
    /// with no interest) once reported.
    pub struct Poller {
        tokens: Mutex<BTreeMap<RawFd, (u64, u32)>>,
        /// The fd `wait_one` reported last: the next call scans on from
        /// it, so every armed fd gets its turn.
        last: AtomicI32,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                tokens: Mutex::new(BTreeMap::new()),
                last: AtomicI32::new(-1),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.tokens.lock().unwrap().insert(fd, (token, mask(true, false)));
            Ok(())
        }

        pub fn add_oneshot(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.tokens.lock().unwrap().insert(fd, (token, mask(true, false) | EV_ONESHOT));
            Ok(())
        }

        pub fn rearm(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.tokens.lock().unwrap().insert(fd, (token, mask(read, write) | EV_ONESHOT));
            Ok(())
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.tokens.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Duration) -> io::Result<usize> {
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            let tokens = self.tokens.lock().unwrap();
            for (token, events) in tokens.values() {
                let ready = events & (EV_IN | EV_OUT);
                if ready != 0 {
                    out.push((*token, ready));
                }
            }
            Ok(out.len())
        }

        pub fn wait_one(&self, timeout: Duration) -> io::Result<Option<(u64, u32)>> {
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            let mut tokens = self.tokens.lock().unwrap();
            let last = self.last.load(Ordering::Relaxed);
            let after = tokens.range(last.saturating_add(1)..);
            let fd = after
                .chain(tokens.range(..=last))
                .find(|(_, (_, ev))| ev & (EV_IN | EV_OUT) != 0)
                .map(|(fd, _)| *fd);
            Ok(fd.map(|fd| {
                self.last.store(fd, Ordering::Relaxed);
                let (token, events) = tokens.get_mut(&fd).expect("found above");
                let ready = *events & (EV_IN | EV_OUT);
                if *events & EV_ONESHOT != 0 {
                    *events &= !(EV_IN | EV_OUT);
                }
                (*token, ready)
            }))
        }
    }
}

pub use sys::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn poller_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty() || cfg!(not(all(target_os = "linux", target_arch = "x86_64"))));

        client.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            events.clear();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|(t, ev)| *t == 7 && ev & EV_IN != 0) {
                break;
            }
            assert!(Instant::now() < deadline, "no readable event within 2s");
        }
        poller.del(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn pause_suppresses_readable() {
        if cfg!(not(all(target_os = "linux", target_arch = "x86_64"))) {
            return; // the fallback poller is advisory-only
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add_oneshot(server.as_raw_fd(), 9).unwrap();
        client.write_all(b"pending").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        poller.rearm(server.as_raw_fd(), 9, false, false).unwrap();
        let event = poller.wait_one(Duration::from_millis(30)).unwrap();
        assert!(
            !event.is_some_and(|(_, ev)| ev & EV_IN != 0),
            "disarmed fd must not report readable"
        );
        poller.rearm(server.as_raw_fd(), 9, true, false).unwrap();
        let event = poller.wait_one(Duration::from_millis(100)).unwrap();
        assert!(event.is_some_and(|(t, ev)| t == 9 && ev & EV_IN != 0));
    }
}
