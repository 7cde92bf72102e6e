//! Reactor plumbing for the sharded server: a minimal epoll facade and
//! the wake pipe.
//!
//! The offline toolchain has no `mio`/`libc`, so on Linux/x86_64 the
//! [`Poller`] drives `epoll` through raw syscalls (the same shim
//! approach the workspace uses for third-party crates). Elsewhere it
//! degrades to a level-triggered scan: `wait` sleeps one tick and
//! reports every registered token as ready for whatever it is armed
//! for, and the shard's non-blocking reads and writes turn the
//! over-approximation into correctness (they simply observe
//! `WouldBlock`). The facade is deliberately tiny — one `u64` token per
//! fd and one interest setter, [`Poller::set_interest`] — because that
//! is all the shard loop needs.

use std::io::{self, Read, Write};
use std::net::TcpStream;
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

        /// Set what `fd` is watched for: readable (disarmed to pause a
        /// connection) and writable (armed while its outbound queue waits).
        pub fn set_interest(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, mask(read, write))
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait up to `timeout` for events, appending `(token, events)`
        /// pairs to `out`. Returns the number of events delivered.
        pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Duration) -> io::Result<usize> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let n = check(unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    buf.len(),
                    timeout.as_millis().min(i32::MAX as u128) as usize,
                )
            })?;
            for ev in buf.iter().take(n) {
                let events = ev.events;
                let data = ev.data;
                out.push((data, events));
            }
            Ok(n)
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
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Portable fallback: no kernel poller, so `wait` sleeps one short
    /// tick and reports every registered token as ready for what it is
    /// armed for. The shard's non-blocking reads and writes absorb the
    /// over-approximation.
    pub struct Poller {
        tokens: Mutex<HashMap<RawFd, (u64, u32)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                tokens: Mutex::new(HashMap::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.tokens.lock().unwrap().insert(fd, (token, mask(true, false)));
            Ok(())
        }

        pub fn set_interest(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.tokens.lock().unwrap().insert(fd, (token, mask(read, write)));
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
    }
}

pub use sys::Poller;

/// A loopback socket pair for waking a shard out of `Poller::wait`
/// (the self-pipe pattern, built on TCP so it needs no platform
/// surface beyond what the server already uses). Returns
/// `(read_end, write_end)`: register the read end with the poller,
/// hand the write end to whoever needs to wake the shard. Both ends
/// are non-blocking.
pub fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let write_end = TcpStream::connect(listener.local_addr()?)?;
    let (read_end, _) = listener.accept()?;
    read_end.set_nonblocking(true)?;
    write_end.set_nonblocking(true)?;
    write_end.set_nodelay(true)?;
    Ok((read_end, write_end))
}

/// Drain every readable byte from a wake socket (self-pipe pattern).
pub fn drain_wake(stream: &mut impl Read) {
    let mut buf = [0u8; 64];
    while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
}

/// Signal a wake socket; failures are ignored (a full pipe already
/// guarantees a pending wakeup).
pub fn signal_wake(stream: &mut impl Write) {
    let _ = stream.write(&[1]);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        poller.add(server.as_raw_fd(), 9).unwrap();
        client.write_all(b"pending").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        poller.set_interest(server.as_raw_fd(), 9, false, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(30)).unwrap();
        assert!(
            !events.iter().any(|(_, ev)| ev & EV_IN != 0),
            "disarmed fd must not report readable"
        );
        poller.set_interest(server.as_raw_fd(), 9, true, false).unwrap();
        events.clear();
        poller.wait(&mut events, Duration::from_millis(100)).unwrap();
        assert!(events.iter().any(|(t, ev)| *t == 9 && ev & EV_IN != 0));
    }
}
