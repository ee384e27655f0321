//! Readiness polling for the event-driven server: epoll.
//!
//! Level-triggered — a socket with unread bytes keeps signalling until
//! drained, which lets the event loop stop reading mid-stream
//! (backpressure parks) without losing the wakeup. Each event worker owns
//! one `Poller`; cross-thread wakeups (a finished execution, shutdown) go
//! through [`Waker`], a nonblocking socketpair whose read end is
//! registered like any other source.
//!
//! Linux only, like the rest of the workspace (`dali-mem` needs
//! `mmap`/`mprotect` from the same vendored `libc`).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Registered but parked: stays in the fd set, wakes only on hangup.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event, translated out of epoll's encoding.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or error — the session should be torn down after a
    /// final drain attempt.
    pub hangup: bool,
}

/// A readiness poller owning a set of `(fd, token, interest)`
/// registrations: one epoll instance.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Open an epoll instance. A failure (`EMFILE`, `ENFILE`, `ENOMEM`)
    /// is returned as the OS error it is.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // checked before the fd is used.
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn epoll_events(interest: Interest) -> u32 {
        let mut ev = libc::EPOLLRDHUP;
        if interest.read {
            ev |= libc::EPOLLIN;
        }
        if interest.write {
            ev |= libc::EPOLLOUT;
        }
        ev
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: Self::epoll_events(interest),
            u64: token,
        };
        // SAFETY: `ev` is a live, properly laid-out epoll_event for the
        // duration of the call; the kernel copies it.
        let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of a watched `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Safe to call for an fd that is about to close.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        // SAFETY: EPOLL_CTL_DEL ignores the event pointer (null is
        // allowed since Linux 2.6.9).
        let rc =
            unsafe { libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until at least one registered fd is ready (or `timeout`
    /// expires), appending events to `out`. Returns the number appended.
    /// `None` blocks indefinitely.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let mut buf = [libc::epoll_event { events: 0, u64: 0 }; 256];
        let n = loop {
            // SAFETY: `buf` is a live array of `buf.len()` epoll_events
            // the kernel may write into.
            let rc = unsafe {
                libc::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            let events = { ev.events };
            out.push(Event {
                token: { ev.u64 },
                readable: events & libc::EPOLLIN != 0,
                writable: events & libc::EPOLLOUT != 0,
                hangup: events & (libc::EPOLLERR | libc::EPOLLHUP | libc::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from epoll_create1 and is closed only here.
        unsafe { libc::close(self.epfd) };
    }
}

/// Cross-thread wakeup for an event loop: a nonblocking socketpair whose
/// read end the loop registers like any socket. `wake()` writes one byte
/// (a full pipe means a wakeup is already pending — success either way);
/// the loop calls `drain()` when its waker token fires.
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd the owning loop registers for read interest.
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Wake the owning loop. Callable from any thread.
    pub fn wake(&self) {
        use std::io::Write;
        // WouldBlock means the buffer already holds an undrained wakeup;
        // any other error means the loop is gone — both are fine.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume all pending wakeups (called by the owning loop).
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_round_trip() {
        let mut poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing ready yet.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap(),
            0
        );

        tx.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Parking to NONE stops read wakeups even with unread data.
        events.clear();
        poller
            .reregister(rx.as_raw_fd(), 7, Interest::NONE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 7 && e.readable),
            "parked fd still signalled readable: {events:?}"
        );

        // Unparking re-signals the still-unread data (level-triggered).
        events.clear();
        poller
            .reregister(rx.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(rx.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_is_reported() {
        let mut poller = Poller::new().unwrap();
        let (tx, rx) = UnixStream::pair().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(tx);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 1)
            .expect("no event for dropped peer");
        // Level-triggered close may surface as hangup and/or a final
        // zero-length readable; either lets the loop tear down.
        assert!(ev.hangup || ev.readable, "{ev:?}");
    }

    /// `RLIMIT_NOFILE` is process-wide, so the limit is lowered in a
    /// child: this test binary re-run on the one ignored test below.
    #[test]
    fn epoll_create_failure_is_returned_not_swallowed() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "--ignored",
                "poller::tests::child_with_no_fd_left",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success() && String::from_utf8_lossy(&out.stdout).contains("1 passed"),
            "child failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    #[ignore = "lowers RLIMIT_NOFILE; run in a child by epoll_create_failure_is_returned_not_swallowed"]
    fn child_with_no_fd_left() {
        let mut lim = libc::rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: valid resource id and in/out pointers to a live rlimit.
        unsafe {
            assert_eq!(libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim), 0);
            lim.rlim_cur = 0;
            assert_eq!(libc::setrlimit(libc::RLIMIT_NOFILE, &lim), 0);
        }
        let err = Poller::new().err().expect("epoll_create1 got an fd");
        assert_eq!(err.raw_os_error(), Some(libc::EMFILE));
    }

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 99, Interest::READ).unwrap();

        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
            w2.wake(); // coalesces
        });

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        waker.drain();
        events.clear();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap(),
            0,
            "drained waker still readable"
        );
        t.join().unwrap();
    }
}
