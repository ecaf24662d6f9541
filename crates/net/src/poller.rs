//! Readiness polling for the event loop: one crate-private [`Poller`] whose
//! backend the build target picks — `epoll(7)` on Linux, `poll(2)` on every
//! other Unix host.  Both are declared directly against the C ABI (the
//! workspace has no crates.io access), and both are level-triggered.
//!
//! The vocabulary is the same on both: a registration is a descriptor, a
//! caller-chosen `u64` token and an interest set of [`READABLE`] and
//! [`WRITABLE`]; a wait yields [`Event`]s carrying the token and the ready
//! bits, with [`HANGUP`] for error and hang-up conditions (reported whether
//! or not they were asked for).
//!
//! A caller must delete a descriptor's registration before closing it.
//! epoll forgets a closed descriptor by itself, but `poll(2)` keeps no
//! kernel-side interest set: a closed descriptor left registered would
//! report `POLLNVAL` on every wait, and a reused descriptor number would
//! inherit the stale token.

#![allow(unsafe_code)]

/// Interest in, or readiness for, reading (a peer on the accept queue
/// counts).
pub(crate) const READABLE: u8 = 0b001;
/// Interest in, or readiness for, writing without blocking.
pub(crate) const WRITABLE: u8 = 0b010;
/// Readiness only: an error or a hang-up on the descriptor.
pub(crate) const HANGUP: u8 = 0b100;

/// One readiness report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// The token the descriptor was registered (or last modified) with.
    pub(crate) token: u64,
    /// [`READABLE`], [`WRITABLE`] and [`HANGUP`] bits.
    pub(crate) ready: u8,
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub(crate) use poll::Poller;

#[cfg(target_os = "linux")]
mod epoll {
    //! Three syscalls and one `#[repr(C)]` struct; the epoll descriptor is
    //! an [`OwnedFd`] so it closes on drop.

    use super::{Event, HANGUP, READABLE, WRITABLE};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its write half (half-close detection).
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o200_0000;

    /// Most events one wait reports.
    const MAX_EVENTS: usize = 1024;

    /// One readiness event.  x86 keeps the kernel's 12-byte packed layout.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    fn interest_bits(interest: u8) -> u32 {
        let mut bits = 0;
        if interest & READABLE != 0 {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if interest & WRITABLE != 0 {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn ready_bits(events: u32) -> u8 {
        let mut ready = 0;
        if events & EPOLLIN != 0 {
            ready |= READABLE;
        }
        if events & EPOLLOUT != 0 {
            ready |= WRITABLE;
        }
        if events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
            ready |= HANGUP;
        }
        ready
    }

    /// An owned epoll instance.
    pub(crate) struct Poller {
        fd: OwnedFd,
        /// The kernel's event buffer, sized on the first wait (on the loop
        /// thread, so binding a server allocates nothing for it).
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 has no memory preconditions; the returned
            // descriptor (checked valid) is owned exactly once.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created, valid descriptor we own.
            Ok(Self { fd: unsafe { OwnedFd::from_raw_fd(fd) }, buf: Vec::new() })
        }

        fn ctl(&self, op: i32, fd: RawFd, event: *mut EpollEvent) -> io::Result<()> {
            // SAFETY: `event` is either null (DEL) or points to a live
            // EpollEvent on the caller's stack for the duration of the call.
            if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
            let mut event = EpollEvent { events: interest_bits(interest), data: token };
            self.ctl(EPOLL_CTL_ADD, fd, &mut event)
        }

        pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
            let mut event = EpollEvent { events: interest_bits(interest), data: token };
            self.ctl(EPOLL_CTL_MOD, fd, &mut event)
        }

        pub(crate) fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, std::ptr::null_mut())
        }

        /// Waits up to `timeout_ms` (`-1`: forever) for readiness, retrying
        /// on `EINTR`, and replaces `events` with what became ready.
        pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            if self.buf.is_empty() {
                self.buf = vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            }
            events.clear();
            let filled = loop {
                // SAFETY: `buf` is a live, writable buffer; maxevents is its
                // exact length.
                let rc = unsafe {
                    epoll_wait(
                        self.fd.as_raw_fd(),
                        self.buf.as_mut_ptr(),
                        i32::try_from(self.buf.len()).unwrap_or(i32::MAX),
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let error = io::Error::last_os_error();
                if error.kind() != io::ErrorKind::Interrupted {
                    return Err(error);
                }
            };
            events.extend(self.buf[..filled].iter().map(|event| {
                // Copy out of the packed struct before use.
                let (bits, token) = (event.events, event.data);
                Event { token, ready: ready_bits(bits) }
            }));
            Ok(())
        }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    //! One syscall and one `#[repr(C)]` struct.  The interest set lives here,
    //! as the `pollfd` array handed to every wait; a delete swaps the last
    //! registration into the freed slot, so the index map follows it.

    use super::{Event, HANGUP, READABLE, WRITABLE};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the
    /// BSDs.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    fn interest_bits(interest: u8) -> i16 {
        let mut bits = 0;
        if interest & READABLE != 0 {
            bits |= POLLIN;
        }
        if interest & WRITABLE != 0 {
            bits |= POLLOUT;
        }
        bits
    }

    fn ready_bits(revents: i16) -> u8 {
        let mut ready = 0;
        if revents & POLLIN != 0 {
            ready |= READABLE;
        }
        if revents & POLLOUT != 0 {
            ready |= WRITABLE;
        }
        if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
            ready |= HANGUP;
        }
        ready
    }

    fn not_registered() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "descriptor is not registered")
    }

    /// A user-space interest set over `poll(2)`.
    pub(crate) struct Poller {
        fds: Vec<PollFd>,
        /// `tokens[i]` belongs to `fds[i]`.
        tokens: Vec<u64>,
        /// Descriptor → its slot in `fds`.
        slots: HashMap<RawFd, usize>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self { fds: Vec::new(), tokens: Vec::new(), slots: HashMap::new() })
        }

        pub(crate) fn add(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
            if self.slots.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "descriptor is already registered",
                ));
            }
            self.slots.insert(fd, self.fds.len());
            self.fds.push(PollFd { fd, events: interest_bits(interest), revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
            let slot = *self.slots.get(&fd).ok_or_else(not_registered)?;
            self.fds[slot].events = interest_bits(interest);
            self.tokens[slot] = token;
            Ok(())
        }

        pub(crate) fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let slot = self.slots.remove(&fd).ok_or_else(not_registered)?;
            self.fds.swap_remove(slot);
            self.tokens.swap_remove(slot);
            if let Some(moved) = self.fds.get(slot) {
                self.slots.insert(moved.fd, slot);
            }
            Ok(())
        }

        /// Waits up to `timeout_ms` (`-1`: forever) for readiness, retrying
        /// on `EINTR`, and replaces `events` with what became ready.
        pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            loop {
                // SAFETY: `fds` is a live, writable array of `pollfd`s and
                // nfds is its exact length.
                let rc = unsafe {
                    poll(
                        self.fds.as_mut_ptr(),
                        Nfds::try_from(self.fds.len()).unwrap_or(Nfds::MAX),
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break;
                }
                let error = io::Error::last_os_error();
                if error.kind() != io::ErrorKind::Interrupted {
                    return Err(error);
                }
            }
            events.extend(
                self.fds
                    .iter()
                    .zip(&self.tokens)
                    .filter(|(fd, _)| fd.revents != 0)
                    .map(|(fd, &token)| Event { token, ready: ready_bits(fd.revents) }),
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Event, HANGUP, READABLE, WRITABLE};
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// The ready bits reported for `token` (0 when it reported nothing).
    fn ready_for(events: &[Event], token: u64) -> u8 {
        events.iter().filter(|event| event.token == token).fold(0, |bits, event| bits | event.ready)
    }

    /// Drives one backend through every call the loop makes: add, modify,
    /// delete and wait; the readable, writable and hang-up bits; and a token
    /// that survives when a delete moves another registration.
    macro_rules! backend_contract {
        ($test:ident, $poller:ty) => {
            #[test]
            fn $test() {
                let mut poller = <$poller>::new().expect("poller");
                let mut events = Vec::new();
                let (a, a_peer) = UnixStream::pair().expect("pair");
                let (b, b_peer) = UnixStream::pair().expect("pair");
                let (c, mut c_peer) = UnixStream::pair().expect("pair");
                poller.add(a.as_raw_fd(), 1, READABLE).expect("add a");
                poller.add(b.as_raw_fd(), 2, READABLE).expect("add b");
                poller.add(c.as_raw_fd(), 3, READABLE).expect("add c");
                assert!(poller.add(a.as_raw_fd(), 9, READABLE).is_err(), "double add");

                // Nothing to read: the wait times out empty.
                poller.wait(&mut events, 0).expect("wait");
                assert!(events.is_empty(), "{events:?}");

                // Write interest: an idle socket is writable at once.
                poller.modify(b.as_raw_fd(), 2, WRITABLE).expect("modify b");
                poller.wait(&mut events, 0).expect("wait");
                assert_eq!(events, vec![Event { token: 2, ready: WRITABLE }]);
                poller.modify(b.as_raw_fd(), 2, READABLE).expect("modify b back");

                // Deleting the first registration moves another into its
                // slot; the moved registration keeps its token, and a
                // modify finds it.
                poller.delete(a.as_raw_fd()).expect("delete a");
                assert!(poller.delete(a.as_raw_fd()).is_err(), "double delete");
                drop((a, a_peer));
                c_peer.write_all(b"x").expect("write");
                poller.wait(&mut events, 1000).expect("wait");
                assert_eq!(events, vec![Event { token: 3, ready: READABLE }]);
                poller.modify(c.as_raw_fd(), 33, READABLE | WRITABLE).expect("modify c");
                poller.wait(&mut events, 0).expect("wait");
                assert_eq!(events, vec![Event { token: 33, ready: READABLE | WRITABLE }]);
                poller.delete(c.as_raw_fd()).expect("delete c");

                // Hang-up is reported without being asked for; with read
                // interest it comes with readability (the read sees EOF).
                poller.modify(b.as_raw_fd(), 2, 0).expect("modify b");
                drop(b_peer);
                poller.wait(&mut events, 1000).expect("wait");
                assert_eq!(ready_for(&events, 2), HANGUP, "{events:?}");
                poller.modify(b.as_raw_fd(), 2, READABLE).expect("modify b");
                poller.wait(&mut events, 0).expect("wait");
                assert_eq!(ready_for(&events, 2), READABLE | HANGUP, "{events:?}");
                poller.delete(b.as_raw_fd()).expect("delete b");
                poller.wait(&mut events, 0).expect("wait");
                assert!(events.is_empty(), "{events:?}");
            }
        };
    }

    backend_contract!(poll_backend_honours_the_loop_contract, super::poll::Poller);
    #[cfg(target_os = "linux")]
    backend_contract!(epoll_backend_honours_the_loop_contract, super::epoll::Poller);
}
