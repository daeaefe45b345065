//! Raw readiness syscalls, declared against the C library `std` already
//! links — no `libc` crate, keeping the workspace's zero-registry-deps
//! invariant. This is the **only** module in the crate allowed to use
//! `unsafe`; everything above it ([`super::poller`]) exposes a safe API.
//!
//! Two backends are declared:
//!
//! * `epoll(7)` on Linux — O(ready) readiness for tens of thousands of
//!   file descriptors;
//! * `poll(2)` everywhere else on Unix — O(registered) per wait, fine for
//!   the fallback tier and for the small pollsets (probes, hedge races)
//!   the gateway uses.
//!
//! [`raise_nofile_limit`] bumps `RLIMIT_NOFILE`'s soft limit to the hard
//! limit (best-effort), because holding 10k keep-alive connections needs
//! more descriptors than the conservative default soft limit on most
//! distributions and CI runners. [`nice_this_thread`] lets worker threads
//! yield the CPU to the event loop. [`clock_ticks_per_second`] is the unit
//! of the per-thread CPU times `/metrics` reads from `/proc`.

#![allow(unsafe_code)]
// Kernel ABI constants and structs mirror their C names; the man pages
// are their documentation.
#![allow(missing_docs)]

use std::io;
use std::os::fd::RawFd;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event`. x86-64 Linux packs it; other ABIs do not.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd`, identical on every Unix this workspace targets.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

/// `EINPROGRESS`: the nonblocking connect is underway.
#[cfg(target_os = "linux")]
const EINPROGRESS: i32 = 115;
#[cfg(not(target_os = "linux"))]
const EINPROGRESS: i32 = 36;

/// `struct sockaddr_in`. Linux leads with a 16-bit family; the BSDs split
/// it into a length byte and an 8-bit family.
#[cfg(target_os = "linux")]
#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Network byte order.
    port: u16,
    /// Network byte order.
    addr: u32,
    zero: [u8; 8],
}

#[cfg(not(target_os = "linux"))]
#[repr(C)]
struct SockAddrIn {
    len: u8,
    family: u8,
    /// Network byte order.
    port: u16,
    /// Network byte order.
    addr: u32,
    zero: [u8; 8],
}

#[cfg(target_os = "linux")]
fn sockaddr_v4(addr: &std::net::SocketAddrV4) -> SockAddrIn {
    SockAddrIn {
        family: AF_INET as u16,
        port: addr.port().to_be(),
        // The octets already are the network-order byte sequence.
        addr: u32::from_ne_bytes(addr.ip().octets()),
        zero: [0; 8],
    }
}

#[cfg(not(target_os = "linux"))]
fn sockaddr_v4(addr: &std::net::SocketAddrV4) -> SockAddrIn {
    SockAddrIn {
        len: std::mem::size_of::<SockAddrIn>() as u8,
        family: AF_INET as u8,
        port: addr.port().to_be(),
        addr: u32::from_ne_bytes(addr.ip().octets()),
        zero: [0; 8],
    }
}

/// `RLIMIT_NOFILE` on Linux.
#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
/// `_SC_CLK_TCK` on Linux.
#[cfg(target_os = "linux")]
const SC_CLK_TCK: i32 = 2;

extern "C" {
    #[cfg(target_os = "linux")]
    fn epoll_create1(flags: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    #[cfg(target_os = "linux")]
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    #[cfg(target_os = "linux")]
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    #[cfg(target_os = "linux")]
    fn nice(inc: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn sysconf(name: i32) -> i64;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (close-on-exec). Linux only.
#[cfg(target_os = "linux")]
pub fn sys_epoll_create() -> io::Result<RawFd> {
    // SAFETY: epoll_create1 takes a flags word and returns a descriptor or
    // -1; no pointers are involved.
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds/modifies/removes `fd` on an epoll instance. Linux only.
#[cfg(target_os = "linux")]
pub fn sys_epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` outlives the call; the kernel copies it and for
    // EPOLL_CTL_DEL ignores it entirely.
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
    Ok(())
}

/// Waits for readiness on an epoll instance. `timeout_ms < 0` blocks.
/// Returns the number of events written to the front of `events`.
#[cfg(target_os = "linux")]
pub fn sys_epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        // SAFETY: the out-pointer and capacity come from one live slice.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// `poll(2)` over a mutable pollfd slice. Retries `EINTR`.
pub fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: the pointer and length come from one live slice.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Closes a raw descriptor the poller owns (the epoll instance itself).
pub fn sys_close(fd: RawFd) {
    // SAFETY: called exactly once per descriptor, from Drop.
    let _ = unsafe { close(fd) };
}

/// Starts a nonblocking IPv4 TCP connect and returns the stream at once.
/// Completion is signalled by writability; a connect that ultimately
/// failed surfaces as an error (or hangup) on the first write.
///
/// # Errors
///
/// Socket-creation failures, or an immediate connect error other than
/// "in progress".
pub fn sys_connect_nonblocking_v4(
    addr: &std::net::SocketAddrV4,
) -> io::Result<std::net::TcpStream> {
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM, 0) })?;
    // SAFETY: `fd` is a fresh descriptor this call alone owns; wrapping it
    // immediately makes the stream responsible for closing it.
    let stream = unsafe { <std::net::TcpStream as std::os::fd::FromRawFd>::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    let sa = sockaddr_v4(addr);
    // SAFETY: `sa` is a correctly sized, initialized sockaddr_in that
    // outlives the call.
    let r = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    if r < 0 {
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINPROGRESS) && e.kind() != io::ErrorKind::WouldBlock {
            return Err(e);
        }
    }
    Ok(stream)
}

/// Raises the soft `RLIMIT_NOFILE` to the hard limit. Best-effort: any
/// failure leaves the limit unchanged and is reported as `None`; success
/// returns the new soft limit.
pub fn raise_nofile_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a valid out-pointer for the duration of the call.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return None;
        }
        if lim.cur >= lim.max {
            return Some(lim.cur);
        }
        let want = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is a valid in-pointer for the duration of the call.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } != 0 {
            return None;
        }
        Some(want.cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Raises the calling thread's nice value by `increment` (the kernel caps
/// it at 19), best-effort. On Linux niceness is per thread, and threads
/// this one spawns inherit it; elsewhere `nice(3)` would renice the whole
/// process, so this is a no-op there.
pub fn nice_this_thread(increment: i32) {
    #[cfg(target_os = "linux")]
    // SAFETY: nice takes an integer and returns one; no pointers are
    // involved. A -1 result is either a new nice value or an error, and
    // both are acceptable outcomes of a best-effort call.
    unsafe {
        nice(increment);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = increment;
}

/// Clock ticks per second, the unit of the CPU times in `/proc/*/stat`
/// (`sysconf(_SC_CLK_TCK)`; 100 where it cannot be asked).
pub fn clock_ticks_per_second() -> u64 {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: sysconf takes an integer and returns one; no pointers
        // are involved.
        let ticks = unsafe { sysconf(SC_CLK_TCK) };
        if ticks > 0 {
            return ticks as u64;
        }
    }
    100
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nofile_limit_raise_is_best_effort() {
        // Must never error out; on Linux it reports the (possibly already
        // maxed) soft limit.
        let _ = raise_nofile_limit();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_round_trip_on_a_socketpair() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let (mut a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        let ep = sys_epoll_create().expect("epoll_create1");
        sys_epoll_ctl(ep, EPOLL_CTL_ADD, b.as_raw_fd(), EPOLLIN, 7).expect("ctl add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing readable yet: a zero-timeout wait returns no events.
        assert_eq!(sys_epoll_wait(ep, &mut events, 0).expect("wait"), 0);
        a.write_all(b"x").expect("write");
        let n = sys_epoll_wait(ep, &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);
        sys_epoll_ctl(ep, EPOLL_CTL_DEL, b.as_raw_fd(), 0, 0).expect("ctl del");
        sys_close(ep);
    }

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = match listener.local_addr().expect("addr") {
            std::net::SocketAddr::V4(v4) => v4,
            other => panic!("loopback bind produced {other}"),
        };
        let mut stream = sys_connect_nonblocking_v4(&addr).expect("connect starts");
        let (mut peer, _) = listener.accept().expect("accept");
        // Writability completes the handshake; loopback settles within a poll.
        let mut fds = [PollFd {
            fd: std::os::fd::AsRawFd::as_raw_fd(&stream),
            events: POLLOUT,
            revents: 0,
        }];
        assert_eq!(sys_poll(&mut fds, 1000).expect("poll"), 1);
        stream.write_all(b"hi").expect("write after connect");
        let mut buf = [0u8; 2];
        peer.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn poll_round_trip_on_a_socketpair() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let (mut a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        let mut fds = [PollFd {
            fd: b.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        assert_eq!(sys_poll(&mut fds, 0).expect("poll"), 0);
        a.write_all(b"x").expect("write");
        assert_eq!(sys_poll(&mut fds, 1000).expect("poll"), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }
}
