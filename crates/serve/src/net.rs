//! Listener binding with `SO_REUSEADDR`, and a bounded readability wait.
//!
//! `std::net::TcpListener::bind` does not set `SO_REUSEADDR`, so rebinding
//! a port whose previous listener just closed fails with `EADDRINUSE` while
//! accepted connections from the old process linger in `TIME_WAIT`. The
//! gateway's `Supervisor` restarts backends on *pinned* ports (the hash
//! ring addresses them by `host:port`), so it needs the flag. In the same
//! spirit as [`crate::signal`], the Linux path declares the socket calls
//! `extern "C"` against the C library `std` already links instead of
//! pulling in a libc crate; other platforms fall back to the std bind.
//!
//! [`readable_within`] is the gateway's hedge stall timer: one `poll(2)` on
//! Linux, whose timeout is a high-resolution timer, where `SO_RCVTIMEO`
//! counts in jiffies and costs two `setsockopt` calls per wait. Other
//! platforms keep the `SO_RCVTIMEO` wait, through a `peek`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bind a TCP listener on `addr` with `SO_REUSEADDR` set (IPv4 on Linux;
/// falls back to `TcpListener::bind` elsewhere or for IPv6).
///
/// # Errors
///
/// Address resolution and socket/bind/listen failures.
pub fn bind_reusable(addr: &str) -> io::Result<TcpListener> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    match resolved {
        #[cfg(target_os = "linux")]
        SocketAddr::V4(v4) => linux::bind_v4_reusable(v4),
        _ => TcpListener::bind(resolved),
    }
}

/// Wait at most `wait` for `stream` to have something to read: bytes, EOF
/// or a pending error. `Ok(true)` means the next read will not block;
/// `Ok(false)` means the wait ran out. Nothing is consumed either way, so
/// EOF and socket errors surface through the read that follows.
///
/// The wait never ends early: on Linux it is rounded *up* to whole
/// milliseconds, so 2.4 ms waits 3 ms, not 2.
///
/// # Errors
///
/// `poll(2)` failures other than `EINTR` (which resumes the wait), or on
/// other platforms the read-timeout calls around the `peek`.
pub fn readable_within(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    #[cfg(target_os = "linux")]
    {
        linux::poll_readable(stream, wait)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let restore = stream.read_timeout()?;
        stream.set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
        let peeked = loop {
            match stream.peek(&mut [0u8; 1]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other,
            }
        };
        stream.set_read_timeout(restore)?;
        match peeked {
            // SO_RCVTIMEO expiry reads as WouldBlock or TimedOut.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            // Bytes, EOF or an error: the next read returns at once.
            _ => Ok(true),
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener, TcpStream};
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::time::{Duration, Instant};

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    // Close-on-exec at creation, so supervised restarts never leak fds.
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const POLLIN: i16 = 1;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct sockaddr_in` (all fields network byte order where relevant).
    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, addrlen: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }

    pub fn poll_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
        // No deadline past `Instant`'s range: such a wait is unbounded anyway.
        let deadline = Instant::now().checked_add(wait);
        let mut left = wait;
        loop {
            // Round up: a timeout must never fire before `wait`.
            let ms = i32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
            let mut fds = PollFd {
                fd: stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            };
            // SAFETY: one valid `pollfd` on the stack for the duration of
            // the call, naming a fd `stream` keeps open.
            let ready = unsafe { poll(&mut fds, 1, ms) };
            if ready >= 0 {
                // POLLIN, POLLHUP and POLLERR all mean a read returns now.
                return Ok(ready > 0 && fds.revents != 0);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            if let Some(deadline) = deadline {
                left = deadline.saturating_duration_since(Instant::now());
            }
        }
    }

    pub fn bind_v4_reusable(addr: SocketAddrV4) -> io::Result<TcpListener> {
        // SAFETY: plain syscall wrappers over a fd we own exclusively until
        // `from_raw_fd`; on any failure the fd is closed before returning.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let one: i32 = 1;
            let sockaddr = SockAddrIn {
                // lint:allow(no_panic, AF_INET is the constant 2)
                sin_family: u16::try_from(AF_INET).expect("AF_INET fits"),
                sin_port: addr.port().to_be(),
                sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
                sin_zero: [0; 8],
            };
            // lint:allow(no_panic, size_of::<SockAddrIn>() is 16)
            let len = u32::try_from(std::mem::size_of::<SockAddrIn>()).expect("sockaddr size");
            // lint:allow(no_panic, size_of::<i32>() is 4)
            let optlen = u32::try_from(std::mem::size_of::<i32>()).expect("int size");
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, optlen) < 0
                || bind(fd, &sockaddr, len) < 0
                || listen(fd, 128) < 0
            {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_resolves_and_accepts() {
        let listener = bind_reusable("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        assert!(addr.port() != 0);
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (_peer, peer_addr) = listener.accept().expect("accept");
        assert_eq!(peer_addr.ip(), addr.ip());
        drop(client);
    }

    #[test]
    fn rebinds_same_port_immediately() {
        let first = bind_reusable("127.0.0.1:0").expect("bind");
        let addr = first.local_addr().expect("addr");
        // Hold a connection so the port has live state, then drop the
        // listener and rebind the exact port straight away.
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (server_side, _) = first.accept().expect("accept");
        drop(server_side);
        drop(first);
        let again = bind_reusable(&addr.to_string()).expect("rebind same port");
        assert_eq!(again.local_addr().expect("addr").port(), addr.port());
        drop(client);
    }

    #[test]
    fn rejects_unresolvable_address() {
        assert!(bind_reusable("not an address").is_err());
    }

    /// A connected pair: the client end and the accepted server end.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn readable_within_waits_out_an_idle_socket_in_full() {
        let (client, _server) = pair();
        let wait = Duration::from_micros(2400);
        let started = std::time::Instant::now();
        assert!(!readable_within(&client, wait).expect("poll"));
        let waited = started.elapsed();
        assert!(waited >= wait, "a 2.4 ms wait ended after {waited:?}");
    }

    #[test]
    fn readable_within_sees_pending_bytes_without_consuming_them() {
        use std::io::{Read, Write};
        let (mut client, mut server) = pair();
        server.write_all(b"x").expect("write");
        assert!(readable_within(&client, Duration::from_secs(5)).expect("poll"));
        let mut byte = [0u8; 1];
        client
            .read_exact(&mut byte)
            .expect("the byte is still there");
        assert_eq!(&byte, b"x");
    }

    #[test]
    fn readable_within_reports_eof_as_readable() {
        use std::io::Read;
        let (mut client, server) = pair();
        drop(server);
        assert!(readable_within(&client, Duration::from_secs(5)).expect("poll"));
        assert_eq!(client.read(&mut [0u8; 1]).expect("read"), 0, "EOF");
    }
}
