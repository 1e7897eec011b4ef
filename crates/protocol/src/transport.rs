//! The byte transports the protocol runs over: unix-domain and TCP stream
//! sockets, unified behind one enum so the server's connection loop and the
//! client library are transport-agnostic.
//!
//! Cloning ([`Transport::try_clone`]) duplicates the socket handle, so one
//! half can sit inside a [`crate::FrameReader`] while the other writes
//! frames; timeouts and blocking mode apply to the shared underlying socket
//! either way.

use std::io::{Read, Result as IoResult, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `recv(2)` and its per-call non-blocking flag; `std` offers non-blocking
/// reads only through the socket-wide mode.
mod sys {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const MSG_DONTWAIT: i32 = 0x40;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const MSG_DONTWAIT: i32 = 0x80;

    extern "C" {
        pub fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
}

/// A connected stream socket.
#[derive(Debug)]
pub enum Transport {
    /// A unix-domain stream socket.
    Unix(UnixStream),
    /// A TCP socket (`TCP_NODELAY` is the creator's responsibility).
    Tcp(TcpStream),
}

impl Transport {
    /// A second handle to the same socket (shared file description: mode
    /// and timeout changes through either handle affect both).
    pub fn try_clone(&self) -> IoResult<Transport> {
        Ok(match self {
            Transport::Unix(s) => Transport::Unix(s.try_clone()?),
            Transport::Tcp(s) => Transport::Tcp(s.try_clone()?),
        })
    }

    /// Read timeout (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> IoResult<()> {
        match self {
            Transport::Unix(s) => s.set_read_timeout(timeout),
            Transport::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Write timeout (`None` blocks forever).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> IoResult<()> {
        match self {
            Transport::Unix(s) => s.set_write_timeout(timeout),
            Transport::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// One non-blocking read, for opportunistic control-frame polls:
    /// `WouldBlock` when nothing has arrived. A single `recv` with
    /// `MSG_DONTWAIT` — the socket's blocking mode is shared with every
    /// clone of the handle, so flipping it around a read would expose the
    /// writing half to spurious `WouldBlock`s should the restore fail.
    pub fn try_read(&self, buf: &mut [u8]) -> IoResult<usize> {
        let fd = match self {
            Transport::Unix(s) => s.as_raw_fd(),
            Transport::Tcp(s) => s.as_raw_fd(),
        };
        // SAFETY: `fd` is the open socket `self` owns for the whole call, and
        // `buf` is a live, exclusively borrowed region of exactly `buf.len()`
        // writable bytes; `recv` writes at most that many and keeps no
        // pointer past its return.
        let n = unsafe { sys::recv(fd, buf.as_mut_ptr(), buf.len(), sys::MSG_DONTWAIT) };
        usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
    }

    /// Shuts down both directions, waking any thread blocked on the socket.
    pub fn shutdown(&self) -> IoResult<()> {
        match self {
            Transport::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Transport::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        match self {
            Transport::Unix(s) => s.read(buf),
            Transport::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        match self {
            Transport::Unix(s) => s.write(buf),
            Transport::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> IoResult<()> {
        match self {
            Transport::Unix(s) => s.flush(),
            Transport::Tcp(s) => s.flush(),
        }
    }
}
