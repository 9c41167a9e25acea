//! # tc-net — the cross-process socket plane
//!
//! Everything the socket transport backend needs below the cluster layer:
//!
//! * [`SocketSpec`] — TCP / Unix-domain endpoint addresses with a stable
//!   textual form (`tcp:host:port`, `unix:/path`);
//! * [`Frame`] / [`FrameDecoder`] — length-prefixed stream framing for the
//!   cluster wire protocol, with hard bounds so a corrupted length header
//!   can never OOM the receiver;
//! * [`Connection`] — one non-blocking stream with per-connection read and
//!   write buffers; sends use vectored I/O over refcounted [`Bytes`]
//!   segments, so a large payload crosses the socket without an extra copy
//!   on the send side;
//! * [`Listener`] — non-blocking accept over either address family;
//! * [`ChildGuard`] / [`spawn_server`] — server-process lifecycle with
//!   kill-on-drop, so a panicking driver never leaks children.
//!
//! The crate is deliberately policy-free: it knows nothing about ranks,
//! reliability or chaos.  `tc-core`'s `SocketTransport` supplies all of
//! that on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod conn;
mod frame;
mod spawn;

pub use conn::{Connection, IoCalls, Listener};
pub use frame::{Frame, FrameDecoder, FRAME_OVERHEAD, MAX_FRAME_BYTES};
pub use spawn::{spawn_server, ChildGuard};

use std::fmt;
use std::path::PathBuf;

/// Errors of the socket plane.  The cluster layer maps these onto its own
/// typed error space (`PeerDisconnected`, `ShortRead`, `Transport`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An OS-level I/O failure (refused connection, reset, …).
    Io(String),
    /// The peer closed the stream.  `mid_frame` distinguishes a clean
    /// close on a frame boundary from a truncated frame: `wanted` is how
    /// many bytes the current frame still needed, `got` how many of it had
    /// arrived.
    PeerClosed {
        /// True when the stream ended inside a frame.
        mid_frame: bool,
        /// Bytes the in-progress frame still needed (0 on a clean close).
        wanted: usize,
        /// Bytes of the in-progress frame that had arrived.
        got: usize,
    },
    /// A length prefix announced a frame larger than [`MAX_FRAME_BYTES`].
    /// Raised *before* any buffer of that size is allocated.
    FrameTooLarge {
        /// The announced frame length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The frame violated its own framing invariants (inner lengths
    /// inconsistent with the prefix).
    Malformed(String),
    /// An endpoint address string could not be parsed.
    Addr(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(msg) => write!(f, "socket I/O error: {msg}"),
            NetError::PeerClosed {
                mid_frame: false, ..
            } => {
                write!(f, "peer closed the connection")
            }
            NetError::PeerClosed {
                mid_frame: true,
                wanted,
                got,
            } => write!(
                f,
                "peer closed mid-frame: frame needed {wanted} more bytes after {got}"
            ),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte bound")
            }
            NetError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            NetError::Addr(msg) => write!(f, "bad socket address: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// A transport endpoint address: Unix-domain path or TCP host:port, parsed
/// from / rendered to the `unix:<path>` / `tcp:<host>:<port>` textual form
/// used on server-process command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketSpec {
    /// A Unix-domain socket at the given filesystem path.
    Unix(PathBuf),
    /// A TCP endpoint (`host:port`, resolvable by `std::net`).
    Tcp(String),
}

impl SocketSpec {
    /// Parse `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(s: &str) -> Result<SocketSpec> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(NetError::Addr("empty unix socket path".into()));
            }
            return Ok(SocketSpec::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(NetError::Addr(format!("tcp address `{addr}` needs a port")));
            }
            return Ok(SocketSpec::Tcp(addr.to_string()));
        }
        Err(NetError::Addr(format!(
            "address `{s}` must start with `unix:` or `tcp:`"
        )))
    }
}

impl fmt::Display for SocketSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketSpec::Unix(p) => write!(f, "unix:{}", p.display()),
            SocketSpec::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let u = SocketSpec::parse("unix:/tmp/x.sock").unwrap();
        assert_eq!(u, SocketSpec::Unix(PathBuf::from("/tmp/x.sock")));
        assert_eq!(u.to_string(), "unix:/tmp/x.sock");
        let t = SocketSpec::parse("tcp:127.0.0.1:4000").unwrap();
        assert_eq!(t.to_string(), "tcp:127.0.0.1:4000");
        assert!(SocketSpec::parse("udp:1.2.3.4:1").is_err());
        assert!(SocketSpec::parse("unix:").is_err());
        assert!(SocketSpec::parse("tcp:noport").is_err());
    }
}
