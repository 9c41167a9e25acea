//! Non-blocking connections and listeners over TCP or Unix-domain streams.
//!
//! A [`Connection`] owns one stream plus its read decoder and write queue.
//! The cluster layer drives it with `pump_read` / `pump_write` from a poll
//! loop; neither ever blocks.  Outgoing frames keep their header, data and
//! payload as separate segments so `pump_write` can hand them to
//! `write_vectored` without flattening — the payload of a scatter-gather op
//! crosses the socket straight from the refcounted buffer.

use crate::frame::{Frame, FrameDecoder, FRAME_OVERHEAD};
use crate::{NetError, Result, SocketSpec};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Read chunk size for one `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// How many queued frames one `write_vectored` call may cover.
const WRITE_BATCH_FRAMES: usize = 16;

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

struct QueuedFrame {
    header: [u8; FRAME_OVERHEAD],
    frame: Frame,
}

impl QueuedFrame {
    fn len(&self) -> usize {
        FRAME_OVERHEAD + self.frame.data.len() + self.frame.payload.len()
    }

    /// The frame's byte at stream offset `off`, as (segment, offset) pairs
    /// for vectored writes.
    fn slices<'a>(&'a self, skip: usize, out: &mut Vec<IoSlice<'a>>) {
        let mut off = skip;
        for seg in [
            &self.header[..],
            self.frame.data.as_slice(),
            self.frame.payload.as_slice(),
        ] {
            if off >= seg.len() {
                off -= seg.len();
                continue;
            }
            out.push(IoSlice::new(&seg[off..]));
            off = 0;
        }
    }
}

/// The system calls a [`Connection`] has made on its stream, counted
/// whatever they returned (the `read` that finds the stream empty too).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCalls {
    /// `read` calls.
    pub reads: u64,
    /// `write_vectored` (`writev`) calls.
    pub writevs: u64,
}

impl std::iter::Sum for IoCalls {
    fn sum<I: Iterator<Item = IoCalls>>(calls: I) -> IoCalls {
        calls.fold(IoCalls::default(), |sum, c| IoCalls {
            reads: sum.reads + c.reads,
            writevs: sum.writevs + c.writevs,
        })
    }
}

/// One non-blocking stream with framing on both directions.
pub struct Connection {
    stream: Stream,
    decoder: FrameDecoder,
    outq: std::collections::VecDeque<QueuedFrame>,
    /// Bytes of the queue head already written.
    out_offset: usize,
    scratch: Vec<u8>,
    calls: IoCalls,
}

impl Connection {
    fn from_stream(stream: Stream) -> Result<Connection> {
        stream.set_nonblocking(true)?;
        Ok(Connection {
            stream,
            decoder: FrameDecoder::new(),
            outq: std::collections::VecDeque::new(),
            out_offset: 0,
            scratch: vec![0u8; READ_CHUNK],
            calls: IoCalls::default(),
        })
    }

    /// Connect (blocking) to `spec`, then switch the stream non-blocking.
    pub fn connect(spec: &SocketSpec) -> Result<Connection> {
        let stream = match spec {
            SocketSpec::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            SocketSpec::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        Connection::from_stream(stream)
    }

    /// Like [`connect`](Connection::connect) but retrying refused/absent
    /// endpoints until `deadline` — for server processes racing the
    /// driver's listener.
    pub fn connect_with_retry(spec: &SocketSpec, timeout: Duration) -> Result<Connection> {
        let deadline = Instant::now() + timeout;
        loop {
            match Connection::connect(spec) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Queue a frame for sending.  No I/O happens here.
    pub fn queue(&mut self, frame: Frame) {
        self.outq.push_back(QueuedFrame {
            header: frame.header(),
            frame,
        });
    }

    /// Queued frames not yet fully written.
    pub fn pending_writes(&self) -> usize {
        self.outq.len()
    }

    /// The system calls made so far.
    pub fn io_calls(&self) -> IoCalls {
        self.calls
    }

    /// Push queued frames into the socket until it would block or the queue
    /// drains.  Returns true when any bytes were written.
    pub fn pump_write(&mut self) -> Result<bool> {
        let mut wrote = false;
        while !self.outq.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::new();
            for (i, qf) in self.outq.iter().take(WRITE_BATCH_FRAMES).enumerate() {
                qf.slices(if i == 0 { self.out_offset } else { 0 }, &mut slices);
            }
            self.calls.writevs += 1;
            let n = match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(NetError::PeerClosed {
                        mid_frame: self.out_offset > 0,
                        wanted: 0,
                        got: 0,
                    })
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            wrote = true;
            self.out_offset += n;
            while let Some(front) = self.outq.front() {
                let flen = front.len();
                if self.out_offset >= flen {
                    self.out_offset -= flen;
                    self.outq.pop_front();
                } else {
                    break;
                }
            }
        }
        Ok(wrote)
    }

    /// Read everything available, appending decoded frames to `out`; a read
    /// that fills less than the scratch buffer took it all and ends the pass.
    ///
    /// A clean peer close on a frame boundary returns
    /// `PeerClosed { mid_frame: false, .. }`; a close inside a frame reports
    /// how many bytes the frame still `wanted`.
    pub fn pump_read(&mut self, out: &mut Vec<Frame>) -> Result<()> {
        loop {
            self.calls.reads += 1;
            match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    let wanted = self.decoder.wanted();
                    return Err(NetError::PeerClosed {
                        mid_frame: self.decoder.mid_frame(),
                        wanted,
                        got: self.decoder.pending(),
                    });
                }
                Ok(n) => {
                    let (filled, _) = self.scratch.split_at(n);
                    self.decoder.extend(filled);
                    while let Some(f) = self.decoder.next_frame()? {
                        out.push(f);
                    }
                    if n < self.scratch.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

enum ListenerInner {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A non-blocking accept socket over either address family.
pub struct Listener {
    inner: ListenerInner,
}

impl Listener {
    /// Bind `spec` and start listening.  A TCP port of 0 resolves to an
    /// ephemeral port — read the effective address back with
    /// [`local_spec`](Listener::local_spec).
    pub fn bind(spec: &SocketSpec) -> Result<Listener> {
        let inner = match spec {
            SocketSpec::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                ListenerInner::Tcp(l)
            }
            SocketSpec::Unix(path) => {
                // A stale socket file from a crashed run would make bind fail.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                ListenerInner::Unix(l, path.clone())
            }
        };
        Ok(Listener { inner })
    }

    /// The bound address in `SocketSpec` form (with TCP port resolved).
    pub fn local_spec(&self) -> Result<SocketSpec> {
        match &self.inner {
            ListenerInner::Tcp(l) => {
                let addr = l.local_addr()?;
                Ok(SocketSpec::Tcp(addr.to_string()))
            }
            ListenerInner::Unix(_, path) => Ok(SocketSpec::Unix(path.clone())),
        }
    }

    /// Accept one pending connection, if any.
    pub fn accept(&self) -> Result<Option<Connection>> {
        match &self.inner {
            ListenerInner::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    Ok(Some(Connection::from_stream(Stream::Tcp(s))?))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.into()),
            },
            ListenerInner::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Ok(Some(Connection::from_stream(Stream::Unix(s))?)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.into()),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let ListenerInner::Unix(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pump_until<R>(
        mut f: impl FnMut() -> Result<Option<R>>,
        what: &str,
        timeout: Duration,
    ) -> Result<R> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = f()? {
                return Ok(r);
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn unix_pair(tag: &str) -> (Connection, Connection) {
        let path =
            std::env::temp_dir().join(format!("tc-net-test-{}-{tag}.sock", std::process::id()));
        let listener = Listener::bind(&SocketSpec::Unix(path.clone())).unwrap();
        let client = Connection::connect(&SocketSpec::Unix(path)).unwrap();
        let server = pump_until(|| listener.accept(), "accept", Duration::from_secs(5)).unwrap();
        (client, server)
    }

    #[test]
    fn frames_cross_a_unix_socket_pair() {
        let (mut client, mut server) = unix_pair("pair");
        client.queue(Frame::new(0, 1, 7, vec![1, 2, 3]));
        client.queue(Frame::with_payload(0, 1, 9, vec![5; 25], vec![0xAB; 2048]));
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 2 {
            client.pump_write().unwrap();
            server.pump_read(&mut got).unwrap();
            assert!(Instant::now() < deadline, "frames never arrived");
        }
        assert_eq!(got[0].tag, 7);
        assert_eq!(got[0].data.as_slice(), &[1, 2, 3]);
        assert_eq!(got[1].payload.len(), 2048);
        assert!(got[1].payload.as_slice().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn one_pass_over_a_queue_is_one_writev_and_a_read_pass_ends_on_a_short_read() {
        let (mut client, mut server) = unix_pair("calls");
        client.queue(Frame::new(0, 1, 7, vec![1]));
        client.queue(Frame::new(0, 1, 8, vec![2]));
        assert!(client.pump_write().unwrap());
        assert!(
            !client.pump_write().unwrap(),
            "an empty queue writes nothing"
        );
        assert_eq!(
            client.io_calls(),
            IoCalls {
                reads: 0,
                writevs: 1
            }
        );
        let mut got = Vec::new();
        server.pump_read(&mut got).unwrap();
        assert_eq!(got.len(), 2, "a Unix socket holds the whole write");
        assert_eq!(
            server.io_calls(),
            IoCalls {
                reads: 1,
                writevs: 0
            }
        );
        let total: IoCalls = [client.io_calls(), server.io_calls()].into_iter().sum();
        assert_eq!(
            total,
            IoCalls {
                reads: 1,
                writevs: 1
            }
        );
    }

    #[test]
    fn tcp_ephemeral_port_resolves() {
        let listener = Listener::bind(&SocketSpec::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let spec = listener.local_spec().unwrap();
        match &spec {
            SocketSpec::Tcp(addr) => assert!(!addr.ends_with(":0"), "port must resolve: {addr}"),
            other => panic!("expected tcp spec, got {other:?}"),
        }
        let mut client = Connection::connect(&spec).unwrap();
        let mut server =
            pump_until(|| listener.accept(), "accept", Duration::from_secs(5)).unwrap();
        client.queue(Frame::new(3, 4, 11, vec![9]));
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() {
            client.pump_write().unwrap();
            server.pump_read(&mut got).unwrap();
            assert!(Instant::now() < deadline, "frame never arrived");
        }
        assert_eq!(got[0].from, 3);
        assert_eq!(got[0].data.as_slice(), &[9]);
    }

    #[test]
    fn dropped_peer_surfaces_clean_or_mid_frame_close() {
        let (mut client, mut server) = unix_pair("close");
        // Write a deliberately truncated frame, then hang up.
        let frame = Frame::new(0, 1, 7, vec![1u8; 64]);
        let wire = frame.encode();
        {
            use std::io::Write as _;
            match &mut client.stream {
                Stream::Unix(s) => s.write_all(&wire[..wire.len() - 10]).unwrap(),
                _ => unreachable!(),
            }
        }
        drop(client);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match server.pump_read(&mut got) {
                Ok(()) => {
                    assert!(Instant::now() < deadline, "close never surfaced");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        match err {
            NetError::PeerClosed {
                mid_frame: true,
                wanted,
                got: have,
            } => {
                assert_eq!(wanted, 10);
                assert_eq!(have, wire.len() - 10);
            }
            other => panic!("expected mid-frame PeerClosed, got {other:?}"),
        }
        assert!(got.is_empty());
    }
}
