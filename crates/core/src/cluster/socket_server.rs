//! The server-process half of the socket backend: everything a
//! `tc-socket-server`-style binary needs to join a cluster.
//!
//! A server process owns one full [`NodeRuntime`] and one connection to the
//! driver.  It introduces itself with HELLO, builds its runtime from the
//! WELCOME configuration (rank layout, target triple, opt level,
//! reliability tunables), then loops: hand every frame to its server host
//! (the crate-private `host` module's `ServerHost`) — data into the runtime,
//! control requests (peek, poke, stats, AM deployment) served behind it —
//! flush whatever the runtime posts back onto the socket, and exit cleanly
//! on SHUTDOWN — or silently when the driver disappears, so a crashed driver
//! never leaves orphan processes grinding the CPU.
//!
//! Native AM handlers are closures and cannot cross a process boundary, so
//! a server binary compiles in a *catalog* of named handlers and builds its
//! host with it; the driver's `deploy_am` ships only the name, as the
//! threaded backend's does.

use super::host::ServerHost;
use super::link::{self, wall_nanos, Digest, HANDSHAKE_TIMEOUT};
use super::socket::{
    DRIVER_PORT, TAG_BYE, TAG_HELLO, TAG_LINK_RESET, TAG_PING, TAG_PONG, TAG_REL_INFO,
    TAG_SHUTDOWN, TAG_WELCOME,
};
use super::wire::{self, Welcome, RANK_ANY};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tc_net::{Connection, Frame, NetError, SocketSpec};
use tc_ucx::Bytes;

/// Command-line configuration of a server process.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Driver endpoint, in [`SocketSpec`] syntax (`unix:/path`,
    /// `tcp:host:port`).
    pub connect: String,
    /// The rank to claim; `None` lets the driver assign one.
    pub rank: Option<u32>,
}

impl ServerOptions {
    /// Parse `--connect <spec> [--rank <n>]` style arguments (the exact
    /// contract of [`tc_net::spawn_server`]).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServerOptions, String> {
        let mut connect = None;
        let mut rank = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--connect" => {
                    connect = Some(it.next().ok_or("--connect needs a value")?);
                }
                "--rank" => {
                    let v = it.next().ok_or("--rank needs a value")?;
                    rank = Some(v.parse::<u32>().map_err(|_| format!("bad rank `{v}`"))?);
                }
                "--help" | "-h" => {
                    return Err("usage: --connect <unix:/path | tcp:host:port> [--rank <n>]".into())
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(ServerOptions {
            connect: connect.ok_or("--connect is required")?,
            rank,
        })
    }
}

/// The socket carrier of one [`ServerHost`]: a connection to the driver and
/// the last reliability digest pushed over it.  Frames the host emits —
/// replies, acks, errors, control replies — are queued on the connection;
/// the driver routes them.
struct Server {
    conn: Connection,
    host: ServerHost,
    rank: u32,
    /// The digest the driver holds (a fresh link's, until the first push).
    published: Digest,
}

/// Queue a frame from `rank` toward `to` (a rank, or [`DRIVER_PORT`]).
fn queue(conn: &mut Connection, rank: u32, to: u32, tag: u64, data: Bytes, payload: Bytes) {
    conn.queue(Frame::with_payload(rank, to, tag, data, payload));
}

impl Server {
    /// Push the reliability digest to the driver when it changed.
    fn publish(&mut self, digest: Digest) {
        if digest != self.published {
            self.published = digest;
            let body = wire::encode_digest(&digest);
            self.conn
                .queue(Frame::new(self.rank, DRIVER_PORT, TAG_REL_INFO, body));
        }
    }

    /// One frame off the socket, in FIFO position.  Liveness probes, link
    /// resets and the shutdown request (returns `true`) are the carrier's
    /// own; everything else is the host's.  `now` is the pass's one clock
    /// reading.
    fn on_frame(&mut self, frame: Frame, now: u64) -> bool {
        let (conn, rank) = (&mut self.conn, self.rank);
        let mut emit = |to, tag, data, payload| queue(conn, rank, to, tag, data, payload);
        match frame.tag {
            // Liveness probe: echo the nonce straight back.
            TAG_PING => emit(DRIVER_PORT, TAG_PONG, frame.data, Bytes::new()),
            TAG_LINK_RESET => {
                if let Ok(peer) = frame.data.as_slice().try_into() {
                    let digest = self.host.replay(u32::from_le_bytes(peer), emit);
                    self.publish(digest);
                }
            }
            TAG_SHUTDOWN => return true,
            tag => self
                .host
                .on_frame(frame.from, tag, frame.data, frame.payload, now, emit),
        }
        false
    }

    /// End of one frame-drain pass.
    fn end_pass(&mut self, now: u64) {
        let (conn, rank) = (&mut self.conn, self.rank);
        let emit = |to, tag, data, payload| queue(conn, rank, to, tag, data, payload);
        let digest = self.host.end_pass(now, emit);
        self.publish(digest);
    }

    /// Announce the close and drain the socket (the pass that carried the
    /// SHUTDOWN has already been closed, so everything is flushed).
    fn graceful_exit(&mut self) {
        self.conn
            .queue(Frame::new(self.rank, DRIVER_PORT, TAG_BYE, Vec::new()));
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.conn.pending_writes() > 0 && Instant::now() < deadline {
            match self.conn.pump_write() {
                Ok(_) => {}
                Err(_) => return,
            }
            if self.conn.pending_writes() > 0 {
                std::thread::sleep(link::SERVER_IDLE_SLEEP);
            }
        }
    }
}

/// Connect to the driver, handshake, and serve until SHUTDOWN (or until the
/// driver disappears).  `catalog` is the binary's set of deployable AM
/// handlers, looked up by name when the driver calls `deploy_am`.
pub fn serve(opts: ServerOptions, catalog: Vec<(String, NativeAmHandler)>) -> Result<(), String> {
    let spec = SocketSpec::parse(&opts.connect).map_err(|e| e.to_string())?;
    // The driver may still be binding its listener: retry for as long as it
    // waits for this process's handshake.
    let mut conn =
        Connection::connect_with_retry(&spec, HANDSHAKE_TIMEOUT).map_err(|e| e.to_string())?;

    let hello_rank = opts.rank.unwrap_or(RANK_ANY);
    conn.queue(Frame::new(
        hello_rank,
        DRIVER_PORT,
        TAG_HELLO,
        wire::encode_hello(hello_rank),
    ));

    // Await the WELCOME (pumping writes so the HELLO actually leaves).  A
    // fast driver may already have data-plane frames on the wire right
    // behind the WELCOME; anything else in the batch is carried over to the
    // main loop, never dropped.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut carry: Vec<Frame> = Vec::new();
    let welcome: Welcome = 'hs: loop {
        if Instant::now() >= deadline {
            return Err("timed out waiting for the driver's WELCOME".into());
        }
        conn.pump_write().map_err(|e| e.to_string())?;
        let mut frames = Vec::new();
        conn.pump_read(&mut frames).map_err(|e| e.to_string())?;
        let mut welcome = None;
        for f in frames {
            if welcome.is_none() && f.tag == TAG_WELCOME {
                let decoded = wire::decode_welcome(f.data.as_slice());
                welcome = Some(decoded.map_err(|e| e.to_string())?);
            } else {
                carry.push(f);
            }
        }
        if let Some(w) = welcome {
            break 'hs w;
        }
        std::thread::sleep(link::POLL_INTERVAL);
    };

    // `decode_welcome` validated the layout: the sum cannot overflow and the
    // rank is a server's.
    let total = welcome.clients + welcome.servers;
    let catalog = Arc::new(Mutex::new(catalog.into_iter().collect()));
    let runtime = NodeRuntime::new(tc_ucx::WorkerAddr(welcome.rank), total, welcome.triple);
    let mut server = Server {
        conn,
        // A process's only wire leads to the driver: self-sends loop back,
        // and the driver decides the faults of what this rank emits.
        host: ServerHost::new(runtime, welcome.rel, true, None, catalog),
        rank: welcome.rank,
        published: Digest::default(),
    };

    let mut frames = Vec::new();
    let mut last_activity = wall_nanos();
    loop {
        frames.clear();
        // First pass: whatever rode in behind the WELCOME.
        frames.append(&mut carry);
        match server.conn.pump_read(&mut frames) {
            Ok(()) => {}
            // The driver is gone.  A clean or mid-frame close both mean
            // "stop serving": exit quietly so no orphan survives the driver.
            Err(NetError::PeerClosed { .. }) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        }
        let now = wall_nanos();
        if !frames.is_empty() {
            last_activity = now;
        }
        let mut shutdown = false;
        for frame in frames.drain(..) {
            shutdown |= server.on_frame(frame, now);
        }
        server.end_pass(now);
        if shutdown {
            server.graceful_exit();
            return Ok(());
        }
        if let Err(e) = server.conn.pump_write() {
            return match e {
                NetError::PeerClosed { .. } => Ok(()),
                other => Err(other.to_string()),
            };
        }
        if server.conn.pending_writes() == 0 && server.host.runtime().completions_pending() == 0 {
            if now - last_activity < link::SERVER_YIELD_WINDOW.as_nanos() as u64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(link::SERVER_IDLE_SLEEP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse() {
        let opts = ServerOptions::from_args(
            ["--connect", "unix:/tmp/x.sock", "--rank", "5"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.connect, "unix:/tmp/x.sock");
        assert_eq!(opts.rank, Some(5));

        let opts = ServerOptions::from_args(
            ["--connect", "tcp:127.0.0.1:9000"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.rank, None);

        assert!(ServerOptions::from_args(["--rank", "1"].into_iter().map(String::from)).is_err());
        assert!(ServerOptions::from_args(["--bogus"].into_iter().map(String::from)).is_err());
    }
}
