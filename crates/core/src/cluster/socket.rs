//! The cross-process backend: each server rank is a separate OS process,
//! reached over TCP or Unix-domain sockets.
//!
//! Topology is a star: the driver process hosts the client runtimes and a
//! listener; every server process dials in, introduces itself with a HELLO
//! frame, and receives the cluster configuration (rank layout, target
//! triple, reliability tunables) in the WELCOME reply.
//! Server-to-server traffic — recursive ifunc hops, X-RDMA result returns —
//! is relayed through the driver, preserving end-to-end reliability
//! semantics per (source, destination) link.
//!
//! Frames reuse the [`wire`] codec unchanged: a [`tc_net::Frame`]'s `data`
//! segment carries exactly the bytes a threaded envelope would, and the
//! detached `payload` segment is the scatter-gather half of
//! [`wire::encode_op_vectored`], written to the socket with vectored I/O so
//! a large PUT or ifunc library crosses the process boundary without a
//! send-side copy.
//!
//! With a [`FaultPlan`] installed, the driver applies the chaos engine's
//! per-link decisions exactly once per traversal (client egress, server
//! ingress, server-to-server relay) to reliable data frames and acks —
//! mirroring the threaded backend's envelope filter — and every endpoint
//! runs a reliable link endpoint (the crate-private `link` module), so
//! delivery stays exactly-once and in-order over a lossy socket.

use super::host::{self, ClientHost};
use super::link::{self, Digest, Link};
use super::reliable::{LinkHealth, RelConfig, RelMetrics};
use super::{check_server_rank, wire, ClientId, Transport, Tuning};
use crate::error::{CoreError, Result};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, ChaosStats, FaultPlan, HoldBack};
use tc_net::{ChildGuard, Connection, Frame, Listener, NetError, SocketSpec};

/// True when `TC_SOCKET_TRACE` is set: both halves of the socket backend
/// print per-frame routing decisions to stderr.  For debugging distributed
/// runs; the check is a single atomic load after the first call.
pub(crate) fn trace_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("TC_SOCKET_TRACE").is_some())
}

macro_rules! strace {
    ($($arg:tt)*) => {
        if crate::cluster::socket::trace_on() {
            eprintln!($($arg)*);
        }
    };
}
pub(crate) use strace;

/// Session tag: server → driver introduction (`[magic][version][rank]`).
pub const TAG_HELLO: u64 = 100;
/// Session tag: driver → server configuration reply.
pub const TAG_WELCOME: u64 = 101;
/// Session tag: driver asks a server to deploy a catalogued AM handler
/// (control body: handler name bytes).
pub const TAG_AM_DEPLOY: u64 = 102;
/// Session tag: server answers a [`TAG_AM_DEPLOY`] (`[1]` deployed, `[0]`
/// unknown name).
pub const TAG_AM_ACK: u64 = 103;
/// Session tag: driver tells a server to flush and exit.
pub const TAG_SHUTDOWN: u64 = 104;
/// Session tag: server announces a voluntary close (EOF after this is a
/// clean exit, not a peer failure).
pub const TAG_BYE: u64 = 105;
/// Session tag: server publishes its reliability state (unacked count,
/// deadline, counters) so the driver's quiescence detection sees the whole
/// cluster.
pub const TAG_REL_INFO: u64 = 106;
/// Session tag: driver-side liveness probe (body: 8-byte nonce).  A healthy
/// server echoes it back as [`TAG_PONG`]; silence past the ping timeout
/// declares the rank dead even when the socket stays open.
pub const TAG_PING: u64 = 107;
/// Session tag: server's echo of a [`TAG_PING`] nonce.
pub const TAG_PONG: u64 = 108;
/// Session tag: driver tells a server that peer rank `r` (body: 4-byte LE
/// rank) was respawned with a fresh sequence space — the server must reset
/// its reliable link to `r` and re-send its retained unacked frames
/// renumbered from seq 1.
pub const TAG_LINK_RESET: u64 = 109;

/// HELLO magic ("TCN1").
pub const HELLO_MAGIC: u32 = 0x5443_4E31;
/// Session protocol version.  3: a [`wire::TAG_ACK`] body may carry a second
/// `u64` and [`TAG_REL_INFO`] grew one — an older server must be refused at
/// HELLO, not fed bodies it would reject one by one.
pub const PROTO_VERSION: u32 = 3;
/// HELLO rank value meaning "assign me one".
pub const RANK_ANY: u32 = u32::MAX;
/// `from`/`to` value of the driver itself (it is not a rank).
pub const DRIVER_PORT: u32 = u32::MAX;

/// Encode a HELLO body.
pub fn encode_hello(rank: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.extend_from_slice(&rank.to_le_bytes());
    out
}

/// Decode a HELLO body into the requested rank.
pub fn decode_hello(body: &[u8]) -> Result<u32> {
    if body.len() != 12 {
        return Err(CoreError::Transport(format!(
            "HELLO must be 12 bytes, got {}",
            body.len()
        )));
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if magic != HELLO_MAGIC {
        return Err(CoreError::Transport(format!(
            "HELLO magic {magic:#x} is not {HELLO_MAGIC:#x}"
        )));
    }
    if version != PROTO_VERSION {
        return Err(CoreError::Transport(format!(
            "peer speaks protocol version {version}, this driver speaks {PROTO_VERSION}"
        )));
    }
    Ok(u32::from_le_bytes(body[8..12].try_into().unwrap()))
}

/// Everything a server process needs to build its runtime, carried by the
/// WELCOME frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// Driver-side client count (clients occupy ranks `0..clients`).
    pub clients: u32,
    /// Server count (servers occupy ranks `clients..clients+servers`).
    pub servers: u32,
    /// The rank assigned to this server.
    pub rank: u32,
    /// Whether a fault plan is installed (reliable delivery on).
    pub reliable: bool,
    /// Whether the reliable layer estimates its RTO adaptively (Jacobson
    /// SRTT/RTTVAR) or pins it at `rto`.
    pub adaptive: bool,
    /// Reliability: initial retransmission timeout, nanoseconds.
    pub rto: u64,
    /// Reliability: backoff cap, nanoseconds.
    pub rto_max: u64,
    /// The server target triple, in its textual form.
    pub triple: TargetTriple,
}

impl Welcome {
    /// The reliability tunables this WELCOME configures.
    pub fn rel_config(&self) -> RelConfig {
        RelConfig {
            rto: self.rto,
            rto_max: self.rto_max,
            adaptive: self.adaptive,
        }
    }
}

/// Encode a WELCOME body.
pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let triple = w.triple.to_string();
    let mut out = Vec::with_capacity(32 + triple.len());
    out.extend_from_slice(&w.clients.to_le_bytes());
    out.extend_from_slice(&w.servers.to_le_bytes());
    out.extend_from_slice(&w.rank.to_le_bytes());
    out.push(w.reliable as u8);
    out.push(w.adaptive as u8);
    out.extend_from_slice(&w.rto.to_le_bytes());
    out.extend_from_slice(&w.rto_max.to_le_bytes());
    out.extend_from_slice(&(triple.len() as u16).to_le_bytes());
    out.extend_from_slice(triple.as_bytes());
    out
}

/// Decode a WELCOME body.
pub fn decode_welcome(body: &[u8]) -> Result<Welcome> {
    let err = |m: &str| CoreError::Transport(format!("bad WELCOME: {m}"));
    if body.len() < 32 {
        return Err(err("shorter than the fixed header"));
    }
    let clients = u32::from_le_bytes(body[0..4].try_into().unwrap());
    let servers = u32::from_le_bytes(body[4..8].try_into().unwrap());
    let rank = u32::from_le_bytes(body[8..12].try_into().unwrap());
    // The server sizes its runtime and its per-peer link table from these:
    // the layout must add up and the assigned rank must be a server's.
    if !clients
        .checked_add(servers)
        .is_some_and(|total| (clients..total).contains(&rank))
    {
        return Err(err(&format!(
            "rank {rank} is not a server of {clients} clients + {servers} servers"
        )));
    }
    let reliable = body[12] != 0;
    let adaptive = body[13] != 0;
    let rto = u64::from_le_bytes(body[14..22].try_into().unwrap());
    let rto_max = u64::from_le_bytes(body[22..30].try_into().unwrap());
    let triple_len = u16::from_le_bytes(body[30..32].try_into().unwrap()) as usize;
    if body.len() != 32 + triple_len {
        return Err(err("triple length disagrees with the body"));
    }
    let triple_str = std::str::from_utf8(&body[32..]).map_err(|_| err("triple is not UTF-8"))?;
    let triple = TargetTriple::parse(triple_str)
        .ok_or_else(|| err(&format!("unknown triple `{triple_str}`")))?;
    Ok(Welcome {
        clients,
        servers,
        rank,
        reliable,
        adaptive,
        rto,
        rto_max,
        triple,
    })
}

/// One endpoint's reliability digest, as carried by [`TAG_REL_INFO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelInfo {
    /// Frames sent but not yet cumulatively acked.
    pub unacked: u64,
    /// Nanoseconds until the earliest armed retransmission deadline
    /// (`u64::MAX` when nothing is armed).
    pub remaining_ns: u64,
    /// Cumulative reliability counters.
    pub metrics: RelMetrics,
    /// Health of the endpoint's most-stressed link (highest unacked count,
    /// RTO breaking ties): the fixed-size stand-in for the full per-link
    /// table, which only the owning process holds.  `None` when no link has
    /// carried traffic yet.
    pub health: Option<LinkHealth>,
}

/// Pick the most-stressed link of a health table: most unacked frames,
/// widest RTO as the tie-break.  The fixed-size [`RelInfo`] digest carries
/// this one row.
pub fn most_stressed(health: impl IntoIterator<Item = LinkHealth>) -> Option<LinkHealth> {
    health
        .into_iter()
        .max_by_key(|h| (h.unacked, h.rto, h.peer))
}

/// Encode a [`TAG_REL_INFO`] body (112 bytes: 14 little-endian u64 fields).
pub fn encode_rel_info(info: &RelInfo) -> Vec<u8> {
    let h = info.health.unwrap_or_default();
    let fields = [
        info.unacked,
        info.remaining_ns,
        info.metrics.retransmits,
        info.metrics.fast_retransmits,
        info.metrics.dup_drops,
        info.metrics.out_of_order,
        info.metrics.acks_sent,
        info.health.is_some() as u64,
        h.peer as u64,
        h.srtt,
        h.rttvar,
        h.rto,
        h.unacked,
        h.silent_rounds as u64,
    ];
    let mut out = Vec::with_capacity(112);
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

/// Decode a [`TAG_REL_INFO`] body.
pub fn decode_rel_info(body: &[u8]) -> Result<RelInfo> {
    if body.len() != 112 {
        return Err(CoreError::Transport(format!(
            "REL_INFO must be 112 bytes, got {}",
            body.len()
        )));
    }
    let f = |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap());
    let health = (f(7) != 0).then(|| LinkHealth {
        peer: f(8) as u32,
        srtt: f(9),
        rttvar: f(10),
        rto: f(11),
        unacked: f(12),
        silent_rounds: f(13) as u32,
    });
    Ok(RelInfo {
        unacked: f(0),
        remaining_ns: f(1),
        metrics: RelMetrics {
            retransmits: f(2),
            fast_retransmits: f(3),
            dup_drops: f(4),
            out_of_order: f(5),
            acks_sent: f(6),
        },
        health,
    })
}

/// How a [`super::ClusterBuilder`] should set up the socket backend.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Endpoint the driver listens on.  `None` picks a fresh Unix-domain
    /// socket under the system temp directory.
    pub addr: Option<SocketSpec>,
    /// The server binary to spawn (a `tc-socket-server`-style executable).
    /// `None` falls back to `TC_SOCKET_SERVER_BIN` and then to a sibling of
    /// the current executable.
    pub server_bin: Option<PathBuf>,
    /// Spawn the server processes (default).  `false` waits for externally
    /// launched servers to dial in instead.
    pub spawn_servers: bool,
    /// Self-heal dead server ranks: detect death (socket failure or ping
    /// silence), respawn the process (or await an external rejoin) with
    /// bounded exponential backoff, re-run the handshake, re-deploy AMs,
    /// replay recorded server-memory writes, and replay unacked reliable
    /// frames.  Off by default: without it a dead rank stays dead and
    /// replays its typed error, the PR 6 semantics.
    pub recover: bool,
    /// Override the reliability tunables (defaults to
    /// [`RelConfig::threads_default`]; only meaningful with a fault plan).
    pub rel_config: Option<RelConfig>,
    /// Scheduling tunables.
    pub tuning: Tuning,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            addr: None,
            server_bin: None,
            spawn_servers: true,
            recover: false,
            rel_config: None,
            tuning: Tuning::default(),
        }
    }
}

fn default_unix_spec() -> SocketSpec {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    SocketSpec::Unix(std::env::temp_dir().join(format!("tc-net-{}-{}.sock", std::process::id(), n)))
}

/// Locate the server binary: explicit config, then the
/// `TC_SOCKET_SERVER_BIN` environment variable, then a `tc-socket-server`
/// next to the current executable (covers `cargo run --example` and
/// test binaries alike).
fn resolve_server_bin(config: &SocketConfig) -> Result<PathBuf> {
    if let Some(bin) = &config.server_bin {
        return Ok(bin.clone());
    }
    if let Ok(bin) = std::env::var("TC_SOCKET_SERVER_BIN") {
        return Ok(PathBuf::from(bin));
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut dirs = Vec::new();
        if let Some(d) = exe.parent() {
            dirs.push(d.to_path_buf());
            if let Some(d2) = d.parent() {
                dirs.push(d2.to_path_buf());
                if let Some(d3) = d2.parent() {
                    dirs.push(d3.to_path_buf());
                }
            }
        }
        for dir in dirs {
            let candidate = dir.join("tc-socket-server");
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(CoreError::Transport(
        "cannot locate the tc-socket-server binary: set ClusterBuilder::server_bin, \
         export TC_SOCKET_SERVER_BIN, or build the `tc-socket-server` bin target first \
         (`cargo build --bin tc-socket-server`)"
            .into(),
    ))
}

/// Why a server link is no longer usable.
#[derive(Debug, Clone)]
enum LinkState {
    /// Handshaken and healthy.
    Active,
    /// The peer announced a voluntary close (BYE); EOF is expected.
    Closing,
    /// The link failed; the typed error is replayed to anyone who touches
    /// the rank.
    Dead(CoreError),
}

/// Driver-side state of one server process.
struct ServerLink {
    conn: Option<Connection>,
    child: Option<ChildGuard>,
    state: LinkState,
    /// Latest link digest published by the server, its deadline rebased
    /// onto the driver clock.
    rel: Digest,
    /// Last instant any frame arrived from this link (liveness baseline).
    last_activity: Instant,
    /// When an outstanding liveness PING was sent, if any.
    ping_sent_at: Option<Instant>,
    /// Consecutive failed respawn attempts since the last heal.
    respawn_attempts: u32,
    /// When the next respawn/rejoin attempt is due (recovery mode).
    next_attempt_at: Option<Instant>,
}

impl ServerLink {
    fn empty() -> Self {
        ServerLink {
            conn: None,
            child: None,
            state: LinkState::Active,
            rel: Digest::default(),
            last_activity: Instant::now(),
            ping_sent_at: None,
            respawn_attempts: 0,
            next_attempt_at: None,
        }
    }

    /// The rank died or was reborn: its published digest is stale (a dead
    /// rank has no link state anymore); only the counters stay.
    fn forget_rel(&mut self) {
        self.rel = Digest {
            metrics: self.rel.metrics,
            ..Digest::default()
        };
    }
}

/// Driver-side chaos state (mirrors the threaded backend's `DriverChaos`;
/// each client's link lives in its [`ClientHost`]).
struct SocketChaos {
    session: ChaosSession,
    /// Held-back frames implementing delay/reorder.
    held: HoldBack<Frame>,
}

/// The cross-process cluster backend (OS processes + sockets, wall-clock
/// time).
pub struct SocketTransport {
    /// The client ranks, progressed by this driver's pump (the backend is
    /// single-driver: no worker threads).  Their links are reliable exactly
    /// when `chaos` is set.
    clients: Vec<ClientHost>,
    links: Vec<ServerLink>,
    listener: Option<Listener>,
    servers: usize,
    errors: Vec<CoreError>,
    /// Fatal link errors waiting to be surfaced from `step`.
    pending_errors: VecDeque<CoreError>,
    next_token: u64,
    tuning: Tuning,
    chaos: Option<SocketChaos>,
    stalled_since: Option<Instant>,
    delivered: u64,
    dropped: u64,
    shut_down: bool,
    /// Frames read but not yet routed (control round trips intercept their
    /// replies here).
    inbox: VecDeque<Frame>,
    /// Self-healing enabled ([`SocketConfig::recover`]).
    recover: bool,
    /// Re-entrancy guard: a heal in progress drives the pump machinery,
    /// which must not start a second heal underneath it.
    healing: bool,
    /// Respawn ingredients, retained for recovery mode.
    spawn_servers: bool,
    server_bin: Option<PathBuf>,
    connect_spec: Option<SocketSpec>,
    /// AM names in deploy order, replayed to a healed rank so its handler
    /// ids line up with the cluster's.
    deployed_ams: Vec<String>,
    /// Latest server-memory write per (rank, addr), replayed to a healed
    /// rank to rebuild its data region (e.g. a `PointerTable` shard image).
    /// Only recorded in recovery mode.
    poke_log: std::collections::BTreeMap<(usize, u64), Vec<u8>>,
    /// Connections accepted but not yet through their HELLO (recovery mode).
    rejoining: Vec<Connection>,
    /// Successful heals, for tests.
    heals: u64,
    /// WELCOME ingredients, retained for recovery-mode re-handshakes.
    server_triple: TargetTriple,
    rel_cfg: RelConfig,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers)
            .field("errors", &self.errors.len())
            .finish()
    }
}

impl SocketTransport {
    /// Start the backend: bind the listener, spawn (or await) `servers`
    /// server processes, run the HELLO/WELCOME handshake with each, and
    /// return once every rank is connected.
    pub fn connect_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        fault_plan: Option<FaultPlan>,
        config: SocketConfig,
    ) -> Result<Self> {
        let clients = clients.max(1);
        let total = (clients + servers) as u32;
        let tuning = config.tuning;
        let spec = config.addr.clone().unwrap_or_else(default_unix_spec);
        let listener = Listener::bind(&spec)
            .map_err(|e| CoreError::Transport(format!("binding {spec}: {e}")))?;
        let actual = listener
            .local_spec()
            .map_err(|e| CoreError::Transport(e.to_string()))?;

        let rel_cfg = config.rel_config.unwrap_or_else(RelConfig::threads_default);
        let chaos = fault_plan.map(|plan| SocketChaos {
            session: ChaosSession::new(plan),
            held: HoldBack::default(),
        });
        let reliable = chaos.is_some();
        let link_cfg = reliable.then_some(rel_cfg);

        let mut links: Vec<ServerLink> = (0..servers).map(|_| ServerLink::empty()).collect();
        let mut server_bin = None;
        if config.spawn_servers {
            let bin = resolve_server_bin(&config)?;
            for (idx, link) in links.iter_mut().enumerate() {
                let rank = (clients + idx) as u32;
                link.child = Some(
                    tc_net::spawn_server(&bin, &actual, rank)
                        .map_err(|e| CoreError::Transport(e.to_string()))?,
                );
            }
            server_bin = Some(bin);
        }

        let mut transport = SocketTransport {
            clients: (0..clients as u32)
                .map(|c| {
                    let runtime = NodeRuntime::new(tc_ucx::WorkerAddr(c), total, client_triple);
                    ClientHost::new(runtime, Link::new(c, total, link_cfg), clients as u32)
                })
                .collect(),
            links,
            listener: Some(listener),
            servers,
            errors: Vec::new(),
            pending_errors: VecDeque::new(),
            next_token: 1,
            tuning,
            chaos,
            stalled_since: None,
            delivered: 0,
            dropped: 0,
            shut_down: false,
            inbox: VecDeque::new(),
            recover: config.recover,
            healing: false,
            spawn_servers: config.spawn_servers,
            server_bin,
            connect_spec: Some(actual),
            deployed_ams: Vec::new(),
            poke_log: std::collections::BTreeMap::new(),
            rejoining: Vec::new(),
            heals: 0,
            server_triple,
            rel_cfg,
        };
        if let Err(e) = transport.await_servers() {
            // Nobody to ask politely: dropping the links kills the children.
            transport.shut_down = true;
            return Err(e);
        }
        Ok(transport)
    }

    /// Startup handshake: admit dialing servers until every rank has a live
    /// link.
    fn await_servers(&mut self) -> Result<()> {
        let deadline = Instant::now() + link::HANDSHAKE_TIMEOUT;
        let mut connected = 0;
        while connected < self.servers {
            if Instant::now() >= deadline {
                return Err(CoreError::Transport(format!(
                    "socket handshake timed out with {connected}/{} servers connected",
                    self.servers
                )));
            }
            for child in self.links.iter_mut().filter_map(|l| l.child.as_mut()) {
                if !child.alive() {
                    return Err(CoreError::Transport(format!(
                        "server process for rank {} exited during the handshake",
                        child.rank()
                    )));
                }
            }
            connected += self.admit(true)?.len();
            if connected < self.servers {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// Admission, written once: accept whoever is dialing, read each waiting
    /// connection's HELLO, give it the rank it asks for (any, for
    /// [`RANK_ANY`]) among the free ones — at startup those without a
    /// connection, during a heal the dead ones — answer with the WELCOME
    /// and install the connection.  Returns the server indices admitted.  At
    /// startup the first failure aborts the build; during a heal it is
    /// logged and that connection dropped, the cluster keeps running.
    fn admit(&mut self, startup: bool) -> Result<Vec<usize>> {
        if let Some(listener) = self.listener.as_ref() {
            loop {
                match listener.accept() {
                    Ok(Some(conn)) => self.rejoining.push(conn),
                    Ok(None) => break,
                    Err(e) => {
                        let e = CoreError::Transport(format!("accepting a server: {e}"));
                        self.reject(startup, e)?;
                        break;
                    }
                }
            }
        }
        let mut admitted = Vec::new();
        for mut conn in std::mem::take(&mut self.rejoining) {
            let mut frames = Vec::new();
            match conn.pump_read(&mut frames) {
                Ok(()) => {}
                Err(NetError::PeerClosed { .. }) => continue, // gave up; drop it
                Err(e) => {
                    self.reject(startup, CoreError::Transport(e.to_string()))?;
                    continue;
                }
            }
            let Some(hello) = frames.into_iter().find(|f| f.tag == TAG_HELLO) else {
                self.rejoining.push(conn);
                continue;
            };
            let welcomed = decode_hello(hello.data.as_slice())
                .and_then(|wanted| self.free_rank(wanted, startup))
                .and_then(|idx| self.welcome(&mut conn, idx).map(|()| idx));
            match welcomed {
                Ok(idx) => {
                    self.links[idx].conn = Some(conn);
                    self.links[idx].last_activity = Instant::now();
                    admitted.push(idx);
                }
                Err(e) => self.reject(startup, e)?,
            }
        }
        Ok(admitted)
    }

    /// The error policy of [`SocketTransport::admit`].
    fn reject(&mut self, startup: bool, e: CoreError) -> Result<()> {
        if startup {
            return Err(e);
        }
        self.errors.push(e);
        Ok(())
    }

    /// The server index a HELLO asking for rank `wanted` is admitted to.
    fn free_rank(&self, wanted: u32, startup: bool) -> Result<usize> {
        let clients = self.clients.len();
        let free =
            |l: &ServerLink| l.conn.is_none() && (startup || matches!(l.state, LinkState::Dead(_)));
        if wanted == RANK_ANY {
            return self.links.iter().position(free).ok_or_else(|| {
                CoreError::Transport("a server asked for a rank but none is free".into())
            });
        }
        let rank = wanted as usize;
        check_server_rank(clients, self.servers, rank)?;
        if !free(&self.links[rank - clients]) {
            return Err(CoreError::Transport(format!(
                "a server claimed rank {rank}, which is not free"
            )));
        }
        Ok(rank - clients)
    }

    /// Send server `idx` its WELCOME and see it into the socket — bounded: a
    /// peer that connects and never reads must not wedge admission.
    fn welcome(&self, conn: &mut Connection, idx: usize) -> Result<()> {
        let rank = (self.clients.len() + idx) as u32;
        let welcome = Welcome {
            clients: self.clients.len() as u32,
            servers: self.servers as u32,
            rank,
            reliable: self.chaos.is_some(),
            adaptive: self.rel_cfg.adaptive,
            rto: self.rel_cfg.rto,
            rto_max: self.rel_cfg.rto_max,
            triple: self.server_triple,
        };
        conn.queue(Frame::new(
            DRIVER_PORT,
            rank,
            TAG_WELCOME,
            encode_welcome(&welcome),
        ));
        let deadline = Instant::now() + link::WELCOME_DRAIN_TIMEOUT;
        while conn.pending_writes() > 0 {
            conn.pump_write()
                .map_err(|e| CoreError::Transport(e.to_string()))?;
            if Instant::now() >= deadline {
                return Err(CoreError::Transport(format!(
                    "rank {rank} never read its WELCOME"
                )));
            }
            if conn.pending_writes() > 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
    }

    /// The endpoint the driver is listening on.
    pub fn local_spec(&self) -> Option<SocketSpec> {
        self.listener.as_ref().and_then(|l| l.local_spec().ok())
    }

    /// Errors reported by server processes (or transport-level decode
    /// failures) that were not fatal to a link.
    pub fn errors(&self) -> &[CoreError] {
        &self.errors
    }

    /// Number of spawned server processes still running.
    pub fn live_children(&mut self) -> usize {
        self.links
            .iter_mut()
            .filter_map(|l| l.child.as_mut())
            .map(|c| c.alive() as usize)
            .sum()
    }

    /// Kill the spawned process behind server index `idx` (rank
    /// `clients + idx`) — the fault-injection hook for peer-death tests.
    pub fn kill_server(&mut self, idx: usize) {
        if let Some(child) = self.links.get_mut(idx).and_then(|l| l.child.as_mut()) {
            child.kill();
        }
    }

    /// Classify a socket-plane failure on the link of server `idx` into the
    /// typed core error space and remember it.
    fn fail_link(&mut self, idx: usize, e: NetError) {
        let rank = self.clients.len() + idx;
        let link = &mut self.links[idx];
        if matches!(link.state, LinkState::Dead(_)) {
            return;
        }
        let expected = self.shut_down || matches!(link.state, LinkState::Closing);
        let err = match e {
            NetError::PeerClosed {
                mid_frame: false, ..
            } if expected => {
                // A clean close we asked for: not an error at all.
                link.conn = None;
                link.state = LinkState::Closing;
                return;
            }
            NetError::PeerClosed {
                mid_frame: false, ..
            } => CoreError::PeerDisconnected {
                rank,
                detail: "connection closed".into(),
            },
            NetError::PeerClosed {
                mid_frame: true,
                wanted,
                got,
            } => CoreError::ShortRead {
                rank,
                addr: 0,
                wanted,
                got,
            },
            other => CoreError::PeerDisconnected {
                rank,
                detail: other.to_string(),
            },
        };
        self.fail_link_with(idx, err);
    }

    /// Mark server `idx`'s link dead with a ready-made typed error.  Without
    /// recovery the error also surfaces from the next `step`; with recovery
    /// it stays sticky on the link (control-plane ops targeting the rank
    /// fail fast) while the health monitor schedules a respawn.
    fn fail_link_with(&mut self, idx: usize, err: CoreError) {
        let link = &mut self.links[idx];
        if matches!(link.state, LinkState::Dead(_)) {
            return;
        }
        strace!("[driver] link {} dead: {err}", self.clients.len() + idx);
        link.conn = None;
        link.state = LinkState::Dead(err.clone());
        link.ping_sent_at = None;
        link.next_attempt_at = None;
        link.forget_rel();
        if !self.recover {
            self.pending_errors.push_back(err);
        }
    }

    /// Liveness monitor (recovery mode): ping links that have been silent
    /// past the ping interval, and declare ranks whose PING went unanswered
    /// past the ping timeout dead.
    fn health_check(&mut self) {
        if !self.recover || self.shut_down {
            return;
        }
        let mut timed_out = Vec::new();
        for (idx, link) in self.links.iter_mut().enumerate() {
            if link.conn.is_none() || !matches!(link.state, LinkState::Active) {
                continue;
            }
            match link.ping_sent_at {
                Some(at) => {
                    if at.elapsed() >= link::PING_TIMEOUT {
                        timed_out.push(idx);
                    }
                }
                None => {
                    if link.last_activity.elapsed() >= link::PING_INTERVAL {
                        let nonce = self.next_token;
                        self.next_token += 1;
                        let rank = (self.clients.len() + idx) as u32;
                        if let Some(conn) = link.conn.as_mut() {
                            conn.queue(Frame::new(
                                DRIVER_PORT,
                                rank,
                                TAG_PING,
                                nonce.to_le_bytes().to_vec(),
                            ));
                            link.ping_sent_at = Some(Instant::now());
                        }
                    }
                }
            }
        }
        for idx in timed_out {
            let rank = self.clients.len() + idx;
            self.fail_link_with(
                idx,
                CoreError::PeerDisconnected {
                    rank,
                    detail: format!("no PONG within {:?} (liveness probe)", link::PING_TIMEOUT),
                },
            );
        }
    }

    /// Exponential respawn backoff: `recovery_backoff · 2^attempt`, capped.
    fn recovery_delay(&self, attempt: u32) -> Duration {
        let mult = 1u32 << attempt.min(10);
        link::RECOVERY_BACKOFF
            .saturating_mul(mult)
            .min(link::RECOVERY_BACKOFF_MAX)
    }

    /// The recovery driver (recovery mode): schedule respawns of dead ranks
    /// with bounded exponential backoff, admit rejoining connections through
    /// a fresh HELLO/WELCOME handshake, and heal admitted links.  Called
    /// from the step and control-wait loops; a no-op while a heal is
    /// already in progress underneath us.
    fn poll_recovery(&mut self) {
        if !self.recover || self.shut_down || self.healing {
            return;
        }
        self.healing = true;
        self.poll_recovery_inner();
        self.healing = false;
    }

    fn poll_recovery_inner(&mut self) {
        let clients = self.clients.len();
        // Respawn scheduling (spawn mode only; external servers rejoin on
        // their own schedule).
        if self.spawn_servers {
            for idx in 0..self.links.len() {
                if !matches!(self.links[idx].state, LinkState::Dead(_)) {
                    continue;
                }
                let attempts = self.links[idx].respawn_attempts;
                match self.links[idx].next_attempt_at {
                    None => {
                        if attempts >= self.tuning.max_respawns {
                            continue; // gave up; the rank stays dead
                        }
                        let delay = self.recovery_delay(attempts);
                        self.links[idx].next_attempt_at = Some(Instant::now() + delay);
                    }
                    Some(at) if Instant::now() >= at => {
                        if attempts >= self.tuning.max_respawns {
                            // Respawn budget exhausted — the rank becomes
                            // terminally failed (surfaced by failed_ranks).
                            self.links[idx].next_attempt_at = None;
                            continue;
                        }
                        // Allow the spawned child a generous window to dial
                        // back in before the next (backed-off) attempt
                        // replaces it.
                        let next = self
                            .recovery_delay(attempts + 1)
                            .max(Duration::from_millis(500));
                        let link = &mut self.links[idx];
                        link.respawn_attempts += 1;
                        link.next_attempt_at = Some(Instant::now() + next);
                        if let Some(child) = link.child.as_mut() {
                            child.kill();
                            child.wait_timeout(Duration::from_millis(50));
                        }
                        link.child = None;
                        let rank = (clients + idx) as u32;
                        let (Some(bin), Some(spec)) =
                            (self.server_bin.as_ref(), self.connect_spec.as_ref())
                        else {
                            continue;
                        };
                        strace!("[driver] respawning rank {rank} (attempt {})", attempts + 1);
                        match tc_net::spawn_server(bin, spec, rank) {
                            Ok(child) => self.links[idx].child = Some(child),
                            Err(e) => self.errors.push(CoreError::Transport(format!(
                                "respawning server rank {rank}: {e}"
                            ))),
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        // Admission: accept dialing connections while any rank is dead,
        // walk their HELLOs, and heal the links they claim.
        let any_dead = self
            .links
            .iter()
            .any(|l| matches!(l.state, LinkState::Dead(_)));
        if !any_dead && self.rejoining.is_empty() {
            return;
        }
        // Only startup admission fails; a heal logs and carries on.
        let Ok(admitted) = self.admit(false) else {
            return;
        };
        for idx in admitted {
            if let Err(e) = self.heal_link(idx) {
                // The rank died again mid-heal; fail_link already re-marked
                // it and the next poll reschedules.
                self.errors.push(e);
            }
        }
    }

    /// Bring a freshly re-handshaken link back into service: rebuild the
    /// reborn process's control-plane state (AM catalog in deploy order,
    /// recorded memory writes), renumber and replay the reliable frames the
    /// driver retained for it, and tell surviving servers to do the same.
    fn heal_link(&mut self, idx: usize) -> Result<()> {
        let clients = self.clients.len();
        let rank = clients + idx;
        strace!("[driver] healing rank {rank}");
        {
            let link = &mut self.links[idx];
            link.state = LinkState::Active;
            link.last_activity = Instant::now();
            link.ping_sent_at = None;
            link.next_attempt_at = None;
            link.forget_rel();
        }
        // Reset the reliable links *before* any traffic can flow: the
        // reborn rank has a fresh sequence space in both directions.  The
        // retained unacked frames are re-registered now (so ops posted
        // during the heal order behind them) but only hit the wire after
        // the control plane below is rebuilt — they may invoke AM handlers.
        let mut replay = Vec::new();
        if let Some(chaos) = &mut self.chaos {
            chaos.held.forget_node(rank);
        }
        host::replay_clients(
            &mut self.clients,
            rank as u32,
            |from, to, tag, data, payload| {
                replay.push(Frame::with_payload(from as u32, to, tag, data, payload))
            },
        );
        // Re-deploy the AM catalog in original deploy order so the reborn
        // process's handler ids line up with the cluster's.
        for name in self.deployed_ams.clone() {
            let reply = self.control(rank, TAG_AM_DEPLOY, TAG_AM_ACK, name.as_bytes())?;
            if reply != [1] {
                return Err(CoreError::UnknownAmHandler {
                    name: format!("{name} (lost from the server AM catalog after respawn)"),
                });
            }
        }
        // Replay the recorded memory writes (latest value per address —
        // e.g. this rank's PointerTable shard image).
        let pokes: Vec<(u64, Vec<u8>)> = self
            .poke_log
            .range((rank, 0)..=(rank, u64::MAX))
            .map(|(&(_, addr), data)| (addr, data.clone()))
            .collect();
        for (addr, data) in pokes {
            self.write_memory(rank, addr, &data)?;
        }
        // Now the replay can flow, along with the surviving servers'
        // renumbered re-sends.
        for f in replay {
            self.chaos_route(f);
        }
        if self.chaos.is_some() {
            for other in 0..self.links.len() {
                if other == idx || self.links[other].conn.is_none() {
                    continue;
                }
                let other_rank = (clients + other) as u32;
                let _ = self.queue_to_server(
                    clients + other,
                    Frame::new(
                        DRIVER_PORT,
                        other_rank,
                        TAG_LINK_RESET,
                        (rank as u32).to_le_bytes().to_vec(),
                    ),
                );
            }
        }
        self.pump_writes();
        self.links[idx].respawn_attempts = 0;
        self.heals += 1;
        strace!("[driver] rank {rank} healed");
        Ok(())
    }

    /// Queue a frame toward server rank `rank`.  Dead links replay their
    /// typed error.
    fn queue_to_server(&mut self, rank: usize, frame: Frame) -> Result<()> {
        let clients = self.clients.len();
        let idx = rank - clients;
        match &mut self.links[idx] {
            ServerLink {
                state: LinkState::Dead(err),
                ..
            } => Err(err.clone()),
            ServerLink {
                conn: Some(conn), ..
            } => {
                strace!(
                    "[driver] send tag={} from={} to={} data={}B payload={}B",
                    frame.tag,
                    frame.from,
                    frame.to,
                    frame.data.len(),
                    frame.payload.len()
                );
                conn.queue(frame);
                self.delivered += 1;
                Ok(())
            }
            _ => Err(CoreError::PeerDisconnected {
                rank,
                detail: "connection closed".into(),
            }),
        }
    }

    /// Pump every link's write queue; socket failures mark the link dead.
    fn pump_writes(&mut self) {
        for idx in 0..self.links.len() {
            let Some(conn) = self.links[idx].conn.as_mut() else {
                continue;
            };
            if conn.pending_writes() == 0 {
                continue;
            }
            if let Err(e) = conn.pump_write() {
                self.fail_link(idx, e);
            }
        }
    }

    /// Pump every link's read side into the inbox; failures mark links dead.
    fn pump_reads(&mut self) {
        let mut frames = Vec::new();
        for idx in 0..self.links.len() {
            frames.clear();
            let res = {
                let Some(conn) = self.links[idx].conn.as_mut() else {
                    continue;
                };
                conn.pump_read(&mut frames)
            };
            if !frames.is_empty() {
                // Any traffic is proof of life.
                self.links[idx].last_activity = Instant::now();
            }
            self.inbox.extend(frames.drain(..));
            if let Err(e) = res {
                self.fail_link(idx, e);
            }
        }
    }

    fn pending_writes_total(&self) -> usize {
        self.links
            .iter()
            .filter_map(|l| l.conn.as_ref())
            .map(|c| c.pending_writes())
            .sum()
    }

    /// Route one frame that arrived from a server connection.
    fn route_frame(&mut self, frame: Frame) {
        strace!(
            "[driver] recv tag={} from={} to={} data={}B payload={}B",
            frame.tag,
            frame.from,
            frame.to,
            frame.data.len(),
            frame.payload.len()
        );
        match frame.tag {
            wire::TAG_OP => {
                if let Err(e) = self.deliver(frame) {
                    self.errors.push(e);
                }
            }
            wire::TAG_ROP | wire::TAG_ACK => self.chaos_route(frame),
            wire::TAG_ERROR => self.errors.push(CoreError::Transport(
                String::from_utf8_lossy(frame.data.as_slice()).into_owned(),
            )),
            TAG_REL_INFO => {
                let idx = (frame.from as usize).wrapping_sub(self.clients.len());
                match decode_rel_info(frame.data.as_slice()) {
                    Ok(info) if idx < self.links.len() => {
                        let now = link::wall_nanos();
                        self.links[idx].rel = Digest {
                            unacked: info.unacked,
                            next_deadline: (info.remaining_ns != u64::MAX)
                                .then(|| now.saturating_add(info.remaining_ns)),
                            metrics: info.metrics,
                            health: info.health,
                        };
                    }
                    Ok(_) => {}
                    Err(e) => self.errors.push(e),
                }
            }
            TAG_PONG => {
                let idx = (frame.from as usize).wrapping_sub(self.clients.len());
                if let Some(link) = self.links.get_mut(idx) {
                    link.ping_sent_at = None;
                    link.last_activity = Instant::now();
                }
            }
            TAG_BYE => {
                let idx = (frame.from as usize).wrapping_sub(self.clients.len());
                if let Some(link) = self.links.get_mut(idx) {
                    if matches!(link.state, LinkState::Active) {
                        link.state = LinkState::Closing;
                    }
                }
            }
            // Stale control replies (from a timed-out request) are dropped;
            // live ones are intercepted by `control` before this.
            _ => {}
        }
    }

    /// Apply the chaos engine to one reliable-plane traversal and move the
    /// surviving frames.  Without a fault plan, reliable frames are a
    /// protocol error (mirroring the threaded backend).
    fn chaos_route(&mut self, frame: Frame) {
        let Some(chaos) = &mut self.chaos else {
            self.errors.push(CoreError::Transport(
                "reliable frame without a fault plan".into(),
            ));
            return;
        };
        let src = frame.from as usize;
        let dst = frame.to as usize;
        // Ranks index dense per-link tables (chaos engine, reliable sets):
        // bound them here, where frames from server processes enter.
        let ranks = self.clients.len() + self.servers;
        if src >= ranks || dst >= ranks {
            self.errors.push(CoreError::Transport(format!(
                "reliable frame between invalid ranks {src} -> {dst}"
            )));
            return;
        }
        let decision = chaos.session.decide(src, dst);
        let mut release = Vec::new();
        chaos
            .held
            .apply(decision, src, dst, frame, &mut |f| release.push(f));
        for f in release {
            self.route_reliable(f);
        }
    }

    /// Physically move one reliable frame that survived the chaos engine
    /// (which bounded its ranks).
    fn route_reliable(&mut self, frame: Frame) {
        let server = (frame.to as usize).checked_sub(self.clients.len());
        if self.recover && server.is_some_and(|s| matches!(self.links[s].state, LinkState::Dead(_)))
        {
            // The rank is being healed.  The frame stays buffered in its
            // sender's ReliableSet and is replayed (renumbered) once the
            // link is back; surfacing an error per retransmission would
            // flood the error log for a transient outage.
            return;
        }
        if let Err(e) = self.deliver(frame) {
            self.errors.push(e);
        }
    }

    /// Put one frame a client's host emitted on its way: reliable frames and
    /// acks traverse the chaos engine, raw ops go straight out.
    fn client_emit(&mut self, frame: Frame) -> Result<()> {
        if frame.tag == wire::TAG_OP {
            return self.deliver(frame);
        }
        self.chaos_route(frame);
        Ok(())
    }

    /// Physically move one data-plane frame to the rank it names.  A server
    /// (a relay, or a client's send) gets it queued on its socket; a rank
    /// beyond the cluster is the fabric drop every backend counts.  A
    /// client's host only stages what became deliverable — the pass close
    /// in [`SocketTransport::drain_inbox`] polls and answers it — but a
    /// duplicate's ack leaves at once, its traversal passing the chaos
    /// engine like any other.
    fn deliver(&mut self, frame: Frame) -> Result<()> {
        let to = frame.to as usize;
        let Some(host) = self.clients.get_mut(to) else {
            if to >= self.clients.len() + self.servers {
                self.dropped += 1;
                return Ok(());
            }
            return self.queue_to_server(to, frame);
        };
        let mut ack = None;
        self.delivered += host.on_frame(
            frame.from,
            frame.tag,
            frame.data,
            frame.payload,
            |dst, tag, data, payload| {
                ack = Some(Frame::with_payload(frame.to, dst, tag, data, payload))
            },
        );
        self.errors.extend(host.take_errors());
        ack.map_or(Ok(()), |ack| self.client_emit(ack))
    }

    /// Move everything client `origin` (and whoever its loopback traffic
    /// reaches) posted toward the sockets.  The hosts' frames are routed
    /// only after the flush returns: routing may release held-back frames
    /// into these same hosts.
    fn flush_from(&mut self, origin: usize) -> Result<()> {
        let mut out = Vec::new();
        host::flush_clients(origin, &mut self.clients, |from, to, tag, data, payload| {
            out.push(Frame::with_payload(from as u32, to, tag, data, payload))
        });
        for host in &mut self.clients {
            self.errors.extend(host.take_errors());
        }
        let mut result = Ok(());
        for frame in out {
            let sent = self.client_emit(frame);
            result = result.and(sent);
        }
        result
    }

    /// Route everything in the inbox, then close the pass on every client:
    /// poll and answer what the pass staged, emit the one pure cumulative
    /// ack per (client, server) link that nothing routed has piggybacked
    /// on, run the retransmission timer, and start the writes.  Returns how
    /// many frames were routed (a client with operations staged since the
    /// last pass — released by a flush outside it — counts as one).
    fn drain_inbox(&mut self) -> usize {
        let mut routed = 0;
        while let Some(frame) = self.inbox.pop_front() {
            self.route_frame(frame);
            routed += 1;
        }
        let mut out = Vec::new();
        for c in 0..self.clients.len() {
            if self.clients[c].pending() {
                routed += 1;
                let _ = self.flush_from(c);
            }
            self.clients[c].end_pass(|to, tag, data, payload| {
                out.push(Frame::with_payload(c as u32, to, tag, data, payload))
            });
        }
        for frame in out {
            let _ = self.client_emit(frame);
        }
        self.pump_writes();
        routed
    }

    /// One I/O round: flush writes, read frames, route everything in the
    /// inbox.  Returns how many frames were routed.
    fn pump_round(&mut self) -> usize {
        self.pump_writes();
        self.pump_reads();
        self.drain_inbox()
    }

    /// Briefly yield, then back off to `poll_interval` sleeps once a quiet
    /// poll loop has outlived the spin window.
    fn poll_pause(&self, since: Instant) {
        if since.elapsed() < link::SPIN_WINDOW {
            std::thread::yield_now();
        } else {
            std::thread::sleep(link::POLL_INTERVAL);
        }
    }

    /// Number of successful link heals so far (recovery mode) — the hook the
    /// heal tests key on.
    pub fn heals(&self) -> u64 {
        self.heals
    }
}

impl Transport for SocketTransport {
    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn node_count(&self) -> usize {
        self.servers + self.clients.len()
    }

    fn client_count(&self) -> usize {
        self.clients.len()
    }

    fn client(&self, id: ClientId) -> &NodeRuntime {
        assert!(id.0 < self.clients.len(), "no client with id {id}");
        self.clients[id.0].runtime()
    }

    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        assert!(id.0 < self.clients.len(), "no client with id {id}");
        self.clients[id.0].runtime_mut()
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        // Clients deploy the closure directly; server processes deploy the
        // same-named handler from their compiled-in catalog (closures cannot
        // cross a process boundary).  Deploy order fixes the handler ids
        // cluster-wide, exactly as on the other backends.
        for client in &mut self.clients {
            client
                .runtime_mut()
                .deploy_am_handler(name.to_string(), handler.clone());
        }
        let clients = self.clients.len();
        for rank in clients..clients + self.servers {
            let reply = self.control(rank, TAG_AM_DEPLOY, TAG_AM_ACK, name.as_bytes())?;
            if reply != [1] {
                return Err(CoreError::UnknownAmHandler {
                    name: format!("{name} (not in the server-process AM catalog)"),
                });
            }
        }
        // Remember the catalog (in deploy order — it fixes handler ids) so
        // a healed rank can be brought back to parity.
        self.deployed_ams.push(name.to_string());
        Ok(())
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        if id.0 >= self.clients.len() {
            return Err(CoreError::Transport(format!("no client with id {id}")));
        }
        if self.shut_down {
            return Err(CoreError::Transport("socket transport is shut down".into()));
        }
        let flushed = self.flush_from(id.0);
        self.pump_writes();
        flushed
    }

    fn step(&mut self) -> Result<bool> {
        if self.shut_down {
            return Ok(false);
        }
        if let Some(e) = self.pending_errors.pop_front() {
            return Err(e);
        }
        let started = Instant::now();
        let step_deadline = started + self.tuning.step_timeout;
        let busy_deadline = started + link::BUSY_STEP_TIMEOUT;
        loop {
            self.health_check();
            self.poll_recovery();
            let routed = self.pump_round();
            if let Some(e) = self.pending_errors.pop_front() {
                return Err(e);
            }
            if routed > 0 {
                self.stalled_since = None;
                return Ok(true);
            }
            let now = Instant::now();
            if now < step_deadline {
                self.poll_pause(started);
                continue;
            }
            // A full step window of silence.  Unacked reliability frames
            // keep the transport "busy" (they will retransmit), but only up
            // to a stall horizon — a frame that can never be acked (dead
            // server process, unhealable partition) must eventually let
            // waits time out.
            if self.unacked_total() > 0 {
                return Ok(link::within_stall_horizon(
                    &mut self.stalled_since,
                    self.rel_cfg.rto_max,
                ));
            }
            self.stalled_since = None;
            if self.pending_writes_total() > 0 && now < busy_deadline {
                self.poll_pause(started);
                continue;
            }
            return Ok(false);
        }
    }

    fn idle_grace(&self) -> u32 {
        self.tuning.idle_grace
    }

    /// Queue the request behind the rank's data and wait for its tokened
    /// reply, routing data-plane traffic that arrives in between.
    fn control(
        &mut self,
        rank: usize,
        request_tag: u64,
        reply_tag: u64,
        body: &[u8],
    ) -> Result<Vec<u8>> {
        let clients = self.clients.len();
        check_server_rank(clients, self.servers, rank)?;
        if let (true, wire::TAG_POKE, Some((addr, data))) =
            (self.recover, request_tag, wire::split_poke(body))
        {
            // A healed rank is brought back to parity by replaying its
            // recorded memory writes; the latest value per (rank, addr) is
            // enough, replays overwrite.
            self.poke_log.insert((rank, addr), data.to_vec());
        }
        let token = self.next_token;
        self.next_token += 1;
        self.queue_to_server(
            rank,
            Frame::new(
                DRIVER_PORT,
                rank as u32,
                request_tag,
                wire::encode_control(token, body),
            ),
        )?;
        let started = Instant::now();
        let deadline = started + self.tuning.control_timeout;
        loop {
            self.health_check();
            self.poll_recovery();
            self.pump_writes();
            self.pump_reads();
            let mut reply = None;
            let mut rest = VecDeque::new();
            while let Some(frame) = self.inbox.pop_front() {
                if reply.is_none() && frame.tag == reply_tag && frame.from as usize == rank {
                    if let Ok((reply_token, reply_body)) =
                        wire::decode_control(frame.data.as_slice())
                    {
                        if reply_token == token {
                            reply = Some(reply_body.to_vec());
                            continue;
                        }
                        continue; // stale reply from an abandoned request
                    }
                }
                rest.push_back(frame);
            }
            self.inbox = rest;
            self.drain_inbox();
            if let Some(body) = reply {
                return Ok(body);
            }
            if let LinkState::Dead(err) = &self.links[rank - clients].state {
                return Err(err.clone());
            }
            if Instant::now() >= deadline {
                return Err(CoreError::WaitTimeout {
                    what: format!("control reply (tag {reply_tag}) from rank {rank}"),
                });
            }
            self.poll_pause(started);
        }
    }

    /// The clients' own digests, then the latest each server process
    /// published.
    fn link_digest(&self, rank: usize) -> Option<Digest> {
        self.chaos.as_ref()?;
        match rank.checked_sub(self.clients.len()) {
            None => Some(self.clients[rank].link().digest()),
            Some(idx) => self.links.get(idx).map(|l| l.rel),
        }
    }

    fn fabric_counts(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.session.stats())
    }

    fn failed_ranks(&self) -> Vec<usize> {
        let clients = self.clients.len();
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                if !matches!(l.state, LinkState::Dead(_)) {
                    return false;
                }
                // A dead rank is *terminally* failed only once no recovery
                // can still bring it back: recovery off entirely, or the
                // respawn budget spent with no attempt pending.  (External
                // rejoin mode never gives up, so with recovery on and spawns
                // off a dead rank is perpetually "recovering", not failed.)
                !self.recover
                    || (self.spawn_servers
                        && l.respawn_attempts >= self.tuning.max_respawns
                        && l.next_attempt_at.is_none())
            })
            .map(|(idx, _)| clients + idx)
            .collect()
    }

    /// Clients report every link they hold; a server process publishes
    /// only its most-stressed one.
    fn link_health(&self) -> Vec<(u32, LinkHealth)> {
        let mut out = Vec::new();
        for (c, host) in self.clients.iter().enumerate() {
            out.extend(host.link().health_rows().map(|h| (c as u32, h)));
        }
        let servers = self.links.iter().zip(self.clients.len() as u32..);
        out.extend(servers.filter_map(|(link, rank)| Some((rank, link.rel.health?))));
        out
    }

    fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        // Ask every live server to flush and exit.
        for idx in 0..self.links.len() {
            let rank = (self.clients.len() + idx) as u32;
            if let Some(conn) = self.links[idx].conn.as_mut() {
                conn.queue(Frame::new(DRIVER_PORT, rank, TAG_SHUTDOWN, Vec::new()));
            }
        }
        let deadline = Instant::now() + link::SHUTDOWN_TIMEOUT;
        while self.pending_writes_total() > 0 && Instant::now() < deadline {
            self.pump_writes();
            if self.pending_writes_total() > 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        // Reap the children; kill any that out-wait the budget.
        for link in &mut self.links {
            if let Some(child) = link.child.as_mut() {
                let remaining = deadline.saturating_duration_since(Instant::now());
                child.wait_timeout(remaining.max(Duration::from_millis(50)));
            }
            link.conn = None;
        }
        self.listener = None;
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_welcome_round_trip() {
        assert_eq!(decode_hello(&encode_hello(7)).unwrap(), 7);
        assert_eq!(decode_hello(&encode_hello(RANK_ANY)).unwrap(), RANK_ANY);
        assert!(decode_hello(&[0u8; 11]).is_err());
        let mut bad = encode_hello(1);
        bad[0] ^= 0xFF;
        assert!(decode_hello(&bad).is_err());
        // A server binary of an earlier protocol (1: an optimisation-level
        // byte in the WELCOME; 2: 8-byte acks only) is refused here, not fed
        // bodies it misparses.
        for version in [1u32, 2] {
            let mut stale = encode_hello(1);
            stale[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_hello(&stale),
                Err(CoreError::Transport(m)) if m.contains(&format!("protocol version {version},"))
            ));
        }

        let w = Welcome {
            clients: 2,
            servers: 4,
            rank: 3,
            reliable: true,
            adaptive: true,
            rto: 30_000_000,
            rto_max: 480_000_000,
            triple: TargetTriple::X86_64_GENERIC,
        };
        assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);
        assert_eq!(
            w.rel_config(),
            RelConfig {
                rto: 30_000_000,
                rto_max: 480_000_000,
                adaptive: true
            }
        );
        assert!(decode_welcome(&[0u8; 10]).is_err());
    }

    /// A server sizes its runtime and link table from the WELCOME: a layout
    /// that overflows, or a rank that is not one of its servers, is refused
    /// before `serve` builds anything from it.
    #[test]
    fn welcome_with_an_impossible_layout_is_rejected() {
        let welcome = |clients, servers, rank| Welcome {
            clients,
            servers,
            rank,
            reliable: false,
            adaptive: true,
            rto: 1,
            rto_max: 2,
            triple: TargetTriple::X86_64_GENERIC,
        };
        for (clients, servers, rank) in [(1, 2, 1), (1, 2, 2), (3, 1, 3)] {
            let w = welcome(clients, servers, rank);
            assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);
        }
        for (clients, servers, rank) in [
            (u32::MAX, 2, 0),     // clients + servers overflows
            (2, u32::MAX - 1, 5), // likewise
            (1, 2, 0),            // a client's rank
            (1, 2, 3),            // one past the last server
            (1, 0, 1),            // no servers at all
            (1, 2, RANK_ANY),     // the wildcard is not an assignment
        ] {
            let body = encode_welcome(&welcome(clients, servers, rank));
            let refused = decode_welcome(&body);
            assert!(
                matches!(refused, Err(CoreError::Transport(_))),
                "{clients} + {servers}, rank {rank}: {refused:?}"
            );
        }
    }

    #[test]
    fn rel_info_round_trip() {
        let mut info = RelInfo {
            unacked: 3,
            remaining_ns: 1_000_000,
            metrics: RelMetrics {
                retransmits: 5,
                fast_retransmits: 4,
                dup_drops: 2,
                out_of_order: 1,
                acks_sent: 9,
            },
            health: None,
        };
        assert_eq!(decode_rel_info(&encode_rel_info(&info)).unwrap(), info);
        info.health = Some(LinkHealth {
            peer: 6,
            srtt: 120_000,
            rttvar: 40_000,
            rto: 280_000,
            unacked: 2,
            silent_rounds: 1,
        });
        assert_eq!(decode_rel_info(&encode_rel_info(&info)).unwrap(), info);
        assert!(decode_rel_info(&[0u8; 47]).is_err());
    }

    #[test]
    fn most_stressed_prefers_unacked_then_rto() {
        assert_eq!(most_stressed([]), None);
        let a = LinkHealth {
            peer: 1,
            unacked: 3,
            rto: 100,
            ..Default::default()
        };
        let b = LinkHealth {
            peer: 2,
            unacked: 1,
            rto: 900,
            ..Default::default()
        };
        let c = LinkHealth {
            peer: 3,
            unacked: 3,
            rto: 400,
            ..Default::default()
        };
        assert_eq!(most_stressed([a, b, c]), Some(c));
    }
}
