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
//!
//! The client ranks, errors, chaos session, tokens and stall rule are the
//! crate-private `host` module's `Driver`, shared with the threaded backend;
//! this one keeps the connections and their admission, chaos routing, the
//! inbox and crash recovery.

use super::host::{Driver, EmitFrom};
use super::link::{self, Digest};
use super::reliable::{LinkHealth, RelConfig};
use super::snapshot::{EventKind, RankSnapshot, RankState, Snapshot};
use super::wire::{self, Welcome, RANK_ANY};
use super::{check_server_rank, ClientId, Transport};
use crate::error::{CoreError, Result};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{FaultPlan, HoldBack};
use tc_net::{ChildGuard, Connection, Frame, Listener, NetError, SocketSpec};

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
/// Session tag: server publishes its reliability [`Digest`]
/// ([`wire::encode_digest`]) so the driver's quiescence detection and
/// [`Snapshot`] see the whole cluster.
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

/// `from`/`to` value of the driver itself (it is not a rank).
pub const DRIVER_PORT: u32 = u32::MAX;

/// Pick the most-stressed link of a health table: most unacked frames,
/// widest RTO as the tie-break.  The fixed-size [`Digest`] carries this one
/// row.
pub fn most_stressed(health: impl IntoIterator<Item = LinkHealth>) -> Option<LinkHealth> {
    health
        .into_iter()
        .max_by_key(|h| (h.unacked, h.rto, h.peer))
}

/// How a [`super::ClusterBuilder`] should set up the socket backend.
#[derive(Debug, Clone, Default)]
pub struct SocketConfig {
    /// Endpoint the driver listens on.  `None` picks a fresh Unix-domain
    /// socket under the system temp directory.
    pub addr: Option<SocketSpec>,
    /// The server binary to spawn (a `tc-socket-server`-style executable).
    /// `None` falls back to `TC_SOCKET_SERVER_BIN` and then to a sibling of
    /// the current executable.
    pub server_bin: Option<PathBuf>,
    /// Don't spawn the server processes: wait for externally launched
    /// servers to dial in instead.
    pub external: bool,
    /// Self-heal dead server ranks, giving up on a rank after this many
    /// consecutive failed respawn attempts: detect death (socket failure or
    /// ping silence), respawn the process (or await an external rejoin) with
    /// bounded exponential backoff, re-run the handshake, re-deploy AMs,
    /// replay recorded server-memory writes, and replay unacked reliable
    /// frames.  Off (`None`) by default: a dead rank then stays dead and
    /// replays its typed error.
    pub recover: Option<u32>,
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
        for dir in exe.ancestors().skip(1).take(3) {
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
    /// Latest link digest published by the server.
    rel: Digest,
    /// Last instant any frame arrived from this link (liveness baseline).
    last_activity: Instant,
    /// When an outstanding liveness PING was sent, if any.
    ping_sent_at: Option<Instant>,
    /// Consecutive failed respawn attempts since the last heal.
    respawn_attempts: u32,
    /// The respawn budget is spent: the rank stays dead.
    gave_up: bool,
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
            gave_up: false,
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

/// A driver `emit` that queues the client hosts' frames into `out`.
fn frames(out: &mut Vec<Frame>) -> impl EmitFrom + '_ {
    move |from, to, tag, data, payload| {
        out.push(Frame::with_payload(from as u32, to, tag, data, payload))
    }
}

/// The cross-process cluster backend (OS processes + sockets, wall-clock
/// time).
pub struct SocketTransport {
    /// The client ranks, progressed by this driver's pump (the backend is
    /// single-driver: no worker threads).
    driver: Driver,
    links: Vec<ServerLink>,
    listener: Option<Listener>,
    servers: usize,
    /// Fatal link errors waiting to be surfaced from `step`.
    pending_errors: VecDeque<CoreError>,
    /// Held-back frames implementing the chaos engine's delay/reorder.
    held: HoldBack<Frame>,
    delivered: u64,
    dropped: u64,
    shut_down: bool,
    /// Frames read but not yet routed (control round trips intercept their
    /// replies here).
    inbox: VecDeque<Frame>,
    /// The configuration as resolved at startup — the endpoint actually
    /// bound, the server binary actually spawned — kept for respawns.
    config: SocketConfig,
    /// Re-entrancy guard: a heal in progress drives the pump machinery,
    /// which must not start a second heal underneath it.
    healing: bool,
    /// AM names in deploy order, replayed to a healed rank so its handler
    /// ids line up with the cluster's.
    deployed_ams: Vec<String>,
    /// Latest server-memory write per (rank, addr), replayed to a healed
    /// rank to rebuild its data region (e.g. a `PointerTable` shard image).
    /// Only recorded in recovery mode.
    poke_log: std::collections::BTreeMap<(usize, u64), Vec<u8>>,
    /// Connections accepted but not yet through their HELLO (recovery mode).
    rejoining: Vec<Connection>,
    /// Successful heals.
    heals: u64,
    /// The servers' target triple, retained for recovery-mode re-handshakes.
    server_triple: TargetTriple,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("clients", &self.driver.clients())
            .field("servers", &self.servers)
            .field("errors", &self.driver.errors.len())
            .finish()
    }
}

impl SocketTransport {
    /// Start the backend: bind the listener, spawn (or await) `servers`
    /// server processes, run the HELLO/WELCOME handshake with each, and
    /// return once every rank is connected.  What
    /// [`super::ThreadTransport::with_config`] takes, plus the socket setup.
    pub fn connect_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
        mut config: SocketConfig,
    ) -> Result<Self> {
        let driver = Driver::new(clients, servers, client_triple, fault_plan, rel_config);
        let clients = driver.clients();
        let spec = config.addr.clone().unwrap_or_else(default_unix_spec);
        let listener = Listener::bind(&spec)
            .map_err(|e| CoreError::Transport(format!("binding {spec}: {e}")))?;
        let actual = listener
            .local_spec()
            .map_err(|e| CoreError::Transport(e.to_string()))?;

        let mut links: Vec<ServerLink> = (0..servers).map(|_| ServerLink::empty()).collect();
        if !config.external {
            let bin = resolve_server_bin(&config)?;
            for (idx, link) in links.iter_mut().enumerate() {
                let rank = (clients + idx) as u32;
                link.child = Some(
                    tc_net::spawn_server(&bin, &actual, rank)
                        .map_err(|e| CoreError::Transport(e.to_string()))?,
                );
            }
            config.server_bin = Some(bin);
        }
        config.addr = Some(actual);

        let mut transport = SocketTransport {
            driver,
            links,
            listener: Some(listener),
            servers,
            pending_errors: VecDeque::new(),
            held: HoldBack::default(),
            delivered: 0,
            dropped: 0,
            shut_down: false,
            inbox: VecDeque::new(),
            config,
            healing: false,
            deployed_ams: Vec::new(),
            poke_log: std::collections::BTreeMap::new(),
            rejoining: Vec::new(),
            heals: 0,
            server_triple,
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
            let welcomed = wire::decode_hello(hello.data.as_slice())
                .and_then(|wanted| self.free_rank(wanted, startup))
                .and_then(|idx| self.welcome(&mut conn, idx).map(|()| idx));
            match welcomed {
                Ok(idx) => {
                    self.links[idx].conn = Some(conn);
                    self.links[idx].last_activity = Instant::now();
                    self.note(idx, EventKind::Admit);
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
        self.driver.errors.push(e);
        Ok(())
    }

    /// The server index a HELLO asking for rank `wanted` is admitted to.
    fn free_rank(&self, wanted: u32, startup: bool) -> Result<usize> {
        let clients = self.driver.clients();
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
        let clients = self.driver.clients() as u32;
        let rank = clients + idx as u32;
        let welcome = Welcome {
            clients,
            servers: self.servers as u32,
            rank,
            rel: self.driver.link_config(),
            triple: self.server_triple,
        };
        conn.queue(Frame::new(
            DRIVER_PORT,
            rank,
            TAG_WELCOME,
            wire::encode_welcome(&welcome),
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
        &self.driver.errors
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
        let rank = self.driver.clients() + idx;
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
        link.conn = None;
        link.state = LinkState::Dead(err.clone());
        link.ping_sent_at = None;
        link.next_attempt_at = None;
        link.forget_rel();
        self.note(idx, EventKind::PeerLost(err.to_string()));
        if self.config.recover.is_none() {
            self.pending_errors.push_back(err);
        }
    }

    /// Record a state transition of server `idx` in the event ring.
    fn note(&mut self, idx: usize, kind: EventKind) {
        let rank = (self.driver.clients() + idx) as u32;
        self.driver.events.push(Some(rank), kind);
    }

    /// Liveness monitor (recovery mode): ping links that have been silent
    /// past the ping interval, and declare ranks whose PING went unanswered
    /// past the ping timeout dead.
    fn health_check(&mut self) {
        if self.config.recover.is_none() || self.shut_down {
            return;
        }
        let mut timed_out = Vec::new();
        for (idx, link) in self.links.iter_mut().enumerate() {
            let (Some(conn), LinkState::Active) = (link.conn.as_mut(), &link.state) else {
                continue;
            };
            match link.ping_sent_at {
                Some(at) if at.elapsed() >= link::PING_TIMEOUT => timed_out.push(idx),
                None if link.last_activity.elapsed() >= link::PING_INTERVAL => {
                    let nonce = self.driver.token().to_le_bytes().to_vec();
                    let rank = (self.driver.clients() + idx) as u32;
                    conn.queue(Frame::new(DRIVER_PORT, rank, TAG_PING, nonce));
                    link.ping_sent_at = Some(Instant::now());
                }
                _ => {}
            }
        }
        for idx in timed_out {
            let rank = self.driver.clients() + idx;
            self.note(idx, EventKind::PingTimeout);
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
        let ready = !self.shut_down && !self.healing;
        let Some(max_respawns) = self.config.recover.filter(|_| ready) else {
            return;
        };
        self.healing = true;
        self.poll_recovery_inner(max_respawns);
        self.healing = false;
    }

    fn poll_recovery_inner(&mut self, max_respawns: u32) {
        let clients = self.driver.clients();
        // Respawn scheduling (spawn mode only; external servers rejoin on
        // their own schedule).
        if !self.config.external {
            for idx in 0..self.links.len() {
                let link = &mut self.links[idx];
                if !matches!(link.state, LinkState::Dead(_)) || link.gave_up {
                    continue;
                }
                let attempts = link.respawn_attempts;
                let due = link.next_attempt_at.map(|at| Instant::now() >= at);
                if due != Some(false) && attempts >= max_respawns {
                    // Respawn budget exhausted — the rank becomes
                    // terminally failed (surfaced by failed_ranks).
                    link.gave_up = true;
                    link.next_attempt_at = None;
                    self.note(idx, EventKind::RespawnBudgetExhausted);
                    continue;
                }
                match due {
                    None => {
                        let delay = self.recovery_delay(attempts);
                        self.links[idx].next_attempt_at = Some(Instant::now() + delay);
                    }
                    Some(true) => {
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
                        self.note(idx, EventKind::Respawn(attempts + 1));
                        let rank = (clients + idx) as u32;
                        let (Some(bin), Some(spec)) =
                            (self.config.server_bin.as_ref(), self.config.addr.as_ref())
                        else {
                            continue;
                        };
                        match tc_net::spawn_server(bin, spec, rank) {
                            Ok(child) => self.links[idx].child = Some(child),
                            Err(e) => self.driver.errors.push(CoreError::Transport(format!(
                                "respawning server rank {rank}: {e}"
                            ))),
                        }
                    }
                    Some(false) => {}
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
                self.driver.errors.push(e);
            }
        }
    }

    /// Bring a freshly re-handshaken link back into service: rebuild the
    /// reborn process's control-plane state (AM catalog in deploy order,
    /// recorded memory writes), renumber and replay the reliable frames the
    /// driver retained for it, and tell surviving servers to do the same.
    fn heal_link(&mut self, idx: usize) -> Result<()> {
        let clients = self.driver.clients();
        let rank = clients + idx;
        self.note(idx, EventKind::HealStart);
        {
            let link = &mut self.links[idx];
            link.state = LinkState::Active;
            link.gave_up = false;
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
        self.held.forget_node(rank);
        self.driver.replay_to(rank as u32, frames(&mut replay));
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
        let replayed = replay.len() as u64;
        let _ = self.client_emit(replay);
        if self.driver.chaos.is_some() {
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
        self.note(idx, EventKind::HealDone(replayed));
        Ok(())
    }

    /// Queue a frame toward server rank `rank`.  Dead links replay their
    /// typed error.
    fn queue_to_server(&mut self, rank: usize, frame: Frame) -> Result<()> {
        let idx = rank - self.driver.clients();
        match &mut self.links[idx] {
            ServerLink {
                state: LinkState::Dead(err),
                ..
            } => Err(err.clone()),
            ServerLink {
                conn: Some(conn), ..
            } => {
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
        // The link of the server it came from, for the session frames.
        let sender = (frame.from as usize).wrapping_sub(self.driver.clients());
        let sender = self.links.get_mut(sender);
        match frame.tag {
            wire::TAG_OP => {
                if let Err(e) = self.deliver(frame) {
                    self.driver.errors.push(e);
                }
            }
            wire::TAG_ROP | wire::TAG_ACK => self.chaos_route(frame),
            wire::TAG_ERROR => self.driver.errors.push(CoreError::Transport(
                String::from_utf8_lossy(frame.data.as_slice()).into_owned(),
            )),
            TAG_REL_INFO => match (wire::decode_digest(&frame.data), sender) {
                (Ok(digest), Some(link)) => link.rel = digest,
                (Ok(_), None) => {}
                (Err(e), _) => self.driver.errors.push(e),
            },
            TAG_PONG => {
                if let Some(link) = sender {
                    link.ping_sent_at = None;
                    link.last_activity = Instant::now();
                }
            }
            TAG_BYE => {
                if let Some(link) = sender.filter(|l| matches!(l.state, LinkState::Active)) {
                    link.state = LinkState::Closing;
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
        let Some(session) = &self.driver.chaos else {
            self.driver.errors.push(CoreError::Transport(
                "reliable frame without a fault plan".into(),
            ));
            return;
        };
        let src = frame.from as usize;
        let dst = frame.to as usize;
        // Ranks index dense per-link tables (chaos engine, reliable sets):
        // bound them here, where frames from server processes enter.
        let ranks = self.driver.clients() + self.servers;
        if src >= ranks || dst >= ranks {
            self.driver.errors.push(CoreError::Transport(format!(
                "reliable frame between invalid ranks {src} -> {dst}"
            )));
            return;
        }
        let decision = session.decide(src, dst);
        let mut release = Vec::new();
        self.held
            .apply(decision, src, dst, frame, &mut |f| release.push(f));
        for f in release {
            self.route_reliable(f);
        }
    }

    /// Physically move one reliable frame that survived the chaos engine
    /// (which bounded its ranks).
    fn route_reliable(&mut self, frame: Frame) {
        let server = (frame.to as usize).checked_sub(self.driver.clients());
        if self.config.recover.is_some()
            && server.is_some_and(|s| matches!(self.links[s].state, LinkState::Dead(_)))
        {
            // The rank is being healed.  The frame stays buffered in its
            // sender's ReliableSet and is replayed (renumbered) once the
            // link is back; surfacing an error per retransmission would
            // flood the error log for a transient outage.
            return;
        }
        if let Err(e) = self.deliver(frame) {
            self.driver.errors.push(e);
        }
    }

    /// Put the frames the client hosts emitted on their way, in order:
    /// reliable frames and acks through the chaos engine, raw ops straight
    /// out.  They are routed only after the driver's call returns: routing
    /// may release held-back frames into these same hosts.
    fn client_emit(&mut self, out: Vec<Frame>) -> Result<()> {
        let mut result = Ok(());
        for frame in out {
            if frame.tag == wire::TAG_OP {
                result = result.and(self.deliver(frame));
            } else {
                self.chaos_route(frame);
            }
        }
        result
    }

    /// Physically move one data-plane frame to the rank it names.  A server
    /// (a relay, or a client's send) gets it queued on its socket; a rank
    /// beyond the cluster is the fabric drop every backend counts.  A
    /// client's host only stages what became deliverable — the driver's
    /// pass close in [`SocketTransport::drain_inbox`] polls and answers it —
    /// but a duplicate's ack leaves at once, its traversal passing the chaos
    /// engine like any other.
    fn deliver(&mut self, frame: Frame) -> Result<()> {
        let to = frame.to as usize;
        let now = self.driver.now();
        let Some(host) = self.driver.hosts.get_mut(to) else {
            if to >= self.driver.clients() + self.servers {
                self.dropped += 1;
                return Ok(());
            }
            return self.queue_to_server(to, frame);
        };
        let mut ack = Vec::new();
        let emit = |dst, tag, data, payload| {
            ack.push(Frame::with_payload(to as u32, dst, tag, data, payload))
        };
        self.delivered +=
            host.on_frame(frame.from, frame.tag, frame.data, frame.payload, now, emit);
        self.client_emit(ack)
    }

    /// Route everything in the inbox, then have the driver close the pass on
    /// every client — poll and answer what the pass staged, emit the one
    /// pure cumulative ack per (client, server) link that nothing routed has
    /// piggybacked on, run the retransmission timer — and start the writes.
    /// Returns how many frames were routed (a client with operations staged
    /// since the last pass — released by a flush outside it — counts as one).
    fn drain_inbox(&mut self) -> usize {
        let mut routed = 0;
        while let Some(frame) = self.inbox.pop_front() {
            self.route_frame(frame);
            routed += 1;
        }
        let mut out = Vec::new();
        let now = self.driver.now();
        routed += self.driver.close_pass(now, frames(&mut out));
        let _ = self.client_emit(out);
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

    /// Whether server link `link` is in service, being recovered, or lost
    /// for good.  A dead rank is *terminally* failed only once no recovery
    /// can still bring it back: recovery off entirely, or the respawn budget
    /// spent.  (External rejoin mode never gives up, so with recovery on and
    /// spawns off a dead rank is perpetually "recovering", not failed.)
    fn rank_state(&self, link: &ServerLink) -> RankState {
        match link.state {
            LinkState::Dead(_) if self.config.recover.is_none() || link.gave_up => {
                RankState::Failed
            }
            LinkState::Dead(_) => RankState::Recovering,
            LinkState::Active | LinkState::Closing => RankState::Live,
        }
    }
}

impl Transport for SocketTransport {
    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn node_count(&self) -> usize {
        self.servers + self.driver.clients()
    }

    fn client_count(&self) -> usize {
        self.driver.clients()
    }

    fn client(&self, id: ClientId) -> &NodeRuntime {
        self.driver.client(id)
    }

    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        self.driver.client_mut(id)
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        // Server processes deploy the same-named handler from their
        // compiled-in catalog (closures cannot cross a process boundary);
        // clients deploy the closure directly.  Deploy order fixes the
        // handler ids cluster-wide, exactly as on the other backends, so the
        // servers are asked first: they all run one binary with one catalog,
        // and a name it lacks must leave no rank's AM table a handler ahead.
        let clients = self.driver.clients();
        for rank in clients..clients + self.servers {
            let reply = self.control(rank, TAG_AM_DEPLOY, TAG_AM_ACK, name.as_bytes())?;
            if reply != [1] {
                return Err(CoreError::UnknownAmHandler {
                    name: format!("{name} (not in the server-process AM catalog)"),
                });
            }
        }
        self.driver.deploy_am(name, &handler);
        // Remember the catalog (in deploy order — it fixes handler ids) so
        // a healed rank can be brought back to parity.
        self.deployed_ams.push(name.to_string());
        Ok(())
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        let c = self.driver.known(id)?;
        if self.shut_down {
            return Err(CoreError::Transport("socket transport is shut down".into()));
        }
        let mut out = Vec::new();
        self.driver.flush(c, frames(&mut out));
        let flushed = self.client_emit(out);
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
        let step_deadline = started + self.driver.step_timeout;
        let busy_deadline = started + link::BUSY_STEP_TIMEOUT;
        loop {
            self.health_check();
            self.poll_recovery();
            let routed = self.pump_round();
            if let Some(e) = self.pending_errors.pop_front() {
                return Err(e);
            }
            if routed > 0 {
                self.driver.progress();
                return Ok(true);
            }
            let now = Instant::now();
            if now < step_deadline {
                self.poll_pause(started);
                continue;
            }
            // A full step window of silence: the driver's stall rule first.
            let published = self.links.iter().map(|l| l.rel.unacked);
            if let Some(busy) = self.driver.silence(published) {
                return Ok(busy);
            }
            if self.pending_writes_total() > 0 && now < busy_deadline {
                self.poll_pause(started);
                continue;
            }
            return Ok(false);
        }
    }

    fn idle_grace(&self) -> u32 {
        link::IDLE_GRACE
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
        let clients = self.driver.clients();
        check_server_rank(clients, self.servers, rank)?;
        if let (Some(_), wire::TAG_POKE, Some((addr, data))) =
            (self.config.recover, request_tag, wire::split_poke(body))
        {
            // A healed rank is brought back to parity by replaying its
            // recorded memory writes; the latest value per (rank, addr) is
            // enough, replays overwrite.
            self.poke_log.insert((rank, addr), data.to_vec());
        }
        let token = self.driver.token();
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
        let deadline = started + self.driver.control_timeout;
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

    /// The clients' own links, then what each server process last published.
    fn observe(&self) -> Snapshot {
        let clients = self.driver.clients();
        let reliable = self.driver.chaos.is_some();
        let server = |(idx, link): (usize, &ServerLink)| {
            let digest = reliable.then_some(link.rel);
            RankSnapshot::server(clients + idx, self.rank_state(link), digest)
        };
        let servers = self.links.iter().enumerate().map(server);
        Snapshot {
            delivered: self.delivered,
            dropped: self.dropped,
            heals: self.heals,
            ..self.driver.snapshot(self.backend_name(), servers)
        }
    }

    fn failed_ranks(&self) -> Vec<usize> {
        let failed = |l: &ServerLink| self.rank_state(l) == RankState::Failed;
        let ranks = self.links.iter().zip(self.driver.clients()..);
        ranks.filter(|(l, _)| failed(l)).map(|(_, r)| r).collect()
    }

    fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        // Ask every live server to flush and exit.
        for idx in 0..self.links.len() {
            let rank = (self.driver.clients() + idx) as u32;
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
