//! The unified cluster API: one builder, pluggable transports.
//!
//! The paper's claim is that ifuncs move transparently between heterogeneous
//! processing elements.  This module makes the *driving* side equally
//! transparent: a [`Cluster`] owns a client runtime and a set of server
//! runtimes behind a [`Transport`], and the same scenario code runs unchanged
//! on any of the three first-class backends:
//!
//! * [`SimTransport`] — the calibrated discrete-event engine (virtual time,
//!   [`crate::sim::TimingLog`] records, the machinery behind every table and
//!   figure reproduction);
//! * [`ThreadTransport`] — server ranks as real OS threads over inboxes
//!   (wall-clock time, genuine concurrency; no timing model);
//! * [`SocketTransport`] — server ranks as OS processes over TCP/Unix
//!   sockets, [`socket_server`] on their side.
//!
//! Above the backends, the driver plane is single-threaded by type: a
//! [`Cluster`] owns its transport and its one [`ClaimTable`] outright, every
//! method that moves or claims a completion is `&mut self`, and the public
//! waits share one loop whose only quiescence rule is the answer of
//! [`Transport::step`].  Beneath the backends: [`wire`] is the frame
//! codec, [`reliable`] the per-link sequence/ack/retransmit state machine,
//! and the crate-private `link` module the one endpoint that joins the two
//! to a [`NodeRuntime`].  The crate-private `host` module is the one
//! *server rank* on top of it (control as a barrier behind data, replies
//! and acks behind the poll, one pass close) and the one *client rank*
//! (client-to-client traffic as loopback, take-encode-emit as one step, one
//! poll and flush per pass): the threaded server node and the socket server
//! process are carriers over the first, the threaded backend's caller and
//! the socket driver over the second, which also share its one *driver*
//! and keep only their fabric or their connections.  The simulated backend
//! stays on [`reliable`] directly: it is the oracle the others are compared
//! against.  The wall-clock backends' scheduling values are constants of the
//! crate-private `link` module; none is a builder knob.
//!
//! On the driving side a backend answers a handful of primitives — among
//! them one [`Transport::control`] round trip to a server rank and one
//! non-blocking [`Transport::observe`] — and everything an operator reads
//! (node memory, node counters, reliability totals, quiescence inputs, the
//! [`Snapshot`] behind [`Cluster::snapshot`]) is written once, here.
//!
//! ```
//! use tc_core::cluster::ClusterBuilder;
//! use tc_core::{build_ifunc_library, ToolchainOptions};
//! use tc_bitir::{ModuleBuilder, ScalarType, BinOp};
//!
//! // An ifunc: add the payload's first byte to the target counter.
//! let mut mb = ModuleBuilder::new("quick_tsi");
//! {
//!     let mut f = mb.entry_function();
//!     let payload = f.param(0);
//!     let target = f.param(2);
//!     let delta = f.load(ScalarType::U8, payload, 0);
//!     let counter = f.load(ScalarType::U64, target, 0);
//!     let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
//!     f.store(ScalarType::U64, sum, target, 0);
//!     let zero = f.const_i64(0);
//!     f.ret(zero);
//!     f.finish();
//! }
//! let library = build_ifunc_library(&mb.build(), &ToolchainOptions::default()).unwrap();
//!
//! // The same lines drive the simulated or the threaded backend.
//! let mut cluster = ClusterBuilder::new()
//!     .platform(tc_simnet::Platform::thor_bf2())
//!     .servers(2)
//!     .build_sim();
//! let handle = cluster.register_ifunc(library);
//! let msg = cluster.bitcode_message(handle, vec![5]).unwrap();
//! cluster.send_ifunc(&msg, 1).unwrap();
//! cluster.run_until_idle(1_000).unwrap();
//! assert_eq!(cluster.read_u64(1, tc_core::layout::TARGET_REGION_BASE).unwrap(), 5);
//! assert_eq!(cluster.stats(1).unwrap().ifuncs_executed, 1);
//! ```

pub mod completion;
mod host;
mod link;
pub mod reliable;
pub mod sim_transport;
pub mod snapshot;
pub mod socket;
pub mod socket_server;
pub mod thread_transport;
pub mod wire;

pub use completion::{ClaimTable, CompletionSet, CompletionToken, PutHandle, Ready};
pub use link::Digest as LinkDigest;
pub use reliable::{LinkHealth, RelConfig, RelMetrics};
pub use sim_transport::SimTransport;
pub use snapshot::{Event, EventKind, RankSnapshot, RankState, Snapshot};
pub use socket::{SocketConfig, SocketTransport};
pub use socket_server::{serve as serve_socket, ServerOptions};
pub use tc_chaos::{ChaosSession, ChaosStats, FaultPlan, LinkFaults};
pub use tc_net::SocketSpec;
pub use thread_transport::ThreadTransport;

use self::completion::ClaimKey;
use crate::error::{CoreError, Result};
use crate::ifunc::{IfuncHandle, IfuncLibrary, IfuncMessage};
use crate::layout::{result_slot_addr, RESULT_MAILBOX_SLOTS};
use crate::metrics::RuntimeStats;
use crate::runtime::{Completion, NativeAmHandler, NodeRuntime};
use tc_bitir::TargetTriple;
use tc_jit::Memory;
use tc_simnet::Platform;
use tc_ucx::{Bytes, RequestId, WorkerAddr};

/// Which first-class backend a [`ClusterBuilder`] should instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The calibrated discrete-event simulation ([`SimTransport`]).
    Simnet,
    /// Real OS threads and inboxes ([`ThreadTransport`]).
    Threads,
    /// Separate OS processes over TCP/Unix sockets ([`SocketTransport`]).
    Socket,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Simnet => "simnet",
            Backend::Threads => "threads",
            Backend::Socket => "socket",
        })
    }
}

/// Identity of one driver-side client runtime.
///
/// A cluster built with [`ClusterBuilder::clients`]`(C)` hosts `C`
/// independent injection streams: client `i` *is* fabric rank `i` (clients
/// occupy ranks `0..C`, servers ranks `C..C+S`).  Every per-client API —
/// sends, completion claiming, result-slot allocation — is keyed by this id,
/// so two clients can pipeline against the same servers without stealing
/// each other's completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub usize);

impl ClientId {
    /// The primary client (rank 0) — what every single-client wrapper uses.
    pub const PRIMARY: ClientId = ClientId(0);

    /// The client's index (equal to its fabric rank).
    pub fn index(self) -> usize {
        self.0
    }

    /// The client's fabric rank (clients occupy ranks `0..client_count`).
    pub fn rank(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client {}", self.0)
    }
}

/// Counters every transport keeps about the fabric itself (as opposed to the
/// per-node [`RuntimeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportMetrics {
    /// Messages delivered to a destination node.
    pub messages_delivered: u64,
    /// Messages dropped by the fabric (misaddressed rank, stopped node).
    /// Never silently zero: both backends count their drops.
    pub messages_dropped: u64,
    /// Bytes the *client* posted to the fabric.  (Server-side traffic is
    /// backend-shaped — in-process queues vs. channels — so per-node
    /// [`RuntimeStats::bytes_sent`] via [`Transport::node_stats`] is the
    /// comparable per-node measure.)
    pub bytes_sent: u64,
    /// Messages re-sent by the reliable-delivery layer (0 without a fault
    /// plan).
    pub retransmits: u64,
    /// The subset of `retransmits` that repaired a loss on the peer's gap
    /// signal, a round trip after it, instead of waiting for a timeout.
    pub fast_retransmits: u64,
    /// Duplicate arrivals dropped by receiver-side dedup (0 without a
    /// fault plan).
    pub dup_drops: u64,
    /// Faults the chaos engine injected — drops, duplicates, delays,
    /// reorders, partition and crash drops (0 without a fault plan).
    pub faults_injected: u64,
}

/// A pluggable cluster backend: hosts the node runtimes and moves fabric
/// operations between them.
///
/// Implementations provide *mechanism* (where runtimes live, how operations
/// travel, what "time" means); [`Cluster`] provides the uniform *policy* API
/// (sends, typed completion waits, snapshots) on top.
///
/// The methods up to [`Transport::shutdown`] are the **primitives** a
/// backend answers.  Everything after it is **provided**: written once, here,
/// in terms of the primitives, and overridden by no backend.
pub trait Transport {
    /// Short backend name for diagnostics ("simnet", "threads").
    fn backend_name(&self) -> &'static str;

    /// Number of nodes including the clients (ranks `0..client_count()`).
    fn node_count(&self) -> usize;

    /// Number of driver-side client runtimes (ranks `0..client_count()`).
    /// Single-client transports keep the default of 1.
    fn client_count(&self) -> usize {
        1
    }

    /// A client runtime.  Every backend keeps its client runtimes on the
    /// driving thread, so this is a plain borrow of the transport.
    fn client(&self, id: ClientId) -> &NodeRuntime;

    /// Mutable client runtime.
    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime;

    /// Predeploy a native Active-Message handler on every node, assigning
    /// consistent handler ids cluster-wide.  The wall-clock backends ask every
    /// server first, with a [`wire::TAG_AM_DEPLOY`] control request served
    /// behind the data already flushed toward it, then deploy on the clients;
    /// the simulated backend deploys in place.
    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()>;

    /// Pick up operations client `id` has posted and move them into the
    /// fabric.  The socket driver writes only to a server that has answered
    /// its last write and leaves the rest to the caller's next progress call
    /// ([`SocketTransport`]'s `flush_client` has the rule and its limits).
    fn flush_client(&mut self, id: ClientId) -> Result<()>;

    /// Advance the transport by one unit of progress (one simulated event,
    /// or one pass over a burst of received envelopes).  Returns `false`
    /// when nothing happened — the queue was empty or the poll timed out —
    /// *and* nothing is owed: a backend whose reliable layer still holds
    /// unacked frames keeps answering `true` until its stall horizon, so
    /// `false` is the whole quiescence signal the wait loop needs.
    fn step(&mut self) -> Result<bool>;

    /// One control-plane round trip to *server* rank `rank`: send `body`
    /// under `request_tag` (one of the [`wire`] control tags) and return the
    /// body of the [`wire::TAG_REPLY`] that carries the request's token.  The
    /// request queues behind everything already flushed toward that rank, so
    /// it doubles as a barrier behind the data plane.  A rank that is not a
    /// server is a typed error.
    fn control(&mut self, rank: usize, request_tag: u64, body: &[u8]) -> Result<Vec<u8>>;

    /// Everything this backend knows about its cluster right now, from
    /// state the driver already holds: no control round trip, no waiting (a
    /// server rank may be dead or mid-heal).  Server [`RuntimeStats`] are not
    /// in it: they are [`Transport::node_stats`], a barrier read.
    fn observe(&self) -> Snapshot;

    /// Ranks whose links have failed *terminally* — the peer is dead and no
    /// recovery is pending (either self-healing is off, or its respawn
    /// budget is exhausted).  Ops pinned to such a rank can never complete;
    /// `wait_any` surfaces them as [`Ready::PeerLost`] instead of riding to
    /// the quiescence timeout.  Empty for in-process backends, which cannot
    /// lose a peer.
    fn failed_ranks(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Tear the backend down (join threads).  Idempotent; the default is a
    /// no-op for in-process backends.
    fn shutdown(&mut self) {}

    // --- provided: the driver's control and observation plane ---------------

    /// Drain completions (GET results, X-RDMA results, confirmed-PUT acks)
    /// that reached client `id`.
    fn take_completions(&mut self, id: ClientId) -> Vec<Completion> {
        self.client_mut(id).take_completions()
    }

    /// Read `len` bytes at `addr` from node `rank`'s memory.
    fn read_memory(&mut self, rank: usize, addr: u64, len: usize) -> Result<Vec<u8>> {
        let failed = || {
            CoreError::Transport(format!(
                "peek of {len} bytes at {addr:#x} on rank {rank} failed"
            ))
        };
        if rank < self.client_count() {
            return wire::peek(self.client(ClientId(rank)), addr, len as u64).ok_or_else(failed);
        }
        let body = [addr.to_le_bytes(), (len as u64).to_le_bytes()].concat();
        let reply = self.control(rank, wire::TAG_PEEK, &body)?;
        // A failed peek answers with an empty body.
        if reply.len() != len {
            return Err(failed());
        }
        Ok(reply)
    }

    /// Write into node `rank`'s memory (scenario setup: seeding counters,
    /// installing data shards).
    fn write_memory(&mut self, rank: usize, addr: u64, data: &[u8]) -> Result<()> {
        let ok = if rank < self.client_count() {
            let client = self.client_mut(ClientId(rank));
            client.memory.write(addr, data).is_ok()
        } else {
            let body = [&addr.to_le_bytes()[..], data].concat();
            self.control(rank, wire::TAG_POKE, &body)? == [1]
        };
        if !ok {
            return Err(CoreError::Transport(format!(
                "poke of {} bytes at {addr:#x} on rank {rank} failed",
                data.len()
            )));
        }
        Ok(())
    }

    /// Snapshot node `rank`'s runtime counters.
    fn node_stats(&mut self, rank: usize) -> Result<RuntimeStats> {
        if rank < self.client_count() {
            return Ok(self.client(ClientId(rank)).stats);
        }
        let reply = self.control(rank, wire::TAG_STATS, &[])?;
        wire::decode_stats(&reply)
    }

    /// Messages the reliable-delivery layer still holds unacknowledged,
    /// summed across all nodes (0 without a fault plan).  While it is
    /// non-zero a wall-clock backend's `step` (which sums the same digests
    /// in place) never reports idle before the stall horizon.
    fn unacked_total(&self) -> u64 {
        let ranks = self.observe().ranks;
        ranks.iter().filter_map(|r| Some(r.digest?.unacked)).sum()
    }

    /// Reliability counters of one node — retransmits, dup drops,
    /// out-of-order parks (`None` without a fault plan).
    fn node_reliability(&self, rank: usize) -> Option<RelMetrics> {
        Some(self.observe().ranks.get(rank)?.digest?.metrics)
    }

    /// Per-link reliability health rows as `(owning rank, health)` pairs:
    /// SRTT/RTTVAR estimate, current RTO, unacked frames, consecutive silent
    /// backoff rounds ([`RankSnapshot::links`] of every rank).  Empty without
    /// a fault plan (the reliable layer is what keeps the estimators).
    fn link_health(&self) -> Vec<(u32, LinkHealth)> {
        let ranks = self.observe().ranks;
        let rows = |r: RankSnapshot| r.links.into_iter().map(move |h| (r.rank, h));
        ranks.into_iter().flat_map(rows).collect()
    }

    /// Fabric-level counters (deliveries, drops, bytes, reliability and
    /// fault totals): [`Snapshot::totals`].
    fn metrics(&self) -> TransportMetrics {
        self.observe().totals()
    }
}

/// `rank` must be a server's: the check every backend's
/// [`Transport::control`] starts with (and socket admission, for the rank a
/// HELLO asks for).
pub(crate) fn check_server_rank(clients: usize, servers: usize, rank: usize) -> Result<()> {
    if rank < clients || rank >= clients + servers {
        return Err(CoreError::Transport(format!(
            "rank {rank} is not a server rank ({clients}..{} expected)",
            clients + servers
        )));
    }
    Ok(())
}

impl Transport for Box<dyn Transport> {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn client_count(&self) -> usize {
        (**self).client_count()
    }
    fn client(&self, id: ClientId) -> &NodeRuntime {
        (**self).client(id)
    }
    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        (**self).client_mut(id)
    }
    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        (**self).deploy_am(name, handler)
    }
    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        (**self).flush_client(id)
    }
    fn step(&mut self) -> Result<bool> {
        (**self).step()
    }
    fn control(&mut self, rank: usize, request_tag: u64, body: &[u8]) -> Result<Vec<u8>> {
        (**self).control(rank, request_tag, body)
    }
    fn observe(&self) -> Snapshot {
        (**self).observe()
    }
    fn failed_ranks(&self) -> Vec<usize> {
        (**self).failed_ranks()
    }
    fn shutdown(&mut self) {
        (**self).shutdown()
    }
}

/// A handle that can be waited on through [`Cluster::wait`], claiming a typed
/// value from the cluster's [`ClaimTable`].  A handle names its client, so
/// one that names a client the cluster does not have simply never finds a
/// completion.
pub trait CompletionHandle {
    /// What the completed operation yields.
    type Output;

    /// Remove and return this handle's completion from the table, if
    /// present.
    fn try_claim(&self, claims: &mut ClaimTable) -> Option<Self::Output>;

    /// Human-readable description for timeout errors.
    fn describe(&self) -> String;
}

/// Typed handle for a posted one-sided GET; waiting yields the fetched bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetHandle {
    client: ClientId,
    request: RequestId,
    /// The server rank the GET targets — pins the handle to a peer so
    /// `wait_any` can fail it fast when that peer is lost.
    target: usize,
}

impl GetHandle {
    /// The underlying request id.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// The client the GET was posted from (and whose completion stream the
    /// reply arrives on).  Request ids are per-client, so routing needs both.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The server rank this GET targets.
    pub fn target(&self) -> usize {
        self.target
    }
}

impl CompletionHandle for GetHandle {
    type Output = Bytes;

    fn try_claim(&self, claims: &mut ClaimTable) -> Option<Bytes> {
        claims.claim_get(self.client, self.request)
    }

    fn describe(&self) -> String {
        ClaimKey::Get(self.client, self.request.0).describe()
    }
}

/// Typed handle for an X-RDMA result mailbox slot; waiting yields the result
/// value an ifunc returned with `tc_return_result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultHandle {
    client: ClientId,
    slot: u64,
}

impl ResultHandle {
    /// A handle for an explicitly chosen mailbox slot on the primary client
    /// (see [`ResultHandle::for_client_slot`] for other clients).
    ///
    /// **Contract:** slots named this way share the one per-client mailbox
    /// with slots handed out by [`Cluster::result_slot`].  To keep the
    /// allocator from colliding with a manually chosen slot, reserve it
    /// first with [`Cluster::reserve_result_slot`] (which also returns the
    /// handle) — the allocator then skips it.  Unreserved manual slots are
    /// only safe if the driver never calls `result_slot()`.
    ///
    /// A slot names a mailbox slot modulo [`RESULT_MAILBOX_SLOTS`], as its
    /// [`mailbox_addr`](ResultHandle::mailbox_addr) does.
    pub fn for_slot(slot: u64) -> Self {
        Self::for_client_slot(ClientId::PRIMARY, slot)
    }

    /// A handle for an explicitly chosen mailbox slot on client `client`
    /// (modulo [`RESULT_MAILBOX_SLOTS`]).  Each client owns an independent
    /// mailbox, so equal slot numbers on different clients never collide.
    pub fn for_client_slot(client: ClientId, slot: u64) -> Self {
        ResultHandle {
            client,
            slot: slot % RESULT_MAILBOX_SLOTS,
        }
    }

    /// The mailbox slot this handle waits on (encode it into the ifunc
    /// payload so the remote side knows where to deliver).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The client whose mailbox the result arrives in.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Address of the slot in the owning client's result mailbox.
    pub fn mailbox_addr(&self) -> u64 {
        result_slot_addr(self.slot)
    }
}

impl CompletionHandle for ResultHandle {
    type Output = u64;

    fn try_claim(&self, claims: &mut ClaimTable) -> Option<u64> {
        claims.claim_result(self.client, self.slot)
    }

    fn describe(&self) -> String {
        ClaimKey::Result(self.client, self.slot).describe()
    }
}

/// One client's result-slot allocator: a wrapping cursor over its mailbox
/// and the slots a driver reserved for handles it names itself.
#[derive(Debug, Default, Clone)]
struct SlotAllocator {
    next: u64,
    reserved: std::collections::HashSet<u64>,
}

impl SlotAllocator {
    fn allocate(&mut self) -> u64 {
        // Bounded: a fully reserved mailbox yields the cursor's slot rather
        // than spinning.
        for _ in 0..RESULT_MAILBOX_SLOTS {
            if !self.reserved.contains(&self.next) {
                break;
            }
            self.next = (self.next + 1) % RESULT_MAILBOX_SLOTS;
        }
        let slot = self.next;
        self.next = (slot + 1) % RESULT_MAILBOX_SLOTS;
        slot
    }
}

fn no_such_client(client: ClientId) -> CoreError {
    CoreError::Transport(format!("no client with id {client}"))
}

/// A heterogeneous cluster driven through a pluggable [`Transport`].
///
/// Ranks `0..client_count()` are driver-side clients; ranks
/// `client_count()..node_count()` are servers.  All sends originate at a
/// client (servers communicate through ifunc follow-on actions), completions
/// surface as typed handles routed to the posting client, and node state is
/// read back through the transport so the same scenario runs on any backend.
/// Single-client clusters (the default) keep the historical layout: client
/// at rank 0, servers at ranks `1..=server_count()`.
pub struct Cluster<T: Transport> {
    transport: T,
    /// The completion table, fed from [`Transport::take_completions`] by
    /// every wait and claim.  Owned outright: only `&mut self` methods reach
    /// it, so the borrow checker is its one guard.
    claims: ClaimTable,
    /// Result-slot allocators, indexed by client id; client 0 always has one.
    slots: Vec<SlotAllocator>,
}

impl<T: Transport> std::fmt::Debug for Cluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("backend", &self.transport.backend_name())
            .field("nodes", &self.transport.node_count())
            .field("pending_completions", &self.claims.len())
            .finish()
    }
}

impl<T: Transport> Cluster<T> {
    /// Wrap an already-constructed transport.  Prefer [`ClusterBuilder`].
    pub fn new(transport: T) -> Self {
        let clients = transport.client_count().max(1);
        Cluster {
            transport,
            claims: ClaimTable::default(),
            slots: vec![SlotAllocator::default(); clients],
        }
    }

    /// The underlying transport (backend-specific inspection: timing logs,
    /// virtual time, thread metrics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Short backend name ("simnet", "threads").
    pub fn backend_name(&self) -> &'static str {
        self.transport.backend_name()
    }

    /// Number of nodes including the clients.
    pub fn node_count(&self) -> usize {
        self.transport.node_count()
    }

    /// Number of driver-side client runtimes (ranks `0..client_count()`).
    pub fn client_count(&self) -> usize {
        self.transport.client_count()
    }

    /// Number of server nodes.
    pub fn server_count(&self) -> usize {
        self.transport.node_count() - self.transport.client_count()
    }

    /// Fabric rank of the first server (servers occupy ranks
    /// `first_server_rank()..node_count()`; 1 on a single-client cluster).
    pub fn first_server_rank(&self) -> usize {
        self.transport.client_count()
    }

    /// Fabric rank of server `idx` (0-based server index).  Use this instead
    /// of `idx + 1` — server ranks start *after* the client ranks.
    pub fn server_rank(&self, idx: usize) -> usize {
        self.transport.client_count() + idx
    }

    /// The primary client's runtime.
    pub fn client(&self) -> &NodeRuntime {
        self.transport.client(ClientId::PRIMARY)
    }

    /// Mutable primary-client runtime (escape hatch for source-side
    /// operations the high-level API does not cover).
    pub fn client_mut(&mut self) -> &mut NodeRuntime {
        self.transport.client_mut(ClientId::PRIMARY)
    }

    /// The runtime of client `id`.  A client this cluster does not have is
    /// the typed error every per-client method returns.
    pub fn client_runtime(&self, id: ClientId) -> Result<&NodeRuntime> {
        if id.0 >= self.transport.client_count() {
            return Err(no_such_client(id));
        }
        Ok(self.transport.client(id))
    }

    /// [`Cluster::client_runtime`], mutable.
    fn client_runtime_mut(&mut self, id: ClientId) -> Result<&mut NodeRuntime> {
        self.client_runtime(id)?;
        Ok(self.transport.client_mut(id))
    }

    // --- scenario setup -----------------------------------------------------

    /// Register an ifunc library on the primary client, returning its handle.
    pub fn register_ifunc(&mut self, library: IfuncLibrary) -> IfuncHandle {
        self.client_mut().register_library(library)
    }

    /// Register an ifunc library on client `client`.  Handles are
    /// per-runtime: a library meant to be sent by several clients must be
    /// registered on each.
    pub fn register_ifunc_on(
        &mut self,
        client: ClientId,
        library: IfuncLibrary,
    ) -> Result<IfuncHandle> {
        Ok(self.client_runtime_mut(client)?.register_library(library))
    }

    /// Create a bitcode-representation message for a library registered on
    /// the primary client.
    pub fn bitcode_message(&self, handle: IfuncHandle, payload: Vec<u8>) -> Result<IfuncMessage> {
        self.bitcode_message_on(ClientId::PRIMARY, handle, payload)
    }

    /// Create a bitcode-representation message for a library registered on
    /// client `client`.
    pub fn bitcode_message_on(
        &self,
        client: ClientId,
        handle: IfuncHandle,
        payload: Vec<u8>,
    ) -> Result<IfuncMessage> {
        self.client_runtime(client)?
            .create_bitcode_message(handle, payload)
    }

    /// Create a binary-representation message targeted at a triple (primary
    /// client).
    pub fn binary_message(
        &self,
        handle: IfuncHandle,
        target_triple: &str,
        payload: Vec<u8>,
    ) -> Result<IfuncMessage> {
        self.binary_message_on(ClientId::PRIMARY, handle, target_triple, payload)
    }

    /// Create a binary-representation message for a library registered on
    /// client `client`.
    pub fn binary_message_on(
        &self,
        client: ClientId,
        handle: IfuncHandle,
        target_triple: &str,
        payload: Vec<u8>,
    ) -> Result<IfuncMessage> {
        self.client_runtime(client)?
            .create_binary_message(handle, target_triple, payload)
    }

    /// Predeploy a native Active-Message handler on every node (the AM
    /// baseline requires code presence everywhere).
    pub fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        self.transport.deploy_am(name, handler)
    }

    /// Write a u64 into a node's memory (seed counters, install tables).
    pub fn write_u64(&mut self, rank: usize, addr: u64, value: u64) -> Result<()> {
        self.write_memory(rank, addr, &value.to_le_bytes())
    }

    /// Write bytes into a node's memory.
    pub fn write_memory(&mut self, rank: usize, addr: u64, data: &[u8]) -> Result<()> {
        self.transport.write_memory(rank, addr, data)
    }

    // --- sends --------------------------------------------------------------

    /// Send an ifunc message from the primary client to server `dst`,
    /// applying the sender-side code cache.  Returns the bytes that actually
    /// travelled.
    pub fn send_ifunc(&mut self, message: &IfuncMessage, dst: usize) -> Result<usize> {
        self.send_ifunc_from(ClientId::PRIMARY, message, dst)
    }

    /// Send an ifunc message from client `client` to server `dst`.  Each
    /// client keeps its own sender-side code cache, so the first send per
    /// (client, destination) ships the code.
    pub fn send_ifunc_from(
        &mut self,
        client: ClientId,
        message: &IfuncMessage,
        dst: usize,
    ) -> Result<usize> {
        let runtime = self.client_runtime_mut(client)?;
        let bytes = runtime.send_ifunc(message, WorkerAddr(dst as u32));
        self.transport.flush_client(client)?;
        Ok(bytes)
    }

    /// Send an Active Message from the primary client to a predeployed
    /// handler on `dst`.
    pub fn send_am(
        &mut self,
        handler: &str,
        dst: usize,
        payload: impl Into<Bytes>,
    ) -> Result<usize> {
        self.send_am_from(ClientId::PRIMARY, handler, dst, payload)
    }

    /// Send an Active Message from client `client`.
    pub fn send_am_from(
        &mut self,
        client: ClientId,
        handler: &str,
        dst: usize,
        payload: impl Into<Bytes>,
    ) -> Result<usize> {
        let runtime = self.client_runtime_mut(client)?;
        let size = runtime.send_am(handler, WorkerAddr(dst as u32), payload)?;
        self.transport.flush_client(client)?;
        Ok(size)
    }

    /// Post a one-sided PUT into `dst`'s memory from the primary client.
    /// PUTs have no completion event in this model; the returned id
    /// identifies the posted request.  Passing a [`Bytes`] view makes the
    /// post zero-copy end to end.
    pub fn put(&mut self, dst: usize, addr: u64, data: impl Into<Bytes>) -> Result<RequestId> {
        self.put_from(ClientId::PRIMARY, dst, addr, data)
    }

    /// Post a one-sided PUT from client `client`.
    pub fn put_from(
        &mut self,
        client: ClientId,
        dst: usize,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> Result<RequestId> {
        let runtime = self.client_runtime_mut(client)?;
        let request = runtime.post_put(WorkerAddr(dst as u32), addr, data);
        self.transport.flush_client(client)?;
        Ok(request)
    }

    /// Post a *confirmed* one-sided PUT into `dst`'s memory from the primary
    /// client: the destination applies the write and acknowledges it through
    /// the transport.  Wait on the returned [`PutHandle`] (or register it in
    /// a [`CompletionSet`]) for transport-confirmed delivery.
    pub fn put_confirmed(
        &mut self,
        dst: usize,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> Result<PutHandle> {
        self.put_confirmed_from(ClientId::PRIMARY, dst, addr, data)
    }

    /// Post a confirmed PUT from client `client`.
    pub fn put_confirmed_from(
        &mut self,
        client: ClientId,
        dst: usize,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> Result<PutHandle> {
        let handle = self.post_put_confirmed_from(client, dst, addr, data)?;
        self.transport.flush_client(client)?;
        Ok(handle)
    }

    /// Post a one-sided GET against `dst` from the primary client, returning
    /// a typed handle to wait on with [`Cluster::wait`].
    pub fn get(&mut self, dst: usize, addr: u64, len: u64) -> Result<GetHandle> {
        self.get_from(ClientId::PRIMARY, dst, addr, len)
    }

    /// Post (and flush) a one-sided GET from client `client`.
    pub fn get_from(
        &mut self,
        client: ClientId,
        dst: usize,
        addr: u64,
        len: u64,
    ) -> Result<GetHandle> {
        let handle = self.post_get_from(client, dst, addr, len)?;
        self.transport.flush_client(client)?;
        Ok(handle)
    }

    /// Post a one-sided GET *without* flushing it into the fabric.  A
    /// pipelined driver filling a deep window posts the whole burst, then
    /// calls [`Cluster::flush`] once — paying the fabric hand-off per batch
    /// instead of per operation.
    pub fn post_get(&mut self, dst: usize, addr: u64, len: u64) -> GetHandle {
        let client = self.client_mut();
        let request = client.post_get(WorkerAddr(dst as u32), addr, len);
        GetHandle {
            client: ClientId::PRIMARY,
            request,
            target: dst,
        }
    }

    /// Post a one-sided GET from client `client` without flushing.
    pub fn post_get_from(
        &mut self,
        client: ClientId,
        dst: usize,
        addr: u64,
        len: u64,
    ) -> Result<GetHandle> {
        let runtime = self.client_runtime_mut(client)?;
        let request = runtime.post_get(WorkerAddr(dst as u32), addr, len);
        Ok(GetHandle {
            client,
            request,
            target: dst,
        })
    }

    /// Post a confirmed PUT *without* flushing (see [`Cluster::post_get`]).
    pub fn post_put_confirmed(
        &mut self,
        dst: usize,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> PutHandle {
        let client = self.client_mut();
        let request = client.post_put_confirmed(WorkerAddr(dst as u32), addr, data);
        PutHandle {
            client: ClientId::PRIMARY,
            request,
            target: dst,
        }
    }

    /// Post a confirmed PUT from client `client` without flushing.
    pub fn post_put_confirmed_from(
        &mut self,
        client: ClientId,
        dst: usize,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> Result<PutHandle> {
        let runtime = self.client_runtime_mut(client)?;
        let request = runtime.post_put_confirmed(WorkerAddr(dst as u32), addr, data);
        Ok(PutHandle {
            client,
            request,
            target: dst,
        })
    }

    /// Move everything the primary client posted-but-unflushed into the
    /// fabric (the batch counterpart of the auto-flush in [`Cluster::get`] /
    /// [`Cluster::put`]).
    pub fn flush(&mut self) -> Result<()> {
        self.transport.flush_client(ClientId::PRIMARY)
    }

    /// Flush client `client`'s posted-but-unflushed operations.
    pub fn flush_from(&mut self, client: ClientId) -> Result<()> {
        self.transport.flush_client(client)
    }

    /// Flush every client's staged operations (multi-client drivers that
    /// post across several clients before driving the transport).
    pub fn flush_all(&mut self) -> Result<()> {
        for c in 0..self.transport.client_count() {
            self.transport.flush_client(ClientId(c))?;
        }
        Ok(())
    }

    /// Allocate an X-RDMA result-mailbox slot on the primary client.
    /// Encode [`ResultHandle::slot`] into the ifunc payload, send, then
    /// [`Cluster::wait`] on the handle.  Slots reserved through
    /// [`Cluster::reserve_result_slot`] are skipped, so manually constructed
    /// handles never collide with allocated ones.
    ///
    /// **Contract (claimed before reuse):** the mailbox has
    /// [`RESULT_MAILBOX_SLOTS`] slots and the allocator wraps, so a slot is
    /// handed out again after that many allocations.  A handle must have
    /// been claimed (waited on) by then; an unclaimed result still sitting
    /// in a reused slot would resolve the newer handle.
    pub fn result_slot(&mut self) -> ResultHandle {
        ResultHandle::for_slot(self.slots[0].allocate())
    }

    /// Allocate a result-mailbox slot on client `client`.  Allocators are
    /// per-client: each client owns an independent mailbox, so two clients
    /// receiving results into equal slot numbers never interfere.  A client
    /// this cluster does not have is the typed error [`Cluster::flush_from`]
    /// gives.
    pub fn result_slot_on(&mut self, client: ClientId) -> Result<ResultHandle> {
        let slots = self.slots.get_mut(client.0);
        let slot = slots.ok_or_else(|| no_such_client(client))?.allocate();
        Ok(ResultHandle { client, slot })
    }

    /// Reserve an explicitly chosen mailbox slot on the primary client,
    /// returning its handle.  The [`Cluster::result_slot`] allocator will
    /// never hand out a reserved slot, which is the safe way to mix manual
    /// ([`ResultHandle::for_slot`]) and allocated slots in one driver.
    pub fn reserve_result_slot(&mut self, slot: u64) -> ResultHandle {
        let handle = ResultHandle::for_slot(slot);
        self.slots[0].reserved.insert(handle.slot);
        handle
    }

    /// Reserve an explicitly chosen mailbox slot on client `client`.
    /// Reservations are per-client and never affect another client's
    /// allocator; an unknown client fails as in [`Cluster::result_slot_on`].
    pub fn reserve_result_slot_on(&mut self, client: ClientId, slot: u64) -> Result<ResultHandle> {
        let slots = self.slots.get_mut(client.0);
        let reserved = &mut slots.ok_or_else(|| no_such_client(client))?.reserved;
        let handle = ResultHandle::for_client_slot(client, slot);
        reserved.insert(handle.slot);
        Ok(handle)
    }

    // --- completion and progress --------------------------------------------

    fn absorb_completions(&mut self) {
        for c in 0..self.transport.client_count() {
            let client = ClientId(c);
            let completions = self.transport.take_completions(client);
            if !completions.is_empty() {
                self.claims.absorb(client, completions);
            }
        }
    }

    /// The one wait loop under [`Cluster::wait`], [`Cluster::wait_any`] and
    /// [`Cluster::run_until_idle`]: ask `check` (which absorbs and claims
    /// whatever its caller is after), then step the transport, until `check`
    /// answers, `max_steps` steps have made progress, or two steps in a row
    /// made none.  Returns `check`'s answer, if any, and the progress steps
    /// taken.
    ///
    /// An idle step is the only quiescence signal: how long unacked frames
    /// keep a wait alive is decided inside each backend's `step` (the
    /// simulator's retransmission tick is an event; the wall-clock backends
    /// report progress up to their stall horizon).  The second idle step is
    /// the wall-clock backends' grace for work mid-flight on a server thread
    /// or process; on the simulator it pops nothing either.
    fn drive<R>(
        &mut self,
        max_steps: u64,
        mut check: impl FnMut(&mut Self) -> Option<R>,
    ) -> Result<(Option<R>, u64)> {
        let (mut steps, mut idle) = (0u64, 0u32);
        loop {
            let found = check(self);
            if found.is_some() || steps >= max_steps || idle >= link::IDLE_GRACE {
                return Ok((found, steps));
            }
            if self.transport.step()? {
                steps += 1;
                idle = 0;
            } else {
                idle += 1;
            }
        }
    }

    /// Drive the transport until `handle`'s completion arrives, returning its
    /// typed value.  Gives up with [`CoreError::WaitTimeout`] once the
    /// transport stays quiescent for its grace period — and a backend whose
    /// reliable-delivery layer still holds unacked frames does not report
    /// quiescence before its stall horizon, so a silent-but-retransmitting
    /// link under a fault plan is never mistaken for idle.
    pub fn wait<H: CompletionHandle>(&mut self, handle: &H) -> Result<H::Output> {
        let (claimed, _) = self.drive(u64::MAX, |cluster| cluster.try_claim(handle))?;
        claimed.ok_or_else(|| CoreError::WaitTimeout {
            what: handle.describe(),
        })
    }

    /// Check for `handle`'s completion without driving the transport.
    pub fn try_claim<H: CompletionHandle>(&mut self, handle: &H) -> Option<H::Output> {
        self.absorb_completions();
        handle.try_claim(&mut self.claims)
    }

    /// Drive the transport until any handle registered in `set` resolves,
    /// and remove that registration from the set.  A wait ends one of three
    /// ways: a completion arrives (the earliest arrival wins); a handle
    /// pinned to a terminally failed rank resolves as [`Ready::PeerLost`];
    /// or the transport goes quiescent first, and the wait fails with
    /// [`CoreError::WaitTimeout`], leaving every registration in place.
    pub fn wait_any(&mut self, set: &mut CompletionSet) -> Result<(CompletionToken, Ready)> {
        if set.is_empty() {
            return Err(CoreError::WaitTimeout {
                what: "wait_any on an empty completion set".into(),
            });
        }
        let (resolved, _) = self.drive(u64::MAX, |cluster| cluster.poll_any(set))?;
        resolved.ok_or_else(|| CoreError::WaitTimeout {
            what: set.describe(),
        })
    }

    /// Drive the transport until every registration in `set` has resolved,
    /// returning `(token, outcome)` pairs in resolution order.
    pub fn wait_all(&mut self, set: &mut CompletionSet) -> Result<Vec<(CompletionToken, Ready)>> {
        let mut out = Vec::with_capacity(set.len());
        while !set.is_empty() {
            out.push(self.wait_any(set)?);
        }
        Ok(out)
    }

    /// Non-blocking check of `set`: absorbs pending completions and resolves
    /// at most one registration — ready completion first, then a handle
    /// whose peer is lost — without driving the transport.
    pub fn poll_any(&mut self, set: &mut CompletionSet) -> Option<(CompletionToken, Ready)> {
        self.absorb_completions();
        if let Some(ready) = set.claim_earliest(&mut self.claims) {
            return Some(ready);
        }
        // A handle pinned to a terminally failed rank can never complete;
        // fail it fast instead of riding to the quiescence timeout.  (A
        // rank mid-recovery is not in `failed_ranks`.)
        let failed = self.transport.failed_ranks();
        if failed.is_empty() {
            return None;
        }
        let (token, rank) = set.take_peer_lost(&failed)?;
        Some((token, Ready::PeerLost(rank as u32)))
    }

    /// Number of arrived-but-unclaimed completions buffered client-side.
    pub fn pending_completions(&self) -> usize {
        self.claims.len()
    }

    /// Drive the transport until it goes quiescent or `max_steps` progress
    /// steps have been made.  Returns the number of steps taken.
    pub fn run_until_idle(&mut self, max_steps: u64) -> Result<u64> {
        let (_, steps) = self.drive(max_steps, |_| None::<()>)?;
        Ok(steps)
    }

    // --- observation --------------------------------------------------------

    /// Read a u64 from a node's memory through the transport.  A transport
    /// that yields fewer than 8 bytes produces a typed
    /// [`CoreError::ShortRead`] instead of a panic.
    pub fn read_u64(&mut self, rank: usize, addr: u64) -> Result<u64> {
        let bytes = self.transport.read_memory(rank, addr, 8)?;
        let bytes8: [u8; 8] =
            bytes
                .get(..8)
                .and_then(|s| s.try_into().ok())
                .ok_or(CoreError::ShortRead {
                    rank,
                    addr,
                    wanted: 8,
                    got: bytes.len(),
                })?;
        Ok(u64::from_le_bytes(bytes8))
    }

    /// Read bytes from a node's memory through the transport.
    pub fn read_memory(&mut self, rank: usize, addr: u64, len: usize) -> Result<Vec<u8>> {
        self.transport.read_memory(rank, addr, len)
    }

    /// Snapshot a node's runtime counters through the transport.
    pub fn stats(&mut self, rank: usize) -> Result<RuntimeStats> {
        self.transport.node_stats(rank)
    }

    /// Fabric-level metrics (deliveries, drops, bytes).
    pub fn metrics(&self) -> TransportMetrics {
        self.transport.metrics()
    }

    /// What the cluster knows about itself right now, without asking any
    /// rank ([`Transport::observe`] plus the pending-claim count); `{}` dumps it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            pending_claims: self.claims.len(),
            ..self.transport.observe()
        }
    }

    /// [`Transport::link_health`]: the snapshot's per-link rows, flattened.
    /// Render with `report::render_link_health` for the operator's table.
    pub fn link_health(&self) -> Vec<(u32, LinkHealth)> {
        self.transport.link_health()
    }

    /// Tear the cluster down, returning the transport for post-mortem
    /// inspection.
    pub fn shutdown(mut self) -> T {
        self.transport.shutdown();
        self.transport
    }

    /// Unwrap into the transport *without* shutting it down (re-wrapping,
    /// boxing).  Any buffered completions are dropped.
    pub fn into_transport(self) -> T {
        self.transport
    }
}

/// Builder for a [`Cluster`]: platform, node count, faults, backend.
///
/// The platform provides the fabric/CPU calibration for the simulated
/// backend and the client and server target triples for every backend.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    platform: Platform,
    clients: usize,
    servers: usize,
    fault_plan: Option<tc_chaos::FaultPlan>,
    rel_config: Option<RelConfig>,
    socket: socket::SocketConfig,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// A builder for the Thor Xeon+BF2 platform with one server.
    pub fn new() -> Self {
        ClusterBuilder {
            platform: Platform::thor_bf2(),
            clients: 1,
            servers: 1,
            fault_plan: None,
            rel_config: None,
            socket: socket::SocketConfig::default(),
        }
    }

    /// Number of driver-side client runtimes (at least 1).  Clients occupy
    /// ranks `0..n`, servers ranks `n..n+servers`; each client injects an
    /// independent operation stream with its own completion routing.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Select the testbed platform (fabric and CPU calibration, target
    /// triples).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Number of server nodes (ranks `clients..clients + n`).
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Install a seeded [`tc_chaos::FaultPlan`]: every fabric traversal
    /// consults the chaos engine (drop / duplicate / delay / reorder,
    /// scheduled partitions, crash windows) and the data plane runs over
    /// the reliable-delivery layer, making PUT/GET/ifunc injection
    /// exactly-once despite the injected faults.  Without a plan the
    /// transports keep their original zero-overhead lossless path.
    pub fn fault_plan(mut self, plan: tc_chaos::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the reliable layer's retransmission tunables (initial RTO,
    /// backoff cap, adaptive estimation on/off) on every backend.  The
    /// defaults are [`RelConfig::sim_default`] on the simulated backend and
    /// [`RelConfig::threads_default`] on the wall-clock ones, all with
    /// adaptive estimation enabled; `RelConfig::threads_default().fixed()`
    /// recovers the pre-adaptive behaviour.  Only meaningful together with
    /// [`ClusterBuilder::fault_plan`].
    pub fn rel_config(mut self, config: RelConfig) -> Self {
        self.rel_config = Some(config);
        self
    }

    /// Enable self-healing on the socket backend: dead server ranks are
    /// detected (socket failure or PING silence), respawned (or awaited, in
    /// external mode) with bounded exponential backoff, re-handshaken,
    /// brought back to control-plane parity (AM catalog, recorded memory
    /// writes), and their reliable links replayed.  A rank is given up on
    /// after `max_respawns` consecutive failed respawn attempts.  Requires a
    /// fault plan — only the reliable plane can replay in-flight frames.
    /// Ignored by the other backends.
    pub fn socket_recovery(mut self, max_respawns: u32) -> Self {
        self.socket.recover = Some(max_respawns);
        self
    }

    /// Set the endpoint the socket backend's driver listens on (default: a
    /// fresh Unix-domain socket under the system temp directory).  Ignored
    /// by the other backends.
    pub fn socket_addr(mut self, spec: SocketSpec) -> Self {
        self.socket.addr = Some(spec);
        self
    }

    /// Point the socket backend at the server binary it should spawn (a
    /// `tc-socket-server`-style executable).  Without this, the backend
    /// looks for `tc-socket-server` next to the current executable.
    pub fn server_bin(mut self, bin: impl Into<std::path::PathBuf>) -> Self {
        self.socket.server_bin = Some(bin.into());
        self
    }

    /// Don't spawn server processes: wait for externally launched servers
    /// (e.g. `tc-socket-server --connect ...` on another terminal or host)
    /// to dial in instead.
    pub fn socket_external(mut self) -> Self {
        self.socket.external = true;
        self
    }

    fn resolved_triples(&self) -> (TargetTriple, TargetTriple) {
        let parse = |triple, fallback| TargetTriple::parse(triple).unwrap_or(fallback);
        let client = parse(self.platform.client_triple, TargetTriple::X86_64_GENERIC);
        let server = parse(self.platform.server_triple, TargetTriple::AARCH64_GENERIC);
        (client, server)
    }

    /// Build on the discrete-event backend.
    pub fn build_sim(self) -> Cluster<SimTransport> {
        let (client, server) = self.resolved_triples();
        Cluster::new(SimTransport::with_config(
            self.platform,
            self.clients,
            self.servers,
            client,
            server,
            self.fault_plan,
            self.rel_config,
        ))
    }

    /// Build on the real-thread backend.
    pub fn build_threaded(self) -> Cluster<ThreadTransport> {
        let (client, server) = self.resolved_triples();
        Cluster::new(ThreadTransport::with_config(
            self.clients,
            self.servers,
            client,
            server,
            self.fault_plan,
            self.rel_config,
        ))
    }

    /// Build on the cross-process socket backend: spawns (or awaits) one OS
    /// process per server rank and handshakes with each.  Unlike the other
    /// backends, startup is fallible — the server binary may be missing or
    /// a server process may fail to dial in.
    pub fn build_socket(self) -> Result<Cluster<SocketTransport>> {
        let (client, server) = self.resolved_triples();
        Ok(Cluster::new(SocketTransport::connect_config(
            self.clients,
            self.servers,
            client,
            server,
            self.fault_plan,
            self.rel_config,
            self.socket,
        )?))
    }

    /// Build on a runtime-chosen backend behind a trait object — lets one
    /// scenario function iterate over backends.  The transport is built and
    /// wrapped once.
    pub fn build(self, backend: Backend) -> Cluster<Box<dyn Transport>> {
        let transport: Box<dyn Transport> = match backend {
            Backend::Simnet => Box::new(self.build_sim().into_transport()),
            Backend::Threads => Box::new(self.build_threaded().into_transport()),
            Backend::Socket => Box::new(
                self.build_socket()
                    .expect("socket backend failed to start")
                    .into_transport(),
            ),
        };
        Cluster::new(transport)
    }
}
