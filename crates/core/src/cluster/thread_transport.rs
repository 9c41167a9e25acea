//! The real-concurrency backend: server runtimes on OS threads, **client
//! runtimes on their own OS threads too**, fabric operations as tagged
//! envelopes over channels.
//!
//! No virtual time is involved — this backend exists to show that the
//! framework's state machines (auto-registration, sender-side caching,
//! recursive forwarding, result return) are correct under genuine
//! parallelism.
//!
//! # Execution model
//!
//! * Server rank `r` (ranks `clients..clients + servers`) runs as thread
//!   node `r - clients` of a [`tc_simnet::ThreadCluster`] and drains its own
//!   inbox independently.
//! * Client rank `c` (ranks `0..clients`) owns a dedicated external port `c`
//!   of the fabric.  A **client worker thread** parks on that port's queue
//!   and is the carrier of the client's rank (the crate-private `host`
//!   module's `ClientHost`: runtime, link endpoint and the client-rank
//!   rules): it feeds the host each inbound burst, flushes what that
//!   provoked, closes the pass, and deposits completions straight into the
//!   cluster's sharded claim table (see [`Transport::attach_claims`]).
//! * The **driver thread** (whoever owns the [`ThreadTransport`]) keeps the
//!   *send* path: `flush_client` moves posted operations into the fabric
//!   synchronously on the caller's thread, so a control-plane round trip
//!   issued right after a flush still acts as a barrier behind that
//!   client's data (both ride the same per-producer FIFO channel).  Driver
//!   control traffic (peek/poke/stats) uses the shared external port
//!   `clients`, which no worker owns.
//!
//! Each client rank lives behind one mutex that its worker and the driver
//! contend on; two different clients never share a lock and no thread holds
//! two, so N clients genuinely execute on N cores.  `step` no longer pumps
//! any data — it parks on a progress generation that workers bump, and
//! reports whether anything moved.
//!
//! Active-Message deployment after startup works through a shared,
//! append-only handler registry: every node applies new registry entries (in
//! order) before handling each message, so `AmHandlerId`s agree cluster-wide
//! without shipping closures through channels.

use super::completion::ClaimShards;
use super::host::{self, ClientHost, ServerHost};
use super::link::{self, Digest, Link};
use super::reliable::RelConfig;
use super::socket::DRIVER_PORT;
use super::{check_server_rank, wire, ClientRef, ClientRefMut, Transport, Tuning};
use crate::error::{CoreError, Result};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, ChaosStats, FaultPlan, HoldBack};
use tc_simnet::{
    external_port, Envelope, EnvelopeFilter, ExternalQueue, Injector, NodeCtx, ThreadCluster,
    ThreadConfig, ThreadedNode,
};
use tc_ucx::{Bytes, WorkerAddr};

use super::ClientId;

/// Shared, append-only list of predeployed AM handlers.  Deploy order defines
/// the cluster-wide handler ids.
type AmRegistry = Arc<Mutex<Vec<(String, NativeAmHandler)>>>;

/// Lock a mutex, recovering from poison: a worker that panicked mid-update
/// may leave partial state, but every structure behind these locks is
/// per-message (delivered ops, counters) and safe to keep using — losing the
/// whole transport to a poisoned diagnostic lock would be worse.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Map a threaded-fabric sender/receiver id to a cluster rank in a cluster
/// with `clients` driver-side runtimes: external port `p` is client rank
/// `p`, thread node `n` is rank `n + clients`.  (The single-client layout —
/// client rank 0, thread node `n` at rank `n + 1` — is the `clients == 1`
/// case.)  The driver's control port (`p == clients`) is not a data-plane
/// endpoint and never reaches this map on a faulted or reliable path.
fn rank_of(clients: usize, fabric_id: usize) -> usize {
    match external_port(fabric_id) {
        Some(port) => port,
        None => fabric_id + clients,
    }
}

/// Every rank's latest link [`Digest`], published by the rank's owner (the
/// owning node thread for servers; the client's worker thread or the
/// driver's flush path for clients) once per batch, flush or retransmission
/// tick, and read by the driver.  One leaf mutex per rank, held only for the
/// copy of a digest, so the driver never stalls a worker and a snapshot
/// never tears.
struct RelTable {
    slots: Vec<Mutex<Digest>>,
}

impl RelTable {
    fn new(ranks: usize) -> Self {
        RelTable {
            slots: (0..ranks).map(|_| Mutex::default()).collect(),
        }
    }

    fn publish(&self, rank: usize, digest: Digest) {
        *relock(&self.slots[rank]) = digest;
    }

    fn get(&self, rank: usize) -> Option<Digest> {
        self.slots.get(rank).map(|slot| *relock(slot))
    }
}

/// Put a frame for rank `to` on the fabric from a node thread.  Ranks below
/// `clients` are driver-side endpoints (external ports), and [`DRIVER_PORT`]
/// — error reports and control replies — is the driver's own control port
/// `clients`, which no worker owns.  Drops (unknown rank, stopped node) are
/// counted by the ThreadCluster's delivery counters and surfaced through
/// the transport metrics.
fn node_send(ctx: &NodeCtx, clients: usize, to: u32, tag: u64, data: Bytes, payload: Bytes) {
    let to = to as usize;
    let _ = if to < clients {
        ctx.send_external_port_vectored(to, tag, data, payload)
    } else if to == DRIVER_PORT as usize {
        ctx.send_external_port_vectored(clients, tag, data, payload)
    } else {
        ctx.send_vectored(to - clients, tag, data, payload)
    };
}

/// A server node: the fabric carrier of one [`ServerHost`].  It feeds the
/// host envelopes in FIFO order, sends what the host emits (self-sends
/// included — the fabric delivers them), and publishes the host's digest.
struct ServerNode {
    host: ServerHost,
    /// Number of driver-side client ranks (this node's rank is
    /// `clients + thread_id`; the driver's control port is `clients`).
    clients: usize,
    am_registry: AmRegistry,
    am_applied: usize,
    /// Where the link digest is published (chaos mode only).
    table: Option<Arc<RelTable>>,
}

impl ServerNode {
    /// The host's `emit`: everything leaves through [`node_send`].
    fn emit<'a>(&self, ctx: &'a NodeCtx) -> impl FnMut(u32, u64, Bytes, Bytes) + 'a {
        let clients = self.clients;
        move |to, tag, data, payload| node_send(ctx, clients, to, tag, data, payload)
    }

    fn sync_am(&mut self, ctx: &NodeCtx) {
        let registry = relock(&self.am_registry);
        if self.am_applied == registry.len() {
            return;
        }
        let emit = self.emit(ctx);
        let runtime = self.host.barrier(emit);
        for (name, handler) in registry.iter().skip(self.am_applied) {
            runtime.deploy_am_handler(name.clone(), handler.clone());
        }
        self.am_applied = registry.len();
    }

    /// Close the pass and publish its digest.
    fn end_pass(&mut self, ctx: &NodeCtx) {
        let emit = self.emit(ctx);
        let digest = self.host.end_pass(emit);
        if let Some(table) = &self.table {
            table.publish(self.host.runtime().node_id().index(), digest);
        }
    }
}

impl ThreadedNode for ServerNode {
    /// One wakeup's worth of envelopes, in FIFO order: the host delivers
    /// consecutive data-plane messages together and polls/flushes them once,
    /// so a burst of N ifunc frames pays for one poll loop and one outgoing
    /// flush instead of N.
    fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
        self.sync_am(ctx);
        let mut emit = self.emit(ctx);
        for msg in msgs {
            let from = rank_of(self.clients, msg.from) as u32;
            self.host
                .on_frame(from, msg.tag, msg.data, msg.payload, &mut emit);
        }
        self.end_pass(ctx);
    }

    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
        self.on_batch(vec![msg], ctx);
    }

    fn on_tick(&mut self, ctx: &NodeCtx) {
        self.end_pass(ctx);
    }
}

/// Build the interposing envelope filter that injects a [`ChaosSession`]'s
/// decisions into the threaded fabric.  Only reliable data-plane traffic
/// ([`wire::TAG_ROP`]) and acks ([`wire::TAG_ACK`]) are faulted; the
/// control plane (peek/poke/stats) stays exact so observation never lies.
///
/// Delay and reorder are carried out by a [`HoldBack`] (wall-clock sleeping
/// inside a sender is not an option).
///
/// `clients` maps fabric ids to cluster ranks, so the per-link decision
/// streams are drawn for the *true* (src rank, dst rank) pair — a send from
/// client 1 and one from client 0 to the same server are different links,
/// exactly as on the simulated backend.  Client-worker injections pass the
/// same filter as node and driver sends, so moving the clients onto worker
/// threads changes nothing about which traffic is faulted.
fn chaos_filter(session: ChaosSession, clients: usize) -> EnvelopeFilter {
    let held = HoldBack::default();
    Arc::new(move |env: Envelope, out: &mut dyn FnMut(Envelope)| {
        if env.tag != wire::TAG_ROP && env.tag != wire::TAG_ACK {
            return out(env);
        }
        let src = rank_of(clients, env.from);
        let dst = rank_of(clients, env.to);
        held.apply(session.decide(src, dst), src, dst, env, out);
    })
}

/// Worker→driver progress signal: a generation counter bumped after every
/// batch of client-side work, with a condvar the driver's `step` parks on.
struct Progress {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress {
            gen: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn bump(&self) {
        *relock(&self.gen) += 1;
        self.cv.notify_all();
    }

    /// Wait until the generation moves past `seen` (or `timeout`).  Returns
    /// the current generation and whether it advanced.
    fn wait_past(&self, seen: u64, timeout: Duration) -> (u64, bool) {
        let g = relock(&self.gen);
        if *g != seen {
            return (*g, true);
        }
        let (g, _) = self
            .cv
            .wait_timeout_while(g, timeout, |g| *g == seen)
            .unwrap_or_else(|e| e.into_inner());
        (*g, *g != seen)
    }
}

/// State shared by the driver and every client worker thread.
struct WorkerShared {
    /// One client rank each behind its one lock: its worker, the driver and
    /// (through loopback traffic) a sibling's flusher contend on it, and no
    /// thread ever holds two.
    clients: Vec<Mutex<ClientHost>>,
    /// The cluster's sharded claim table, installed by
    /// [`Transport::attach_claims`].  Until it is attached (or when the
    /// transport is driven without a [`super::Cluster`]), completions stay
    /// buffered in the client runtimes and flow through
    /// [`Transport::take_completions`] as before.  A re-attach *replaces*
    /// the table: a caller may re-wrap a built transport (`tc-benchmark`
    /// boxes its socket transport through `Cluster::into_transport` →
    /// `Cluster::new`), and only the outermost cluster's table is live.
    claims: RwLock<Option<Arc<ClaimShards>>>,
    /// Errors reported by server nodes, client workers, or the driver's own
    /// decode paths.
    errors: Mutex<Vec<CoreError>>,
    progress: Progress,
    stop: AtomicBool,
    /// Shared reliability counter table (chaos mode only).
    rel_table: Option<Arc<RelTable>>,
}

impl WorkerShared {
    fn push_error(&self, e: CoreError) {
        relock(&self.errors).push(e);
    }

    /// Run `f` on client `c` under its lock, then hand over what the visit
    /// left: failures to the error list, the link digest to the shared table
    /// (chaos mode) and — once a claim table is attached — completions to
    /// the client's shard.
    fn visit(&self, c: usize, f: &mut dyn FnMut(&mut ClientHost)) {
        let mut host = relock(&self.clients[c]);
        f(&mut host);
        if let Some(table) = &self.rel_table {
            table.publish(c, host.link().digest());
        }
        let errors = host.take_errors();
        let mut deposit = None;
        if host.runtime().completions_pending() > 0 {
            let claims = self.claims.read().unwrap_or_else(|e| e.into_inner());
            if let Some(claims) = &*claims {
                deposit = Some((Arc::clone(claims), host.runtime_mut().take_completions()));
            }
        }
        drop(host);
        for e in errors {
            self.push_error(e);
        }
        if let Some((claims, completions)) = deposit {
            claims.absorb(ClientId(c), completions);
        }
    }

    /// Move everything client `origin` (and whoever its loopback traffic
    /// reaches) posted into the fabric.  Callable from the driver
    /// (`flush_client`) and from client workers (response flushing) alike.
    fn flush(&self, injector: &Injector, origin: usize) {
        let clients = self.clients.len();
        host::flush_clients(
            origin,
            |c, f| self.visit(c, f),
            |from, to, tag, data, payload| {
                client_send(injector, clients, from, to, tag, data, payload)
            },
        );
    }
}

/// Inject a frame from client `c` toward rank `to`: a server's thread node
/// (rank - clients), as client-to-client traffic never leaves its host.
/// Drops (unknown rank, stopped node) are counted by the fabric and show up
/// in the transport metrics.
fn client_send(
    injector: &Injector,
    clients: usize,
    c: usize,
    to: u32,
    tag: u64,
    data: Bytes,
    payload: Bytes,
) {
    if let Some(node) = (to as usize).checked_sub(clients) {
        let _ = injector.send_vectored_from_port(c, node, tag, data, payload);
    }
}

/// The body of client `id`'s worker thread, the fabric carrier of one
/// [`ClientHost`]: park on the client's dedicated external queue (`park`
/// doubles as the stop-flag poll interval and, in chaos mode, the
/// retransmission cadence floor), feed the host each burst of at most
/// `batch` envelopes, flush what it provoked, close the pass — the timer
/// runs whether or not traffic flows (a parked envelope is recovered by the
/// re-send) — and signal the driver.  In-flight accounting
/// (`ExternalQueue::done`) is released only after the batch is fully
/// processed — staged, polled, flushed, deposited — so the driver's
/// quiescence detection spans worker processing, not just queue emptiness.
fn run_worker(
    id: usize,
    queue: ExternalQueue,
    shared: &WorkerShared,
    injector: Injector,
    batch: usize,
    park: Duration,
) {
    let clients = shared.clients.len();
    let mut emit =
        |to, tag, data, payload| client_send(&injector, clients, id, to, tag, data, payload);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            queue.drain();
            return;
        }
        let mut n = 0;
        if let Some(env) = queue.recv_timeout(park) {
            // Drain the burst behind the first envelope: one park, one batch.
            let mut burst = vec![env];
            while burst.len() < batch {
                match queue.try_recv() {
                    Some(env) => burst.push(env),
                    None => break,
                }
            }
            n = burst.len() as u64;
            let mut host = relock(&shared.clients[id]);
            for env in burst {
                match env.tag {
                    wire::TAG_OP | wire::TAG_ROP | wire::TAG_ACK => {
                        let from = rank_of(clients, env.from) as u32;
                        host.on_frame(from, env.tag, env.data, env.payload, &mut emit);
                    }
                    wire::TAG_ERROR => shared.push_error(CoreError::Transport(
                        String::from_utf8_lossy(&env.data).into_owned(),
                    )),
                    // Control replies never arrive here (the driver owns its
                    // own port); anything else is stale and dropped.
                    _ => {}
                }
            }
            drop(host);
            // Polls what the burst staged; its visits also collect whatever
            // the frames above left in the host.
            shared.flush(&injector, id);
        }
        // Without a fault plan there is no ack to owe and no timer to run.
        if shared.rel_table.is_some() {
            shared.visit(id, &mut |host| {
                host.end_pass(&mut emit);
            });
        }
        if n > 0 {
            queue.done(n);
            shared.progress.bump();
        }
    }
}

/// Driver-side chaos state: the shared fault session and the counter table
/// (each client's link lives in its [`ClientHost`]).
struct DriverChaos {
    session: ChaosSession,
    table: Arc<RelTable>,
    /// The reliability layer's backoff cap, in nanoseconds — the longest
    /// silence a healthy-but-lossy link can exhibit between retransmission
    /// rounds.  Quiescence detection must out-wait several of these.
    rto_max: u64,
}

/// The real-concurrency cluster backend (threads + channels, wall-clock time).
pub struct ThreadTransport {
    /// Client runtimes and reliability state, shared with the client worker
    /// threads.
    shared: Arc<WorkerShared>,
    /// One worker thread per client, each owning that client's dedicated
    /// external queue.
    workers: Vec<thread::JoinHandle<()>>,
    /// `None` once shut down (threads joined).
    cluster: Option<ThreadCluster>,
    /// Injection handle for the driver's own synchronous send path.
    injector: Injector,
    /// Delivery counters captured at shutdown so `metrics` stays meaningful.
    final_metrics: tc_simnet::ThreadMetrics,
    servers: usize,
    am_registry: AmRegistry,
    next_token: u64,
    tuning: Tuning,
    /// Chaos-mode state (fault session + counter table); `None` keeps the
    /// lossless fast path.
    chaos: Option<DriverChaos>,
    /// Since when `step` has seen zero progress while reliability frames
    /// stay unacked (chaos mode).  Bounds how long outstanding
    /// retransmissions can keep the driver reporting "busy" — a frame that
    /// can never be acked (e.g. a dead node thread) must eventually let
    /// waits time out instead of spinning forever.
    stalled_since: Option<Instant>,
    /// Last observed worker-progress generation.
    seen_gen: u64,
}

impl std::fmt::Debug for ThreadTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTransport")
            .field("clients", &self.shared.clients.len())
            .field("servers", &self.servers)
            .field("errors", &relock(&self.shared.errors).len())
            .finish()
    }
}

impl ThreadTransport {
    /// Full-control constructor used by the cluster builder: `clients`
    /// client runtimes (ranks `0..clients`, one worker thread each),
    /// `servers` threaded server nodes (ranks `clients..clients+servers`),
    /// scheduling tunables plus an optional fault plan.  With a plan
    /// installed, every data-plane envelope passes the chaos engine's
    /// envelope filter and travels over the reliable-delivery layer
    /// (sequence numbers, cumulative acks, retransmission, dedup) — with one
    /// independent sequence space per (client, server) link.
    pub fn with_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        tuning: Tuning,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
    ) -> Self {
        let clients = clients.max(1);
        let total = (servers + clients) as u32;
        let am_registry: AmRegistry = Arc::new(Mutex::new(Vec::new()));
        let registry_for_nodes = Arc::clone(&am_registry);

        let rel_cfg = rel_config.unwrap_or_else(RelConfig::threads_default);
        let chaos = fault_plan.map(|plan| DriverChaos {
            session: ChaosSession::new(plan),
            table: Arc::new(RelTable::new(servers + clients)),
            rto_max: rel_cfg.rto_max,
        });
        // Reliable links (and their retransmission cadence) exist exactly
        // when a fault plan does.
        let link_cfg = chaos.as_ref().map(|_| rel_cfg);
        let tick = link_cfg.map(|cfg| Duration::from_nanos(cfg.rto / 2));

        // One burst size for both rank classes: 0 asks for the fabric's
        // default on server nodes and client workers alike.
        let batch = match tuning.node_batch {
            0 => tc_simnet::threaded::DEFAULT_MAX_BATCH,
            n => n,
        };
        let mut config = ThreadConfig {
            max_batch: batch,
            dedicated_external_ports: clients,
            ..ThreadConfig::default()
        };
        let node_chaos = chaos.as_ref().map(|c| {
            config.tick = tick;
            config.filter = Some(chaos_filter(c.session.clone(), clients));
            Arc::clone(&c.table)
        });

        let mut cluster = ThreadCluster::start_with_config(servers, config, move |thread_id| {
            let rank = (thread_id + clients) as u32;
            let runtime = NodeRuntime::new(WorkerAddr(rank), total, server_triple);
            ServerNode {
                host: ServerHost::new(runtime, Link::new(rank, total, link_cfg), false),
                clients,
                am_registry: Arc::clone(&registry_for_nodes),
                am_applied: 0,
                table: node_chaos.clone(),
            }
        });

        let shared = Arc::new(WorkerShared {
            clients: (0..clients)
                .map(|c| {
                    let runtime = NodeRuntime::new(WorkerAddr(c as u32), total, client_triple);
                    let link = Link::new(c as u32, total, link_cfg);
                    Mutex::new(ClientHost::new(runtime, link, clients as u32))
                })
                .collect(),
            claims: RwLock::new(None),
            errors: Mutex::new(Vec::new()),
            progress: Progress::new(),
            stop: AtomicBool::new(false),
            rel_table: chaos.as_ref().map(|c| Arc::clone(&c.table)),
        });

        let injector = cluster.injector();
        let park = tick
            .map(|t| t.min(tuning.step_timeout))
            .unwrap_or(tuning.step_timeout)
            .max(Duration::from_micros(50));
        let workers = (0..clients)
            .map(|c| {
                let queue = cluster
                    .take_external_queue(c)
                    .expect("dedicated client queue");
                let (shared, injector) = (Arc::clone(&shared), injector.clone());
                thread::Builder::new()
                    .name(format!("tc-client-{c}"))
                    .spawn(move || run_worker(c, queue, &shared, injector, batch, park))
                    .expect("spawn client worker thread")
            })
            .collect();

        ThreadTransport {
            shared,
            workers,
            cluster: Some(cluster),
            injector,
            final_metrics: tc_simnet::ThreadMetrics::default(),
            servers,
            am_registry,
            next_token: 1,
            tuning,
            chaos,
            stalled_since: None,
            seen_gen: 0,
        }
    }

    /// Errors reported by server nodes, client workers, or transport-level
    /// decode failures, in observation order (a snapshot — the shared list
    /// keeps growing while workers run).
    pub fn errors(&self) -> Vec<CoreError> {
        relock(&self.shared.errors).clone()
    }

    /// Handle a non-reply envelope that reached the driver's control port
    /// (error reports, stale control replies).
    fn on_driver_envelope(&self, env: Envelope) {
        if env.tag == wire::TAG_ERROR {
            self.shared.push_error(CoreError::Transport(
                String::from_utf8_lossy(&env.data).into_owned(),
            ));
        }
        // Stale control replies (from a timed-out request) are dropped; live
        // ones are intercepted by `control` before this.
    }
}

impl Transport for ThreadTransport {
    fn backend_name(&self) -> &'static str {
        "threads"
    }

    fn node_count(&self) -> usize {
        self.servers + self.shared.clients.len()
    }

    fn client_count(&self) -> usize {
        self.shared.clients.len()
    }

    fn client(&self, id: ClientId) -> ClientRef<'_> {
        assert!(id.0 < self.shared.clients.len(), "no client with id {id}");
        ClientRef::Locked(relock(&self.shared.clients[id.0]))
    }

    fn client_mut(&mut self, id: ClientId) -> ClientRefMut<'_> {
        assert!(id.0 < self.shared.clients.len(), "no client with id {id}");
        ClientRefMut::Locked(relock(&self.shared.clients[id.0]))
    }

    fn attach_claims(&mut self, claims: &Arc<ClaimShards>) {
        // Workers pick the table up through the shared slot and start
        // depositing completions directly; `take_completions` then drains
        // whatever (rare) residue is still buffered runtime-side.  Replace,
        // don't set-once: a caller that re-wraps a built transport
        // (`tc-benchmark`: `into_transport` → `Cluster::new`) attaches
        // twice, and only the outer cluster's table is ever read.
        *self
            .shared
            .claims
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(claims));
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        // Clients apply immediately (under their locks); servers
        // catch up (in registry order, hence with identical handler ids)
        // before their next message.
        for client in &self.shared.clients {
            relock(client)
                .runtime_mut()
                .deploy_am_handler(name.to_string(), handler.clone());
        }
        self.am_registry
            .lock()
            .map_err(|_| CoreError::Transport("AM registry poisoned".into()))?
            .push((name.to_string(), handler));
        Ok(())
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        if id.0 >= self.shared.clients.len() {
            return Err(CoreError::Transport(format!("no client with id {id}")));
        }
        if self.cluster.is_none() {
            return Err(CoreError::Transport("thread transport is shut down".into()));
        }
        // Synchronous on the caller's thread: when this returns, the ops are
        // in the node channels, so a control round trip issued next acts as
        // a barrier behind them (same per-producer FIFO).
        self.shared.flush(&self.injector, id.0);
        Ok(())
    }

    fn step(&mut self) -> Result<bool> {
        let busy_deadline = Instant::now() + link::BUSY_STEP_TIMEOUT;
        let step_timeout = self.tuning.step_timeout;
        loop {
            let Some(cluster) = &self.cluster else {
                return Ok(false);
            };
            // Driver-port housekeeping: error reports and stale control
            // replies addressed to the control port.
            let mut drained = false;
            while let Some(env) = cluster.try_recv_external() {
                self.on_driver_envelope(env);
                drained = true;
            }
            if drained {
                self.stalled_since = None;
                return Ok(true);
            }
            // Park until a worker signals progress (completions deposited,
            // ops delivered, acks processed) or the idle-check timeout.
            let (gen, progressed) = self.shared.progress.wait_past(self.seen_gen, step_timeout);
            self.seen_gen = gen;
            if progressed {
                self.stalled_since = None;
                return Ok(true);
            }
            // step_timeout of silence.  Only call it idleness when no
            // node-bound or worker-bound message is queued or mid-processing
            // — and, in chaos mode, no frame anywhere awaits an ack (a
            // partitioned link with retransmits pending is *busy*, not idle)
            // — otherwise keep waiting (bounded).
            if self.unacked_total() > 0 {
                let rto_max = self.chaos.as_ref().map_or(0, |c| c.rto_max);
                return Ok(link::within_stall_horizon(&mut self.stalled_since, rto_max));
            }
            self.stalled_since = None;
            if cluster.pending_messages() == 0 || Instant::now() >= busy_deadline {
                return Ok(false);
            }
        }
    }

    fn idle_grace(&self) -> u32 {
        self.tuning.idle_grace
    }

    /// Issue a control request to server `rank` and wait for its tokened
    /// reply.  The request is sent from the driver's own control port
    /// (`clients`), so the reply comes back on the shared queue no worker
    /// owns; data-plane traffic keeps flowing through the workers in the
    /// meantime.
    fn control(
        &mut self,
        rank: usize,
        request_tag: u64,
        reply_tag: u64,
        body: &[u8],
    ) -> Result<Vec<u8>> {
        let clients = self.shared.clients.len();
        check_server_rank(clients, self.servers, rank)?;
        let token = self.next_token;
        self.next_token += 1;
        let status = match &self.cluster {
            Some(cluster) => cluster.send_from_port(
                clients,
                rank - clients,
                request_tag,
                wire::encode_control(token, body),
            ),
            None => return Err(CoreError::Transport("thread transport is shut down".into())),
        };
        if !status.is_delivered() {
            return Err(CoreError::Transport(format!(
                "control request to rank {rank} not delivered: {status:?}"
            )));
        }
        let deadline = Instant::now() + self.tuning.control_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CoreError::WaitTimeout {
                    what: format!("control reply (tag {reply_tag}) from rank {rank}"),
                });
            }
            let env = match &self.cluster {
                Some(cluster) => cluster.recv_external(remaining),
                None => return Err(CoreError::Transport("thread transport is shut down".into())),
            };
            let Some(env) = env else {
                continue;
            };
            if env.tag == reply_tag && env.from == rank - clients {
                if let Ok((reply_token, reply_body)) = wire::decode_control(&env.data) {
                    if reply_token == token {
                        return Ok(reply_body.to_vec());
                    }
                    continue; // stale reply from an abandoned request
                }
            }
            self.on_driver_envelope(env);
        }
    }

    /// Assembled from the shared digest table without touching any client's
    /// lock.
    fn link_digest(&self, rank: usize) -> Option<Digest> {
        self.chaos.as_ref()?.table.get(rank)
    }

    fn fabric_counts(&self) -> (u64, u64) {
        let m = self
            .cluster
            .as_ref()
            .map(|c| c.metrics())
            .unwrap_or(self.final_metrics);
        (m.delivered, m.dropped())
    }

    fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.session.stats())
    }

    fn shutdown(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
            self.final_metrics = cluster.metrics();
            cluster.shutdown();
        }
    }
}

impl Drop for ThreadTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
