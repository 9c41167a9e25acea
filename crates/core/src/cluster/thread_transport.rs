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
//!   and handles all inbound traffic for the client: data-plane operations
//!   are delivered into the client's [`NodeRuntime`], polled, and any
//!   responses flushed back out; reliable-delivery frames and acks drive the
//!   client's own [`ReliableSet`]; completions are deposited straight into
//!   the cluster's sharded claim table (see [`Transport::attach_claims`]).
//! * The **driver thread** (whoever owns the [`ThreadTransport`]) keeps the
//!   *send* path: `flush_client` moves posted operations into the fabric
//!   synchronously on the caller's thread, so a control-plane round trip
//!   issued right after a flush still acts as a barrier behind that
//!   client's data (both ride the same per-producer FIFO channel).  Driver
//!   control traffic (peek/poke/stats) uses the shared external port
//!   `clients`, which no worker owns.
//!
//! Each client's runtime lives behind a mutex that only its worker and the
//! driver ever contend on; two different clients never share a lock, so N
//! clients genuinely execute on N cores.  `step` no longer pumps any data —
//! it parks on a progress generation that workers bump, and reports whether
//! anything moved.
//!
//! Active-Message deployment after startup works through a shared,
//! append-only handler registry: every node applies new registry entries (in
//! order) before handling each message, so `AmHandlerId`s agree cluster-wide
//! without shipping closures through channels.

use super::completion::ClaimShards;
use super::reliable::{LinkHealth, RelConfig, RelMetrics, ReliableSet};
use super::socket::most_stressed;
use super::wire::StoredEnv;
use super::{wire, ClientRef, ClientRefMut, Transport, TransportMetrics};
use crate::error::{CoreError, Result};
use crate::metrics::RuntimeStats;
use crate::runtime::{Completion, NativeAmHandler, NodeRuntime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, ChaosStats, FaultPlan, HoldBack};
use tc_jit::{Memory, OptLevel};
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

/// Scheduling tunables of the threaded backend — every value that used to
/// be a hard-coded constant, configurable through
/// [`super::ClusterBuilder::thread_tuning`].  The defaults reproduce the
/// former behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadTuning {
    /// How long one driver `step` parks on the worker-progress signal before
    /// running its idleness checks.  Workers wake the driver the moment they
    /// finish a batch (condvar notify), so this bounds *idle-detection*
    /// latency only, not delivery latency.
    pub step_timeout: Duration,
    /// Upper bound one `step` keeps waiting while node threads or client
    /// workers are verifiably busy (messages enqueued or mid-processing)
    /// without reporting progress.  Guards against a runaway ifunc wedging
    /// the driver forever.
    ///
    /// Note: this knob predates the per-client worker threads (it used to
    /// bound the driver's own receive loop, which no longer exists).  It is
    /// retained — with unchanged semantics for the idle-confirmation loop —
    /// so existing tunings keep working; new code should rarely need to
    /// touch it, since client workers now make progress without the driver.
    pub busy_step_timeout: Duration,
    /// Most inbound envelopes a *client worker* drains per wakeup (batch
    /// drain: one park, many messages).  Before the per-client worker
    /// threads this bounded the driver's own external drain; the semantics
    /// carried over to the workers unchanged.
    pub step_batch: usize,
    /// Consecutive idle steps before waits give up.  A step only reports
    /// idle after `step_timeout` of silence with zero pending node-bound or
    /// worker-bound messages, so two suffice: the second covers the one-step
    /// race where a worker finished a batch right as the first park timed
    /// out.
    pub idle_grace: u32,
    /// Most messages a *node thread* drains per wakeup (the former
    /// `MAX_BATCH` in `tc_simnet::threaded`).
    pub node_batch: usize,
    /// How long a control-plane round trip (peek/poke/stats) may take.
    pub control_timeout: Duration,
}

impl Default for ThreadTuning {
    fn default() -> Self {
        ThreadTuning {
            step_timeout: Duration::from_millis(20),
            busy_step_timeout: Duration::from_secs(1),
            step_batch: 128,
            idle_grace: 2,
            node_batch: 128,
            control_timeout: Duration::from_secs(10),
        }
    }
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

/// Per-rank reliability counters published by their owner (the owning node
/// thread for servers; the client's worker thread or the driver's flush path
/// for clients) and read by the driver without taking any lock.
struct RelSlot {
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    out_of_order: AtomicU64,
    acks_sent: AtomicU64,
    unacked: AtomicU64,
    /// Earliest armed retransmission deadline of this rank, on the shared
    /// epoch clock; `u64::MAX` when nothing is outstanding.
    next_deadline: AtomicU64,
    /// Most-stressed-link health of this rank (RTT estimator state for the
    /// link with the most unacked frames).  `health_peer == u64::MAX` means
    /// no link has carried traffic yet.  Published field-by-field with
    /// relaxed stores — the snapshot is diagnostic, tearing between fields
    /// is acceptable.
    health_peer: AtomicU64,
    health_srtt: AtomicU64,
    health_rttvar: AtomicU64,
    health_rto: AtomicU64,
    health_unacked: AtomicU64,
    health_silent: AtomicU64,
}

impl Default for RelSlot {
    fn default() -> Self {
        RelSlot {
            retransmits: AtomicU64::new(0),
            dup_drops: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
            unacked: AtomicU64::new(0),
            next_deadline: AtomicU64::new(u64::MAX),
            health_peer: AtomicU64::new(u64::MAX),
            health_srtt: AtomicU64::new(0),
            health_rttvar: AtomicU64::new(0),
            health_rto: AtomicU64::new(0),
            health_unacked: AtomicU64::new(0),
            health_silent: AtomicU64::new(0),
        }
    }
}

/// Shared table of every rank's reliability counters.
struct RelTable {
    slots: Vec<RelSlot>,
}

impl RelTable {
    fn new(ranks: usize) -> Self {
        RelTable {
            slots: (0..ranks).map(|_| RelSlot::default()).collect(),
        }
    }

    /// Publish `rank`'s counters, once per batch of its owner (node batch,
    /// worker batch, driver flush, retransmission tick).
    fn publish(&self, rank: usize, set: &ReliableSet<StoredEnv>) {
        let s = &self.slots[rank];
        s.retransmits
            .store(set.metrics.retransmits, Ordering::Relaxed);
        s.dup_drops.store(set.metrics.dup_drops, Ordering::Relaxed);
        s.out_of_order
            .store(set.metrics.out_of_order, Ordering::Relaxed);
        s.acks_sent.store(set.metrics.acks_sent, Ordering::Relaxed);
        s.next_deadline
            .store(set.next_deadline().unwrap_or(u64::MAX), Ordering::Relaxed);
        if let Some(h) = most_stressed(set.health_rows()) {
            s.health_srtt.store(h.srtt, Ordering::Relaxed);
            s.health_rttvar.store(h.rttvar, Ordering::Relaxed);
            s.health_rto.store(h.rto, Ordering::Relaxed);
            s.health_unacked.store(h.unacked, Ordering::Relaxed);
            s.health_silent
                .store(u64::from(h.silent_rounds), Ordering::Relaxed);
            s.health_peer.store(h.peer as u64, Ordering::Relaxed);
        }
        // SeqCst: the driver's idleness check must not miss outstanding
        // frames behind a relaxed store.
        s.unacked.store(set.unacked_total(), Ordering::SeqCst);
    }

    fn snapshot(&self, rank: usize) -> Option<RelMetrics> {
        let s = self.slots.get(rank)?;
        Some(RelMetrics {
            retransmits: s.retransmits.load(Ordering::Relaxed),
            dup_drops: s.dup_drops.load(Ordering::Relaxed),
            out_of_order: s.out_of_order.load(Ordering::Relaxed),
            acks_sent: s.acks_sent.load(Ordering::Relaxed),
        })
    }

    /// Most-stressed-link health last published by `rank`, if any link has
    /// carried reliable traffic there.
    fn health_snapshot(&self, rank: usize) -> Option<LinkHealth> {
        let s = self.slots.get(rank)?;
        let peer = s.health_peer.load(Ordering::Relaxed);
        if peer == u64::MAX {
            return None;
        }
        Some(LinkHealth {
            peer: peer as u32,
            srtt: s.health_srtt.load(Ordering::Relaxed),
            rttvar: s.health_rttvar.load(Ordering::Relaxed),
            rto: s.health_rto.load(Ordering::Relaxed),
            unacked: s.health_unacked.load(Ordering::Relaxed),
            silent_rounds: s.health_silent.load(Ordering::Relaxed) as u32,
        })
    }

    fn total_unacked(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.unacked.load(Ordering::SeqCst))
            .sum()
    }

    fn earliest_deadline(&self) -> Option<u64> {
        self.slots
            .iter()
            .map(|s| s.next_deadline.load(Ordering::Relaxed))
            .min()
            .filter(|&d| d != u64::MAX)
    }

    fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(r, d), s| {
            (
                r + s.retransmits.load(Ordering::Relaxed),
                d + s.dup_drops.load(Ordering::Relaxed),
            )
        })
    }
}

/// Reliability state of one node thread (server side).
struct NodeRel {
    set: ReliableSet<StoredEnv>,
    /// Reused delivery buffer of [`ReliableSet::on_data_into`].
    scratch: Vec<StoredEnv>,
    table: Arc<RelTable>,
    rank: usize,
    epoch: Instant,
}

impl NodeRel {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Put a reliable envelope for `peer` (rank) on the fabric.  Ranks below
    /// `clients` are driver-side endpoints (external ports).
    fn transmit(ctx: &NodeCtx, clients: usize, peer: usize, data: Bytes, payload: Bytes) {
        let _ = if peer < clients {
            ctx.send_external_port_vectored(peer, wire::TAG_ROP, data, payload)
        } else {
            ctx.send_vectored(peer - clients, wire::TAG_ROP, data, payload)
        };
    }

    /// Send a pure ack to `peer` (rank).
    fn send_ack(ctx: &NodeCtx, clients: usize, peer: usize, ack: u64) {
        let bytes = wire::encode_ack(ack);
        let _ = if peer < clients {
            ctx.send_external_port(peer, wire::TAG_ACK, bytes)
        } else {
            ctx.send(peer - clients, wire::TAG_ACK, bytes)
        };
    }
}

/// Report a node-side failure to the driver's control port.  Errors ride the
/// same queue as control replies, so the existing FIFO barrier argument
/// holds: an error emitted before a stats reply is collected before it.
fn report_error(ctx: &NodeCtx, control_port: usize, text: String) {
    let _ = ctx.send_external_port(control_port, wire::TAG_ERROR, text.into_bytes());
}

/// A server node: owns a full Three-Chains runtime and speaks the transport's
/// wire protocol.
struct ServerNode {
    runtime: NodeRuntime,
    /// Number of driver-side client ranks (this node's rank is
    /// `clients + thread_id`; the driver's control port is `clients`).
    clients: usize,
    am_registry: AmRegistry,
    am_applied: usize,
    /// Reliability state when a fault plan is installed; `None` keeps the
    /// original lossless fast path byte-for-byte.
    rel: Option<NodeRel>,
}

impl ServerNode {
    fn sync_am(&mut self) {
        let registry = relock(&self.am_registry);
        for (name, handler) in registry.iter().skip(self.am_applied) {
            self.runtime
                .deploy_am_handler(name.clone(), handler.clone());
        }
        self.am_applied = registry.len();
    }

    /// Ship everything the runtime posted.  Runs only after
    /// `poll(usize::MAX)`, so the cumulative acks these frames piggyback
    /// never cover an operation that has not been polled.
    fn route_outgoing(&mut self, ctx: &NodeCtx) {
        let clients = self.clients;
        for msg in self.runtime.take_outgoing() {
            let dst = msg.dst.index();
            // Two cases bypass the reliability layer and go out raw:
            // misaddressed sends (rank beyond the cluster — they would
            // retransmit forever; the raw path lets the fabric count the
            // drop, exactly like the driver path) and self-sends (the
            // simulated backend excludes loopback from the fault model, so
            // the threaded backend must too or the chaos schedules
            // diverge).  Valid remote ranks are `0..clients` (driver-side
            // clients) and `clients..clients + node_count()` (servers).
            let own_rank = self.runtime.node_id().index();
            let bypass_rel =
                dst >= clients && (dst >= clients + ctx.node_count() || dst == own_rank);
            match &mut self.rel {
                Some(rel) if !bypass_rel => {
                    let now = rel.now();
                    let (data, payload) = wire::send_reliable(&mut rel.set, dst as u32, &msg, now);
                    NodeRel::transmit(ctx, clients, dst, data, payload);
                }
                _ => {
                    // Scatter-gather: the head is pooled, large payloads
                    // ship as a shared view (no copy).  Drops are counted by
                    // the ThreadCluster's delivery counters and surfaced
                    // through the transport metrics.
                    let (head, payload) = wire::encode_op_vectored(&msg);
                    let _ = if dst < clients {
                        ctx.send_external_port_vectored(dst, wire::TAG_OP, head, payload)
                    } else {
                        ctx.send_vectored(dst - clients, wire::TAG_OP, head, payload)
                    };
                }
            }
        }
    }
}

impl ThreadedNode for ServerNode {
    /// One wakeup's worth of envelopes.  Consecutive data-plane messages are
    /// delivered together and polled/flushed once, so a burst of N ifunc
    /// frames pays for one poll loop and one outgoing flush instead of N.
    /// Control messages are handled strictly in FIFO position (the control
    /// plane doubles as a barrier behind the data plane).
    fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
        self.sync_am();
        let control_port = self.clients;
        let mut pending_ops = false;
        for msg in msgs {
            if msg.tag == wire::TAG_OP {
                match wire::decode_op_vectored(&msg.data, &msg.payload) {
                    Ok(op) => {
                        self.runtime.deliver(op);
                        pending_ops = true;
                    }
                    Err(e) => report_error(ctx, control_port, e.to_string()),
                }
                continue;
            }
            if msg.tag == wire::TAG_ROP {
                self.on_reliable_op(msg, ctx, &mut pending_ops);
                continue;
            }
            if msg.tag == wire::TAG_ACK {
                let clients = self.clients;
                if let (Some(rel), Ok(ack)) = (&mut self.rel, wire::decode_ack(&msg.data)) {
                    let now = rel.now();
                    rel.set.on_ack(rank_of(clients, msg.from) as u32, ack, now);
                }
                continue;
            }
            if pending_ops {
                self.process_delivered(ctx);
                pending_ops = false;
            }
            self.on_control(msg, ctx);
        }
        if pending_ops {
            self.process_delivered(ctx);
        }
        // Whatever the replies above did not piggyback goes out as one pure
        // ack per peer — after the poll, so it too only covers polled ops.
        let clients = self.clients;
        if let Some(rel) = &mut self.rel {
            rel.set
                .acks_due(|peer, ack| NodeRel::send_ack(ctx, clients, peer as usize, ack));
            rel.table.publish(rel.rank, &rel.set);
        }
    }

    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
        self.on_batch(vec![msg], ctx);
    }

    fn on_tick(&mut self, ctx: &NodeCtx) {
        let clients = self.clients;
        let Some(rel) = &mut self.rel else {
            return;
        };
        let now = rel.now();
        for f in rel.set.tick(now) {
            let data = wire::encode_rel_head(f.seq, f.ack, &f.m.0);
            NodeRel::transmit(ctx, clients, f.peer as usize, data, f.m.1);
        }
        rel.table.publish(rel.rank, &rel.set);
    }
}

impl ServerNode {
    /// Handle one reliable data-plane envelope: run it through the node's
    /// reliability state and deliver whatever became in-order, setting
    /// `pending_ops` when operations reached the runtime.  A duplicate or
    /// out-of-order arrival is acked on the spot — behind a poll of anything
    /// still pending, because that ack is cumulative.
    fn on_reliable_op(&mut self, msg: Envelope, ctx: &NodeCtx, pending_ops: &mut bool) {
        let clients = self.clients;
        let Some(rel) = &mut self.rel else {
            report_error(
                ctx,
                clients,
                "reliable envelope on a node without a fault plan".into(),
            );
            return;
        };
        let src = rank_of(clients, msg.from);
        let (seq, ack, head) = match wire::decode_rel_head(&msg.data) {
            Ok(parts) => parts,
            Err(e) => {
                report_error(ctx, clients, e.to_string());
                return;
            }
        };
        let now = rel.now();
        let env = (head, msg.payload);
        let arrival = rel
            .set
            .on_data_into(src as u32, seq, ack, env, now, &mut rel.scratch);
        for (h, p) in rel.scratch.drain(..) {
            match wire::decode_op_vectored(&h, &p) {
                Ok(op) => {
                    self.runtime.deliver(op);
                    *pending_ops = true;
                }
                Err(e) => report_error(ctx, clients, e.to_string()),
            }
        }
        if arrival.ack_now {
            if std::mem::take(pending_ops) {
                self.process_delivered(ctx);
            }
            NodeRel::send_ack(ctx, clients, src, arrival.ack);
        }
    }

    /// Poll every delivered operation and flush whatever the runtime posted.
    fn process_delivered(&mut self, ctx: &NodeCtx) {
        let control_port = self.clients;
        for outcome in self.runtime.poll(usize::MAX) {
            if let Err(e) = outcome {
                report_error(ctx, control_port, e.to_string());
            }
        }
        self.route_outgoing(ctx);
    }

    /// Handle one control-plane envelope, replying to whichever external
    /// port issued it (the driver's control port in practice).
    fn on_control(&mut self, msg: Envelope, ctx: &NodeCtx) {
        let reply_to = external_port(msg.from).unwrap_or(self.clients);
        if let Some((tag, reply)) = wire::serve_control(&mut self.runtime, msg.tag, &msg.data) {
            let _ = ctx.send_external_port(reply_to, tag, reply);
        }
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

/// One driver-side client: its runtime and (in chaos mode) its reliability
/// state, each behind its own lock.  Only two threads ever touch a given
/// client — its worker and the driver — so these locks are two-party and
/// uncontended in steady state.
///
/// Lock discipline: `runtime` and `rel` are leaf locks (never held while
/// acquiring another client's locks); `order` serialises whole
/// flush-outgoing passes and is the only lock held across a sequence of
/// sends (see [`flush_outgoing`]).
struct ClientShared {
    runtime: Mutex<NodeRuntime>,
    /// Reliability state when a fault plan is installed; one independent
    /// sequence space per (client, server) link, exactly as before.
    rel: Option<Mutex<ReliableSet<StoredEnv>>>,
    /// Flush serialiser: take-outgoing and the resulting sends must form one
    /// critical section per client, or a driver `flush_client` racing the
    /// client's worker could invert same-link wire order (e.g. ship a
    /// cached-id ifunc frame ahead of the registration frame it needs).
    order: Mutex<()>,
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
    clients: Vec<ClientShared>,
    servers: usize,
    /// The cluster's sharded claim table, installed by
    /// [`Transport::attach_claims`].  Until it is attached (or when the
    /// transport is driven without a [`super::Cluster`]), completions stay
    /// buffered in the client runtimes and flow through
    /// [`Transport::take_completions`] as before.  A re-attach *replaces*
    /// the table: `ClusterBuilder::build` wraps the transport in a
    /// `Cluster` once per boxing layer, and only the outermost cluster's
    /// table is live.
    claims: RwLock<Option<Arc<ClaimShards>>>,
    /// Errors reported by server nodes, client workers, or the driver's own
    /// decode paths.
    errors: Mutex<Vec<CoreError>>,
    progress: Progress,
    stop: AtomicBool,
    /// Shared reliability counter table (chaos mode only).
    rel_table: Option<Arc<RelTable>>,
    /// Transport-clock origin; shared with the reliability layer's
    /// timestamps in chaos mode.
    epoch: Instant,
}

impl WorkerShared {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_error(&self, e: CoreError) {
        relock(&self.errors).push(e);
    }

    /// Move client `c`'s buffered completions into the sharded claim table,
    /// if one is attached.
    fn deposit_completions(&self, c: usize) {
        let claims = self
            .claims
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let Some(claims) = claims else {
            return;
        };
        let completions = relock(&self.clients[c].runtime).take_completions();
        if !completions.is_empty() {
            claims.absorb(ClientId(c), completions);
        }
    }

    /// Publish client `c`'s reliability counters to the shared table.
    fn publish_rel(&self, c: usize) {
        if let (Some(table), Some(rel)) = (&self.rel_table, &self.clients[c].rel) {
            table.publish(c, &relock(rel));
        }
    }
}

/// Move everything client `origin` posted into the threaded fabric, looping
/// until the outgoing queues are quiescent.  Client-to-client traffic
/// (including client-to-self) is delivered locally — under the *destination*
/// runtime's lock only, never two runtime locks at once — and may post
/// follow-on operations (GET replies, result writes) that go out in the same
/// flush, possibly from a different client than the origin.
///
/// Callable from the driver (`flush_client`) and from client workers
/// (response flushing) alike; the per-client `order` lock keeps concurrent
/// flushers of the *same* client from interleaving their take/send windows.
fn flush_outgoing(shared: &WorkerShared, injector: &Injector, origin: usize) {
    let clients = shared.clients.len();
    let mut dirty = vec![origin];
    while let Some(c) = dirty.pop() {
        let _order = relock(&shared.clients[c].order);
        loop {
            let outgoing = relock(&shared.clients[c].runtime).take_outgoing();
            if outgoing.is_empty() {
                break;
            }
            for msg in outgoing {
                let dst = msg.dst.index();
                if dst < clients {
                    // Client-to-client delivery: execute locally (loopback
                    // class, like the simulated backend's self-delivery —
                    // never faulted).
                    let mut errs = Vec::new();
                    {
                        let mut rt = relock(&shared.clients[dst].runtime);
                        rt.deliver(msg);
                        for outcome in rt.poll(usize::MAX) {
                            if let Err(e) = outcome {
                                errs.push(e);
                            }
                        }
                    }
                    for e in errs {
                        shared.push_error(e);
                    }
                    shared.deposit_completions(dst);
                    if dst != c && !dirty.contains(&dst) {
                        dirty.push(dst);
                    }
                    continue;
                }
                // Server-bound: thread node ids are rank - clients.  Drops
                // (unknown rank, stopped node) are recorded in the cluster's
                // counters and show up in the transport metrics, mirroring
                // the fabric's lossy-but-accounted model.
                match &shared.clients[c].rel {
                    Some(rel) if dst < clients + shared.servers => {
                        let now = shared.now();
                        let (data, payload) =
                            wire::send_reliable(&mut relock(rel), dst as u32, &msg, now);
                        let _ = injector.send_vectored_from_port(
                            c,
                            dst - clients,
                            wire::TAG_ROP,
                            data,
                            payload,
                        );
                    }
                    _ => {
                        // Lossless — or misaddressed in chaos mode, which
                        // skips reliability (it would retransmit forever)
                        // and lets the fabric count the drop.
                        let (head, payload) = wire::encode_op_vectored(&msg);
                        let _ = injector.send_vectored_from_port(
                            c,
                            dst - clients,
                            wire::TAG_OP,
                            head,
                            payload,
                        );
                    }
                }
            }
        }
        shared.publish_rel(c);
    }
}

/// Poll everything delivered to client `c`'s runtime, flush whatever it
/// posted in response, and deposit its completions.
fn pump_client(shared: &WorkerShared, injector: &Injector, c: usize) {
    let mut errs = Vec::new();
    {
        let mut rt = relock(&shared.clients[c].runtime);
        for outcome in rt.poll(usize::MAX) {
            if let Err(e) = outcome {
                errs.push(e);
            }
        }
    }
    for e in errs {
        shared.push_error(e);
    }
    flush_outgoing(shared, injector, c);
    shared.deposit_completions(c);
}

/// Everything one client worker thread needs.
struct WorkerCtx {
    /// The client rank this worker owns (also its external port).
    id: usize,
    queue: ExternalQueue,
    shared: Arc<WorkerShared>,
    injector: Injector,
    /// Most envelopes drained per wakeup ([`ThreadTuning::step_batch`]).
    batch: usize,
    /// Receive-park bound: doubles as the stop-flag poll interval and (in
    /// chaos mode) the retransmission-tick cadence floor.
    park: Duration,
    /// Retransmission cadence when a fault plan is installed.
    tick: Option<Duration>,
}

/// Run client `ctx.id`'s retransmission timer.
fn tick_rel(ctx: &WorkerCtx) {
    let shared = &*ctx.shared;
    let c = ctx.id;
    let clients = shared.clients.len();
    let Some(rel) = &shared.clients[c].rel else {
        return;
    };
    let now = shared.now();
    let frames = relock(rel).tick(now);
    for f in frames {
        let peer = f.peer as usize;
        if peer < clients {
            continue; // loopback links never enter the reliable layer
        }
        let data = wire::encode_rel_head(f.seq, f.ack, &f.m.0);
        let _ = ctx
            .injector
            .send_vectored_from_port(c, peer - clients, wire::TAG_ROP, data, f.m.1);
    }
    shared.publish_rel(c);
}

/// Send a pure ack from this worker's client to server rank `peer`.
fn send_ack(ctx: &WorkerCtx, peer: usize, ack: u64) {
    let clients = ctx.shared.clients.len();
    if peer >= clients {
        let _ = ctx.injector.send_from_port(
            ctx.id,
            peer - clients,
            wire::TAG_ACK,
            wire::encode_ack(ack),
        );
    }
}

/// Deliver one decoded inbound operation to the client runtime its head
/// names and mark that client in `staged` (in practice this worker's own
/// client, but a misrouted head is delivered where it says, as the old
/// driver loop did).
fn stage_op(shared: &WorkerShared, staged: &mut [bool], decoded: Result<tc_ucx::OutgoingMessage>) {
    match decoded {
        Ok(msg) if msg.dst.index() < staged.len() => {
            let dst = msg.dst.index();
            relock(&shared.clients[dst].runtime).deliver(msg);
            staged[dst] = true;
        }
        Ok(msg) => shared.push_error(CoreError::Transport(format!(
            "driver received an operation for non-client rank {}",
            msg.dst.index()
        ))),
        Err(e) => shared.push_error(e),
    }
}

/// Handle one batch of inbound envelopes for this worker's client, marking
/// every client runtime that received operations in `staged`.  `scratch` is
/// the reused delivery buffer of [`ReliableSet::on_data_into`].
fn process_batch(
    ctx: &WorkerCtx,
    staged: &mut [bool],
    scratch: &mut Vec<StoredEnv>,
    batch: Vec<Envelope>,
) {
    let shared = &*ctx.shared;
    let c = ctx.id;
    let clients = shared.clients.len();
    for env in batch {
        match env.tag {
            wire::TAG_OP => stage_op(
                shared,
                staged,
                wire::decode_op_vectored(&env.data, &env.payload),
            ),
            wire::TAG_ROP => {
                let Some(rel) = &shared.clients[c].rel else {
                    shared.push_error(CoreError::Transport(
                        "reliable envelope without a fault plan".into(),
                    ));
                    continue;
                };
                let src = rank_of(clients, env.from);
                let (seq, ack, head) = match wire::decode_rel_head(&env.data) {
                    Ok(parts) => parts,
                    Err(e) => {
                        shared.push_error(e);
                        continue;
                    }
                };
                let now = shared.now();
                let arrival = relock(rel).on_data_into(
                    src as u32,
                    seq,
                    ack,
                    (head, env.payload),
                    now,
                    scratch,
                );
                if arrival.ack_now {
                    send_ack(ctx, src, arrival.ack);
                }
                for (h, p) in scratch.drain(..) {
                    stage_op(shared, staged, wire::decode_op_vectored(&h, &p));
                }
            }
            wire::TAG_ACK => {
                if let (Some(rel), Ok(ack)) = (&shared.clients[c].rel, wire::decode_ack(&env.data))
                {
                    let now = shared.now();
                    relock(rel).on_ack(rank_of(clients, env.from) as u32, ack, now);
                }
            }
            wire::TAG_ERROR => shared.push_error(CoreError::Transport(
                String::from_utf8_lossy(&env.data).into_owned(),
            )),
            // Control replies never arrive here (the driver owns its own
            // port); anything else is stale and dropped.
            _ => {}
        }
    }
}

/// End of a worker batch: one pure cumulative ack per server whose frames
/// arrived in order and that nothing the batch sent has piggybacked on, then
/// the batch's one publication of the client's reliability counters.
fn finish_batch(ctx: &WorkerCtx) {
    let shared = &*ctx.shared;
    let (Some(table), Some(rel)) = (&shared.rel_table, &shared.clients[ctx.id].rel) else {
        return;
    };
    let mut set = relock(rel);
    set.acks_due(|peer, ack| send_ack(ctx, peer as usize, ack));
    table.publish(ctx.id, &set);
}

/// The body of one client worker thread: park on the client's dedicated
/// external queue, process inbound batches, run the retransmission timer,
/// and signal the driver after every batch.  In-flight accounting
/// (`ExternalQueue::done`) is released only after the batch is fully
/// processed — delivered, polled, flushed, deposited — so the driver's
/// quiescence detection spans worker processing, not just queue emptiness.
fn run_worker(ctx: WorkerCtx) {
    let clients = ctx.shared.clients.len();
    let mut staged = vec![false; clients];
    let mut scratch = Vec::new();
    let mut last_tick = Instant::now();
    loop {
        if ctx.shared.stop.load(Ordering::SeqCst) {
            ctx.queue.drain();
            return;
        }
        if let Some(env) = ctx.queue.recv_timeout(ctx.park) {
            // Drain the burst behind the first envelope: one park, one batch.
            let mut batch = vec![env];
            while batch.len() < ctx.batch {
                match ctx.queue.try_recv() {
                    Some(env) => batch.push(env),
                    None => break,
                }
            }
            let n = batch.len() as u64;
            process_batch(&ctx, &mut staged, &mut scratch, batch);
            for (dst, dirty) in staged.iter_mut().enumerate() {
                if std::mem::take(dirty) {
                    pump_client(&ctx.shared, &ctx.injector, dst);
                }
            }
            finish_batch(&ctx);
            ctx.queue.done(n);
            ctx.shared.progress.bump();
        }
        // The retransmission timer runs on its cadence whether or not
        // traffic flows (a parked envelope is recovered by the re-send).
        if let Some(tick) = ctx.tick {
            if last_tick.elapsed() >= tick {
                last_tick = Instant::now();
                tick_rel(&ctx);
            }
        }
    }
}

/// Driver-side chaos state: the shared fault session and the counter table
/// (per-client reliability lives with the clients in [`ClientShared`]).
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
    tuning: ThreadTuning,
    /// Chaos-mode state (fault session + counter table); `None` keeps the
    /// lossless fast path.
    chaos: Option<DriverChaos>,
    /// Transport-clock origin ([`Transport::now_nanos`] measures from here).
    epoch: Instant,
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
    /// Start a backend with one client (rank 0, on its own worker thread)
    /// and `servers` threaded server nodes (ranks 1..=servers).
    pub fn new(servers: usize, client_triple: TargetTriple, server_triple: TargetTriple) -> Self {
        Self::with_opt(servers, client_triple, server_triple, OptLevel::O2)
    }

    /// Constructor with default tuning, one client and no fault plan.
    pub fn with_opt(
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        opt_level: OptLevel,
    ) -> Self {
        Self::with_config(
            1,
            servers,
            client_triple,
            server_triple,
            opt_level,
            ThreadTuning::default(),
            None,
            None,
        )
    }

    /// Full-control constructor used by the cluster builder: `clients`
    /// client runtimes (ranks `0..clients`, one worker thread each),
    /// `servers` threaded server nodes (ranks `clients..clients+servers`),
    /// scheduling tunables plus an optional fault plan.  With a plan
    /// installed, every data-plane envelope passes the chaos engine's
    /// envelope filter and travels over the reliable-delivery layer
    /// (sequence numbers, cumulative acks, retransmission, dedup) — with one
    /// independent sequence space per (client, server) link.
    #[allow(clippy::too_many_arguments)]
    pub fn with_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        opt_level: OptLevel,
        tuning: ThreadTuning,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
    ) -> Self {
        let clients = clients.max(1);
        let total = (servers + clients) as u32;
        let am_registry: AmRegistry = Arc::new(Mutex::new(Vec::new()));
        let registry_for_nodes = Arc::clone(&am_registry);

        let epoch = Instant::now();
        let rel_cfg = rel_config.unwrap_or_else(RelConfig::threads_default);
        let chaos = fault_plan.map(|plan| DriverChaos {
            session: ChaosSession::new(plan),
            table: Arc::new(RelTable::new(servers + clients)),
            rto_max: rel_cfg.rto_max,
        });
        let tick = chaos
            .as_ref()
            .map(|_| Duration::from_nanos(rel_cfg.rto / 2));

        let mut config = ThreadConfig {
            max_batch: tuning.node_batch,
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
            ServerNode {
                runtime: NodeRuntime::with_opt_level(
                    WorkerAddr(rank),
                    total,
                    server_triple,
                    opt_level,
                ),
                clients,
                am_registry: Arc::clone(&registry_for_nodes),
                am_applied: 0,
                rel: node_chaos.as_ref().map(|table| NodeRel {
                    set: ReliableSet::new(rel_cfg),
                    scratch: Vec::new(),
                    table: Arc::clone(table),
                    rank: rank as usize,
                    epoch,
                }),
            }
        });

        let shared = Arc::new(WorkerShared {
            clients: (0..clients)
                .map(|c| ClientShared {
                    runtime: Mutex::new(NodeRuntime::with_opt_level(
                        WorkerAddr(c as u32),
                        total,
                        client_triple,
                        opt_level,
                    )),
                    rel: chaos
                        .as_ref()
                        .map(|_| Mutex::new(ReliableSet::new(rel_cfg))),
                    order: Mutex::new(()),
                })
                .collect(),
            servers,
            claims: RwLock::new(None),
            errors: Mutex::new(Vec::new()),
            progress: Progress::new(),
            stop: AtomicBool::new(false),
            rel_table: chaos.as_ref().map(|c| Arc::clone(&c.table)),
            epoch,
        });

        let injector = cluster.injector();
        let park = tick
            .map(|t| t.min(tuning.step_timeout))
            .unwrap_or(tuning.step_timeout)
            .max(Duration::from_micros(50));
        let workers = (0..clients)
            .map(|c| {
                let ctx = WorkerCtx {
                    id: c,
                    queue: cluster
                        .take_external_queue(c)
                        .expect("dedicated client queue"),
                    shared: Arc::clone(&shared),
                    injector: injector.clone(),
                    batch: tuning.step_batch.max(1),
                    park,
                    tick,
                };
                thread::Builder::new()
                    .name(format!("tc-client-{c}"))
                    .spawn(move || run_worker(ctx))
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
            epoch,
            stalled_since: None,
            seen_gen: 0,
        }
    }

    /// Snapshot of the injected-fault counters (chaos mode only).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.session.stats())
    }

    /// Reliability counters of one rank (chaos mode only).
    pub fn rel_metrics(&self, rank: usize) -> Option<RelMetrics> {
        self.chaos.as_ref().and_then(|c| c.table.snapshot(rank))
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
        // ones are intercepted by `control_roundtrip` before this.
    }

    /// Issue a control request to server `rank` and wait for its tokened
    /// reply.  The request is sent from the driver's own control port
    /// (`clients`), so the reply comes back on the shared queue no worker
    /// owns; data-plane traffic keeps flowing through the workers in the
    /// meantime.
    fn control_roundtrip(
        &mut self,
        rank: usize,
        request_tag: u64,
        reply_tag: u64,
        body: &[u8],
    ) -> Result<Vec<u8>> {
        let clients = self.shared.clients.len();
        if rank < clients || rank >= clients + self.servers {
            return Err(CoreError::Transport(format!(
                "control request addressed to invalid rank {rank} ({}..={} expected)",
                clients,
                clients + self.servers - 1
            )));
        }
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
}

impl Transport for ThreadTransport {
    fn backend_name(&self) -> &'static str {
        "threads"
    }

    /// Per-link reliability health, assembled **without blocking any client
    /// worker**: every rank — clients included — reports the most-stressed
    /// link it last published to the shared atomic table (one row per rank).
    /// Rows are read field-by-field with relaxed loads, so a snapshot may
    /// tear between fields of a row that is being republished concurrently;
    /// the values are diagnostic and each field is individually recent.
    fn link_health(&self) -> Vec<(u32, LinkHealth)> {
        let Some(chaos) = &self.chaos else {
            return Vec::new();
        };
        let ranks = self.shared.clients.len() + self.servers;
        (0..ranks)
            .filter_map(|rank| chaos.table.health_snapshot(rank).map(|h| (rank as u32, h)))
            .collect()
    }

    fn node_count(&self) -> usize {
        self.servers + self.shared.clients.len()
    }

    fn client_count(&self) -> usize {
        self.shared.clients.len()
    }

    fn client(&self, id: ClientId) -> ClientRef<'_> {
        assert!(id.0 < self.shared.clients.len(), "no client with id {id}");
        ClientRef::Locked(relock(&self.shared.clients[id.0].runtime))
    }

    fn client_mut(&mut self, id: ClientId) -> ClientRefMut<'_> {
        assert!(id.0 < self.shared.clients.len(), "no client with id {id}");
        ClientRefMut::Locked(relock(&self.shared.clients[id.0].runtime))
    }

    fn attach_claims(&mut self, claims: &Arc<ClaimShards>) {
        // Workers pick the table up through the shared slot and start
        // depositing completions directly; `take_completions` then drains
        // whatever (rare) residue is still buffered runtime-side.  Replace,
        // don't set-once: `ClusterBuilder::build` wraps the transport in a
        // `Cluster` twice (once typed, once boxed) and only the outer
        // cluster's table is ever read.
        *self
            .shared
            .claims
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(claims));
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        // Clients apply immediately (under their runtime locks); servers
        // catch up (in registry order, hence with identical handler ids)
        // before their next message.
        for client in &self.shared.clients {
            relock(&client.runtime).deploy_am_handler(name.to_string(), handler.clone());
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
        flush_outgoing(&self.shared, &self.injector, id.0);
        Ok(())
    }

    fn step(&mut self) -> Result<bool> {
        let busy_deadline = Instant::now() + self.tuning.busy_step_timeout;
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
            let unacked = self
                .chaos
                .as_ref()
                .map(|c| c.table.total_unacked())
                .unwrap_or(0);
            if unacked > 0 {
                // Reliability work is outstanding: report progress so waits
                // keep running — but bound the total silence.  A frame that
                // stays unacked through many busy budgets with zero traffic
                // (dead node thread, unhealable partition) must not wedge
                // idleness detection forever.
                //
                // The bound must out-wait the retransmission machinery
                // itself: with an armed RTO deadline, a healthy link can
                // legitimately stay silent for a full backed-off round (up
                // to `rto_max`), so a horizon shorter than a few such rounds
                // would declare `WaitTimeout` on traffic the reliable layer
                // was about to recover (the pre-fix bug when
                // `busy_step_timeout` was tuned below the RTO backoff).
                let now = Instant::now();
                let since = *self.stalled_since.get_or_insert(now);
                let rel_horizon = self
                    .chaos
                    .as_ref()
                    .map(|c| Duration::from_nanos(c.rto_max) * 4)
                    .unwrap_or(Duration::ZERO);
                let horizon = (self.tuning.busy_step_timeout * 10).max(rel_horizon);
                if now.duration_since(since) < horizon {
                    return Ok(true);
                }
                return Ok(false);
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

    fn take_completions(&mut self, id: ClientId) -> Vec<Completion> {
        assert!(id.0 < self.shared.clients.len(), "no client with id {id}");
        // Post-`attach_claims` the worker deposits straight into the shards
        // and this is usually empty; completions produced on the driver's
        // own paths (loopback before attach) still flow through here.
        relock(&self.shared.clients[id.0].runtime).take_completions()
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn unacked_total(&self) -> u64 {
        self.chaos
            .as_ref()
            .map(|c| c.table.total_unacked())
            .unwrap_or(0)
    }

    fn next_rel_deadline(&self) -> Option<u64> {
        self.chaos
            .as_ref()
            .and_then(|c| c.table.earliest_deadline())
    }

    fn read_memory(&mut self, rank: usize, addr: u64, len: usize) -> Result<Vec<u8>> {
        if rank < self.shared.clients.len() {
            let mut buf = vec![0u8; len];
            relock(&self.shared.clients[rank].runtime)
                .memory
                .read(addr, &mut buf)
                .map_err(|e| CoreError::Transport(e.to_string()))?;
            return Ok(buf);
        }
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&addr.to_le_bytes());
        body.extend_from_slice(&(len as u64).to_le_bytes());
        let reply = self.control_roundtrip(rank, wire::TAG_PEEK, wire::TAG_PEEK_REPLY, &body)?;
        if reply.len() != len {
            return Err(CoreError::Transport(format!(
                "peek of {len} bytes at {addr:#x} on rank {rank} failed"
            )));
        }
        Ok(reply)
    }

    fn write_memory(&mut self, rank: usize, addr: u64, data: &[u8]) -> Result<()> {
        if rank < self.shared.clients.len() {
            return relock(&self.shared.clients[rank].runtime)
                .memory
                .write(addr, data)
                .map_err(|e| CoreError::Transport(e.to_string()));
        }
        let mut body = Vec::with_capacity(8 + data.len());
        body.extend_from_slice(&addr.to_le_bytes());
        body.extend_from_slice(data);
        let reply = self.control_roundtrip(rank, wire::TAG_POKE, wire::TAG_POKE_ACK, &body)?;
        if reply != [1] {
            return Err(CoreError::Transport(format!(
                "poke of {} bytes at {addr:#x} on rank {rank} failed",
                data.len()
            )));
        }
        Ok(())
    }

    fn node_stats(&mut self, rank: usize) -> Result<RuntimeStats> {
        if rank < self.shared.clients.len() {
            return Ok(relock(&self.shared.clients[rank].runtime).stats);
        }
        let reply = self.control_roundtrip(rank, wire::TAG_STATS, wire::TAG_STATS_REPLY, &[])?;
        wire::decode_stats(&reply)
    }

    fn metrics(&self) -> TransportMetrics {
        let m = self
            .cluster
            .as_ref()
            .map(|c| c.metrics())
            .unwrap_or(self.final_metrics);
        let (retransmits, dup_drops) = self
            .chaos
            .as_ref()
            .map(|c| c.table.totals())
            .unwrap_or((0, 0));
        TransportMetrics {
            messages_delivered: m.delivered,
            messages_dropped: m.dropped(),
            bytes_sent: self
                .shared
                .clients
                .iter()
                .map(|c| relock(&c.runtime).stats.bytes_sent)
                .sum(),
            retransmits,
            dup_drops,
            faults_injected: self
                .chaos
                .as_ref()
                .map(|c| c.session.stats().total_injected())
                .unwrap_or(0),
        }
    }

    fn node_reliability(&self, rank: usize) -> Option<RelMetrics> {
        self.rel_metrics(rank)
    }

    fn chaos_stats(&self) -> Option<ChaosStats> {
        ThreadTransport::chaos_stats(self)
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
