//! The one server rank, the one client rank and the one driver under the two
//! wall-clock backends.
//!
//! Every rank is the same machine: a [`NodeRuntime`] behind a [`Link`], fed
//! frames by a carrier and answering through the carrier's `emit(to, tag,
//! data, payload)` closure, on the carrier's one clock reading per pass.
//!
//! # Server ranks
//!
//! A threaded server node and a socket server process are carriers over a
//! [`ServerHost`], which owns the four rules both must keep:
//!
//! * **Control is a FIFO barrier.**  A control request — peek, poke, stats
//!   or AM deployment — is served only after every data frame that arrived
//!   before it has been polled and answered, so an AM posted before a
//!   redeployment runs the handler it was posted under.  The handler a
//!   deployment names comes from the [`AmCatalog`] the carrier built the host
//!   with, and [`deploy_am`] is the one deploy order: every server, then the
//!   clients.
//! * **Replies leave behind the poll.**  Whatever the runtime posts is
//!   emitted after `poll(usize::MAX)`, so no cumulative ack — pure or
//!   piggybacked — ever covers an operation whose effects do not exist yet.
//!   On the FIFO socket that is what makes a kill between two flushes
//!   recoverable by frame replay.
//! * **An immediate ack goes out behind that poll too** — a duplicate's, or
//!   one naming the gap an arrival left open — it is cumulative like any
//!   other.
//! * **One pass, one close.**  [`ServerHost::end_pass`] polls what is still
//!   pending, re-sends what the pass's acks named missing, emits the one pure
//!   ack per peer nothing piggybacked, runs the retransmission timer and
//!   returns the [`Digest`] to publish.
//!
//! The carrier supplies what differs: how frames arrive, what `emit` does
//! with a rank (and with [`DRIVER_PORT`], where errors and control replies
//! go), where the digest is published, and whether a send to this very rank
//! is looped back here (the socket rank: its only wire leads to the driver)
//! or emitted like any other (the thread rank: the fabric delivers it).
//!
//! # Client ranks
//!
//! A client is a rank that also serves (GET replies, result writes,
//! client-to-client PUTs).  The threaded backend's caller (inside `step`,
//! `control` and `flush_client`) and the socket driver each carry every
//! [`ClientHost`] their [`Driver`] owns, and [`flush_clients`] is the one
//! worklist that moves what the clients post.  The host owns the client-rank
//! rules:
//!
//! * **Client-to-client traffic is loopback class**: it never enters a link
//!   and is never faulted (the simulated backend exempts it too, or the
//!   chaos schedules diverge).  A self-send is delivered in place; a
//!   sibling's is handed to [`flush_clients`], which delivers it in posting
//!   order and then flushes the destination, so what the delivery provokes
//!   leaves in the same flush.
//! * **Take, encode, emit is one step** ([`ClientHost::flush`]), so
//!   same-link wire order is posting order (a cached-id ifunc frame never
//!   ahead of the registration frame it needs).
//! * **A destination beyond the cluster leaves raw**, unretained; the
//!   carrier counts the fabric drop.
//! * **Inbound frames pass the link**; a duplicate, or an arrival that
//!   leaves frames parked behind a gap, is acked at once (nothing on a
//!   client waits on a poll), and an operation whose head names another rank
//!   is a typed error.
//! * **One pass: stage, flush, close.**  Frames only stage operations;
//!   [`flush_clients`] polls and answers them once and the carrier collects
//!   errors and completions; [`ClientHost::end_pass`] re-sends what the
//!   pass's acks named missing, emits the owed pure acks, runs the
//!   retransmission timer.
//!
//! # Fault gates
//!
//! Under a fault plan a host owns a fault gate ([`HoldBack`]): every reliable
//! frame and ack it emits meets one decision of the cluster's one
//! [`ChaosSession`] there, on the emitting thread, as the simulator decides
//! at its sender.  The host is the only sender on its links, so the gate's
//! `(src, dst)`-keyed table needs no lock.  (A socket server process has no
//! plan: the socket driver gates its frames on arrival.)
//!
//! # The driver
//!
//! In the paper an initiator posts, progresses its own worker and reaps its
//! own completions: one progress loop, whatever carries the bytes.  A
//! [`Driver`] is that loop's driver side, kept once for both wall-clock
//! backends: the client hosts, errors, chaos session, link tunables, tokens
//! (control requests, liveness nonces), timeouts, and the one stall rule
//! ([`Driver::silence`]) with its event ring.  [`Driver::flush`] and
//! [`Driver::close_pass`] take the carrier's `emit(from, to, tag, data,
//! payload)`; [`Driver::snapshot`] is the half of a [`Snapshot`] both
//! backends share.  A backend keeps only its own: the threaded fabric
//! (dispatch by port, the AM catalog, the digest table) or the socket
//! connections (admission, the ingress gate, the inbox, recovery).

use super::link::{self, pass_now, Digest, Emit, Link};
use super::reliable::RelConfig;
use super::snapshot::{EventKind, EventRing, RankSnapshot, Snapshot};
use super::socket::DRIVER_PORT;
use super::{no_such_client, wire, ClientId, Transport};
use crate::error::{CoreError, Result};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, FaultPlan, HoldBack};
use tc_ucx::{Bytes, OutgoingMessage, WorkerAddr};

/// The AM handlers a server rank deploys by name: a socket process's
/// compiled-in catalog, or the one the threaded backend's `deploy_am` adds to
/// before it asks.  Locked only while a deployment is served.
pub(crate) type AmCatalog = Arc<Mutex<HashMap<String, NativeAmHandler>>>;

/// Lock a mutex, recovering from poison: every structure behind these locks
/// (catalog entries, digests) is whole between statements, and losing the
/// transport to a thread that panicked elsewhere would be worse.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A host's fault gate (see the module docs): its rank and the hold-back of
/// what it emits, `(to, tag, data, payload)`; `None` without a fault plan.
type Gate = Option<(u32, HoldBack<(u32, u64, Bytes, Bytes)>)>;

/// `emit` behind `gate`: reliable frames and acks meet one decision each;
/// raw operations, errors and control replies pass.
fn gated<'a>(gate: &'a mut Gate, mut emit: impl Emit + 'a) -> impl Emit + 'a {
    move |to, tag, data, payload| match gate {
        Some((rank, held)) if matches!(tag, wire::TAG_ROP | wire::TAG_ACK) => {
            let out = |(to, tag, data, payload)| emit(to, tag, data, payload);
            held.apply(*rank as usize, to as usize, (to, tag, data, payload), out)
        }
        _ => emit(to, tag, data, payload),
    }
}

/// Rank `peer` was reborn with a fresh sequence space: drop what the gate
/// parked on its links, then renumber and re-send what the link retained.
fn reborn(peer: u32, link: &mut Link, gate: &mut Gate, emit: impl Emit) {
    if let Some((_, held)) = gate {
        held.forget_node(peer as usize);
    }
    link.replay(peer, gated(gate, emit));
}

/// One server rank: see the module docs.
pub(crate) struct ServerHost {
    runtime: NodeRuntime,
    link: Link,
    gate: Gate,
    catalog: AmCatalog,
    /// Deliver sends to this rank locally instead of emitting them.
    loopback: bool,
    /// Operations were delivered to the runtime and not polled yet.
    pending: bool,
}

impl ServerHost {
    /// Links reliable under `rel`; frames faulted as they leave under `chaos`
    /// (a socket server process has none: the driver gates its frames); AM
    /// handlers deployed from `catalog`.
    pub(crate) fn new(
        runtime: NodeRuntime,
        rel: Option<RelConfig>,
        loopback: bool,
        chaos: Option<&ChaosSession>,
        catalog: AmCatalog,
    ) -> Self {
        ServerHost {
            link: Link::new(runtime.node_id().0, runtime.num_nodes(), rel),
            gate: chaos.map(|c| (runtime.node_id().0, HoldBack::new(c.clone()))),
            catalog,
            runtime,
            loopback,
            pending: false,
        }
    }

    pub(crate) fn runtime(&self) -> &NodeRuntime {
        &self.runtime
    }

    /// Poll every delivered operation and emit what the runtime posted.
    fn flush(&mut self, now: u64, emit: &mut impl Emit) {
        let rank = self.runtime.node_id().0;
        let mut emit = gated(&mut self.gate, emit);
        while std::mem::take(&mut self.pending) {
            self.runtime.poll_each(usize::MAX, |outcome| {
                if let Err(e) = outcome {
                    report(&mut emit, e.to_string());
                }
            });
            while let Some(msg) = self.runtime.next_outgoing() {
                if self.loopback && msg.dst.0 == rank {
                    // The fault model excludes self-sends on every backend:
                    // deliver directly and poll again.
                    self.runtime.deliver(msg);
                    self.pending = true;
                    continue;
                }
                let (tag, data, payload) = self.link.outbound(&msg, now);
                emit(msg.dst.0, tag, data, payload);
            }
        }
    }

    /// Answer one control request: its reply body under its token, or
    /// `None` for a malformed request or an unknown tag.
    fn serve(&mut self, tag: u64, data: &[u8]) -> Option<Vec<u8>> {
        let (token, body) = wire::decode_control(data).ok()?;
        let reply = match tag {
            wire::TAG_AM_DEPLOY => {
                let name = String::from_utf8_lossy(body);
                let handler = relock(&self.catalog).get(&*name).cloned();
                let deployed = handler.map(|h| self.runtime.deploy_am_handler(name, h));
                vec![deployed.is_some() as u8]
            }
            _ => wire::serve_control(&mut self.runtime, tag, body)?,
        };
        Some(wire::encode_control(token, &reply))
    }

    /// Terminate one frame `from` sent to this rank: a data-plane frame goes
    /// through the link into the runtime; anything else is a control request,
    /// served once everything that arrived before it has been polled and
    /// answered (unknown tags are dropped).
    pub(crate) fn on_frame(
        &mut self,
        from: u32,
        tag: u64,
        data: Bytes,
        payload: Bytes,
        now: u64,
        mut emit: impl Emit,
    ) {
        if !matches!(tag, wire::TAG_OP | wire::TAG_ROP | wire::TAG_ACK) {
            self.flush(now, &mut emit);
            if let Some(reply) = self.serve(tag, &data) {
                emit(DRIVER_PORT, wire::TAG_REPLY, reply.into(), Bytes::new());
            }
            return;
        }
        let (runtime, pending) = (&mut self.runtime, &mut self.pending);
        let arrival = self.link.inbound(from, tag, data, payload, now, |op| {
            runtime.deliver(op);
            *pending = true;
        });
        match arrival {
            Ok(None) => {}
            Ok(Some(ack)) => {
                self.flush(now, &mut emit);
                gated(&mut self.gate, emit)(from, wire::TAG_ACK, ack, Bytes::new());
            }
            Err(e) => report(&mut emit, e.to_string()),
        }
    }

    /// Close one pass over the carrier's inbound frames (or one idle tick).
    pub(crate) fn end_pass(&mut self, now: u64, mut emit: impl Emit) -> Digest {
        self.flush(now, &mut emit);
        self.link.finish_batch(now, gated(&mut self.gate, emit));
        self.link.digest().unwrap_or_default()
    }

    /// Peer rank `peer` was reborn with no code: [`reborn`], and forget it in the sender cache.
    pub(crate) fn replay(&mut self, peer: u32, emit: impl Emit) -> Digest {
        self.runtime.forget_endpoint(WorkerAddr(peer));
        reborn(peer, &mut self.link, &mut self.gate, emit);
        self.link.digest().unwrap_or_default()
    }
}

/// Report a node-side failure to the driver.  Errors ride the same wire as
/// control replies, so one emitted before a reply is collected before it.
fn report(emit: &mut impl Emit, text: String) {
    emit(
        DRIVER_PORT,
        wire::TAG_ERROR,
        text.into_bytes().into(),
        Bytes::new(),
    );
}

/// One client rank: see the module docs.
pub(crate) struct ClientHost {
    runtime: NodeRuntime,
    link: Link,
    gate: Gate,
    /// Ranks `0..clients` are the client ranks.
    clients: u32,
    /// Operations were delivered to the runtime and not polled yet.
    pending: bool,
    /// Failures since the carrier last collected them.
    errors: Vec<CoreError>,
}

impl ClientHost {
    pub(crate) fn new(
        runtime: NodeRuntime,
        rel: Option<RelConfig>,
        clients: u32,
        chaos: Option<&ChaosSession>,
    ) -> Self {
        ClientHost {
            link: Link::new(runtime.node_id().0, runtime.num_nodes(), rel),
            gate: chaos.map(|c| (runtime.node_id().0, HoldBack::new(c.clone()))),
            runtime,
            clients,
            pending: false,
            errors: Vec::new(),
        }
    }

    pub(crate) fn runtime(&self) -> &NodeRuntime {
        &self.runtime
    }

    pub(crate) fn runtime_mut(&mut self) -> &mut NodeRuntime {
        &mut self.runtime
    }

    /// This rank's entry in a [`super::Snapshot`].
    pub(crate) fn observe(&self) -> RankSnapshot {
        let (rank, stats) = (self.runtime.node_id().0, self.runtime.stats);
        RankSnapshot::local(rank, Some(stats), self.link.rel())
    }

    /// Operations are staged and await the next [`ClientHost::flush`].
    pub(crate) fn pending(&self) -> bool {
        self.pending
    }

    pub(crate) fn take_errors(&mut self) -> Vec<CoreError> {
        std::mem::take(&mut self.errors)
    }

    /// Terminate one data-plane frame `from` sent to this rank: stage what
    /// became deliverable (returning how many operations) and emit the ack
    /// the link wants sent at once, if any.
    pub(crate) fn on_frame(
        &mut self,
        from: u32,
        tag: u64,
        data: Bytes,
        payload: Bytes,
        now: u64,
        emit: impl Emit,
    ) -> u64 {
        let rank = self.runtime.node_id().0;
        let (runtime, errors) = (&mut self.runtime, &mut self.errors);
        let mut staged = 0;
        let arrival = self.link.inbound(from, tag, data, payload, now, |op| {
            if op.dst.0 == rank {
                runtime.deliver(op);
                staged += 1;
            } else {
                errors.push(CoreError::Transport(format!(
                    "client rank {rank} received an operation for rank {}",
                    op.dst.0
                )));
            }
        });
        self.pending |= staged > 0;
        match arrival {
            Ok(None) => {}
            Ok(Some(ack)) => gated(&mut self.gate, emit)(from, wire::TAG_ACK, ack, Bytes::new()),
            Err(e) => self.errors.push(e),
        }
        staged
    }

    /// A sibling's loopback delivery: stage it for the flush that follows.
    pub(crate) fn accept(&mut self, msg: OutgoingMessage) {
        self.runtime.deliver(msg);
        self.pending = true;
    }

    /// Poll what is staged and move everything the runtime posted, until it
    /// posts no more.  Returns the sibling-bound messages, in posting order,
    /// for the caller to [`ClientHost::accept`] into their destinations.
    pub(crate) fn flush(&mut self, now: u64, emit: impl Emit) -> Vec<OutgoingMessage> {
        let rank = self.runtime.node_id().0;
        let mut emit = gated(&mut self.gate, emit);
        let mut siblings = Vec::new();
        loop {
            if std::mem::take(&mut self.pending) {
                let errors = &mut self.errors;
                self.runtime
                    .poll_each(usize::MAX, |outcome| errors.extend(outcome.err()));
            }
            while let Some(msg) = self.runtime.next_outgoing() {
                if msg.dst.0 == rank {
                    self.runtime.deliver(msg);
                    self.pending = true;
                } else if msg.dst.0 < self.clients {
                    siblings.push(msg);
                } else {
                    let (tag, data, payload) = self.link.outbound(&msg, now);
                    emit(msg.dst.0, tag, data, payload);
                }
            }
            if !self.pending {
                return siblings;
            }
        }
    }

    /// Close one pass over the carrier's inbound frames (or one idle tick),
    /// after [`flush_clients`] answered what the pass staged.
    pub(crate) fn end_pass(&mut self, now: u64, emit: impl Emit) {
        self.link.finish_batch(now, gated(&mut self.gate, emit));
    }

    /// As [`ServerHost::replay`].
    pub(crate) fn replay(&mut self, peer: u32, emit: impl Emit) {
        self.runtime.forget_endpoint(WorkerAddr(peer));
        reborn(peer, &mut self.link, &mut self.gate, emit);
    }
}

/// The driver's way out for a frame of client `from`: `emit(from, to_rank,
/// tag, data, payload)`.
pub(crate) trait EmitFrom: FnMut(usize, u32, u64, Bytes, Bytes) {}
impl<F: FnMut(usize, u32, u64, Bytes, Bytes)> EmitFrom for F {}

/// Move everything client `origin` posted — and everything its loopback
/// traffic makes its siblings post — until all of them are quiescent,
/// through `emit`; the caller collects the hosts' errors afterwards.
fn flush_clients(origin: usize, hosts: &mut [ClientHost], now: u64, mut emit: impl EmitFrom) {
    let mut dirty = vec![origin];
    while let Some(c) = dirty.pop() {
        let Some(host) = hosts.get_mut(c) else {
            continue;
        };
        let emit_c = |to, tag, data, payload| emit(c, to, tag, data, payload);
        let siblings = host.flush(now, emit_c);
        for msg in siblings {
            // `ClientHost::flush` only hands back destinations below its
            // client count, which is `hosts.len()`.
            let dst = msg.dst.index();
            if let Some(host) = hosts.get_mut(dst) {
                host.accept(msg);
                if !dirty.contains(&dst) {
                    dirty.push(dst);
                }
            }
        }
    }
}

/// Ask server `rank` to deploy the handler its catalog holds for `name`.
pub(crate) fn deploy_on(t: &mut impl Transport, rank: usize, name: &str) -> Result<()> {
    match t.control(rank, wire::TAG_AM_DEPLOY, name.as_bytes())?[..] {
        [1] => Ok(()),
        _ => Err(CoreError::UnknownAmHandler {
            name: format!("{name} (not in the AM catalog of rank {rank})"),
        }),
    }
}

/// Deploy AM `name` on every rank of a wall-clock backend, in the one order
/// that keeps handler ids agreeing: every server first, then the clients.
/// The servers share one catalog, so a name it lacks is refused by the first
/// and no rank holds a handler ahead of the others.
pub(crate) fn deploy_am(t: &mut impl Transport, name: &str, am: &NativeAmHandler) -> Result<()> {
    let clients = t.client_count();
    for rank in clients..t.node_count() {
        deploy_on(t, rank, name)?;
    }
    for c in 0..clients {
        t.client_mut(ClientId(c))
            .deploy_am_handler(name, am.clone());
    }
    Ok(())
}

/// The driver side of a wall-clock backend: see the module docs.
pub(crate) struct Driver {
    /// The client ranks, in rank order.
    pub(crate) hosts: Vec<ClientHost>,
    /// Errors reported by server ranks, the client hosts or the carrier, in
    /// observation order.
    pub(crate) errors: Vec<CoreError>,
    /// The fault session; `None` keeps every link plain.
    pub(crate) chaos: Option<ChaosSession>,
    /// The reliable links' tunables, in force under a fault plan only.
    rel: RelConfig,
    /// The last token handed out.
    token: u64,
    /// Since when steps have seen silence with frames unacked.
    stalled_since: Option<Instant>,
    /// Driver-side state transitions, for the snapshot.
    pub(crate) events: EventRing,
    /// How long one step waits for traffic: [`link::STEP_TIMEOUT`].
    pub(crate) step_timeout: Duration,
    /// How long a control round trip may take: [`link::CONTROL_TIMEOUT`].
    pub(crate) control_timeout: Duration,
}

impl Driver {
    /// `clients` client ranks (at least one) of a cluster with `servers`
    /// more, on `triple`; their links are reliable exactly when a fault plan
    /// is given (under `rel`, or [`RelConfig::threads_default`]).
    pub(crate) fn new(
        clients: usize,
        servers: usize,
        triple: TargetTriple,
        plan: Option<FaultPlan>,
        rel: Option<RelConfig>,
    ) -> Driver {
        let clients = clients.max(1);
        let total = (clients + servers) as u32;
        let rel = rel.unwrap_or_else(RelConfig::threads_default);
        let link = plan.as_ref().map(|_| rel);
        let chaos = plan.map(ChaosSession::new);
        let hosts = (0..clients as u32)
            .map(|c| {
                let runtime = NodeRuntime::new(WorkerAddr(c), total, triple);
                ClientHost::new(runtime, link, clients as u32, chaos.as_ref())
            })
            .collect();
        Driver {
            hosts,
            errors: Vec::new(),
            chaos,
            rel,
            token: 0,
            stalled_since: None,
            events: EventRing::default(),
            step_timeout: link::STEP_TIMEOUT,
            control_timeout: link::CONTROL_TIMEOUT,
        }
    }

    pub(crate) fn clients(&self) -> usize {
        self.hosts.len()
    }

    /// What every rank's link runs under: `None` means plain links.
    pub(crate) fn link_config(&self) -> Option<RelConfig> {
        self.chaos.as_ref().map(|_| self.rel)
    }

    /// The one clock reading of a pass.
    pub(crate) fn now(&self) -> u64 {
        pass_now(self.chaos.is_some())
    }

    /// A token no earlier control request or liveness probe carried.
    pub(crate) fn token(&mut self) -> u64 {
        self.token += 1;
        self.token
    }

    /// The index of client `id`, or the typed error for a client this
    /// driver does not have.
    pub(crate) fn known(&self, id: ClientId) -> Result<usize> {
        let known = id.0 < self.hosts.len();
        known.then_some(id.0).ok_or_else(|| no_such_client(id))
    }

    /// Client `id`'s runtime.  [`super::Cluster`] checks every id it hands
    /// down, so an unknown one cannot arrive from there.
    pub(crate) fn client(&self, id: ClientId) -> &NodeRuntime {
        assert!(id.0 < self.hosts.len(), "no client with id {id}");
        self.hosts[id.0].runtime()
    }

    pub(crate) fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        assert!(id.0 < self.hosts.len(), "no client with id {id}");
        self.hosts[id.0].runtime_mut()
    }

    /// Move everything client `origin` (and whoever its loopback traffic
    /// reaches) posted through `emit`, and collect the hosts' errors.
    pub(crate) fn flush(&mut self, origin: usize, emit: impl EmitFrom) {
        let now = self.now();
        flush_clients(origin, &mut self.hosts, now, emit);
        self.collect_errors();
    }

    /// Close one pass over the carrier's inbound frames (or one park of
    /// silence): answer what the pass staged, close every client's link (owed
    /// acks, gap repairs, the timer) and collect the hosts' errors.  Returns
    /// how many flushes the staged operations took.
    pub(crate) fn close_pass(&mut self, now: u64, mut emit: impl EmitFrom) -> usize {
        let mut flushes = 0;
        // A flush leaves every client it reached with nothing staged.
        while let Some(c) = self.hosts.iter().position(ClientHost::pending) {
            flush_clients(c, &mut self.hosts, now, &mut emit);
            flushes += 1;
        }
        for (c, host) in self.hosts.iter_mut().enumerate() {
            host.end_pass(now, |to, tag, data, payload| {
                emit(c, to, tag, data, payload)
            });
        }
        self.collect_errors();
        flushes
    }

    fn collect_errors(&mut self) {
        for host in &mut self.hosts {
            self.errors.extend(host.take_errors());
        }
    }

    /// A step made progress: the stall horizon starts over.
    pub(crate) fn progress(&mut self) {
        self.stalled_since = None;
    }

    /// The one stall rule, after a step's full park of silence.  Frames
    /// unacked on any rank — the clients' own, or as `servers` last published
    /// — will retransmit, so the step is busy (`Some(true)`) until a horizon
    /// that out-waits several fully backed-off rounds; then `Some(false)`, as
    /// a frame nobody can ack (dead node, unhealable partition) must let
    /// waits time out.  With nothing unacked the horizon starts over and
    /// `None` leaves the verdict to the carrier's own idleness checks.
    pub(crate) fn silence(&mut self, servers: impl Iterator<Item = u64>) -> Option<bool> {
        let own = self
            .hosts
            .iter()
            .filter_map(|h| Some(h.link.rel()?.unacked_total()));
        if own.chain(servers).sum::<u64>() == 0 {
            self.stalled_since = None;
            return None;
        }
        let now = Instant::now();
        if self.stalled_since.is_none() {
            self.events.push(None, EventKind::StallEntered);
        }
        let horizon =
            (link::BUSY_STEP_TIMEOUT * 10).max(Duration::from_nanos(self.rel.rto_max) * 4);
        let within = now.duration_since(*self.stalled_since.get_or_insert(now)) < horizon;
        if !within {
            self.events.push(None, EventKind::StallGivenUp);
        }
        Some(within)
    }

    /// Server rank `peer` was reborn with a fresh sequence space and no
    /// code: every client forgets it in its gate and its sender cache, and
    /// renumbers and re-sends what it retained for it.
    pub(crate) fn replay_to(&mut self, peer: u32, mut emit: impl EmitFrom) {
        for (c, host) in self.hosts.iter_mut().enumerate() {
            let emit = |to, tag, data, payload| emit(c, to, tag, data, payload);
            host.replay(peer, emit);
        }
    }

    /// What a backend's [`super::Transport::observe`] shares: the clients'
    /// own ranks, then `servers`, the errors, the chaos counters and the
    /// events.  The backend adds its fabric counts.
    pub(crate) fn snapshot(
        &self,
        backend: &'static str,
        servers: impl Iterator<Item = RankSnapshot>,
    ) -> Snapshot {
        let clients = self.hosts.iter().map(ClientHost::observe);
        Snapshot {
            backend,
            now_nanos: link::wall_nanos(),
            chaos: self.chaos.as_ref().map(ChaosSession::stats),
            ranks: clients.chain(servers).collect(),
            errors: self.errors.len(),
            events: self.events.to_vec(),
            ..Snapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reliable::tests::Net;
    use super::super::reliable::RelConfig;
    use super::*;
    use crate::layout::DATA_REGION_BASE;
    use crate::runtime::Completion;
    use std::collections::{HashMap, VecDeque};
    use std::sync::{Arc, Mutex};
    use tc_bitir::TargetTriple;
    use tc_simnet::SplitMix64;
    use tc_ucx::{OutgoingMessage, RequestId, UcpOp, WorkerAddr};

    const SERVER: u32 = 1;
    /// No test here runs a timer: every pass reads the clock as zero.
    const NOW: u64 = 0;
    const CFG: RelConfig = RelConfig {
        rto: 1_000_000_000,
        rto_max: 8_000_000_000,
        adaptive: true,
    };

    /// One emitted frame: `(to, tag, data, payload)`.
    type Emitted = (u32, u64, Bytes, Bytes);

    fn host(rel: Option<RelConfig>, loopback: bool) -> ServerHost {
        let runtime = NodeRuntime::new(WorkerAddr(SERVER), 2, TargetTriple::X86_64_GENERIC);
        ServerHost::new(runtime, rel, loopback, None, AmCatalog::default())
    }

    fn get(src: u32, request: u64) -> OutgoingMessage {
        OutgoingMessage {
            src: WorkerAddr(src),
            dst: WorkerAddr(SERVER),
            request: RequestId(request),
            op: UcpOp::Get {
                remote_addr: crate::layout::DATA_REGION_BASE,
                len: 8,
            },
        }
    }

    /// The GET request a reply frame answers.
    fn replied(frame: &Emitted) -> u64 {
        let head = match frame.1 {
            wire::TAG_OP => frame.2.clone(),
            wire::TAG_ROP => wire::decode_rel_head(&frame.2).unwrap().2,
            other => panic!("tag {other} is not a reply"),
        };
        match wire::decode_op_vectored(&head, &frame.3).unwrap().op {
            UcpOp::GetReply { request, .. } => request.0,
            other => panic!("{other:?} is not a GET reply"),
        }
    }

    /// The cumulative ack a reliable frame carries, pure or piggybacked.
    fn ack_of(frame: &Emitted) -> u64 {
        match frame.1 {
            wire::TAG_ACK => wire::decode_ack(&frame.2).unwrap().0,
            wire::TAG_ROP => wire::decode_rel_head(&frame.2).unwrap().1,
            other => panic!("tag {other} carries no ack"),
        }
    }

    #[test]
    fn control_is_answered_between_the_replies_of_its_neighbours() {
        for loopback in [false, true] {
            let mut host = host(None, loopback);
            let mut out: Vec<Emitted> = Vec::new();
            let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            for (tag, request) in [(wire::TAG_OP, 1), (wire::TAG_STATS, 7), (wire::TAG_OP, 2)] {
                let (data, payload) = match tag {
                    wire::TAG_OP => wire::encode_op_vectored(&get(0, request)),
                    _ => (wire::encode_control(request, &[]).into(), Bytes::new()),
                };
                host.on_frame(0, tag, data, payload, NOW, &mut emit);
            }
            assert_eq!(host.end_pass(NOW, &mut emit), Digest::default());
            let tags: Vec<(u32, u64)> = out.iter().map(|f| (f.0, f.1)).collect();
            assert_eq!(
                tags,
                [
                    (0, wire::TAG_OP),
                    (DRIVER_PORT, wire::TAG_REPLY),
                    (0, wire::TAG_OP)
                ],
                "loopback {loopback}"
            );
            assert_eq!((replied(&out[0]), replied(&out[2])), (1, 2));
            // The barrier held: the stats were sampled with exactly the
            // first GET served.
            let (token, body) = wire::decode_control(&out[1].2).unwrap();
            assert_eq!(token, 7);
            assert_eq!(wire::decode_stats(body).unwrap().gets_served, 1);
        }
    }

    #[test]
    fn self_sends_loop_back_or_leave_as_the_carrier_asked() {
        for loopback in [false, true] {
            let mut host = host(Some(CFG), loopback);
            let mut out: Vec<Emitted> = Vec::new();
            let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            // A GET this rank posted against itself: the reply is a
            // self-send, raw on every backend.
            let (data, payload) = wire::encode_op_vectored(&get(SERVER, 5));
            host.on_frame(SERVER, wire::TAG_OP, data, payload, NOW, &mut emit);
            host.end_pass(NOW, &mut emit);
            if loopback {
                assert!(out.is_empty(), "{out:?}");
                assert_eq!(host.runtime().completions_pending(), 1);
            } else {
                assert_eq!(out.len(), 1);
                assert_eq!(
                    (out[0].0, out[0].1, replied(&out[0])),
                    (SERVER, wire::TAG_OP, 5)
                );
                assert_eq!(host.runtime().completions_pending(), 0);
            }
        }
    }

    #[test]
    fn no_ack_covers_an_unpolled_op_and_a_duplicates_ack_follows_the_poll() {
        let mut client = Link::new(0, 2, Some(CFG));
        let frames: Vec<(Bytes, Bytes)> = (1..=5)
            .map(|request| {
                let (tag, data, payload) = client.outbound(&get(0, request), NOW);
                assert_eq!(tag, wire::TAG_ROP);
                (data, payload)
            })
            .collect();
        let mut host = host(Some(CFG), true);
        let mut out: Vec<Emitted> = Vec::new();
        // Every ack a host call emitted covers only operations polled by the
        // time the call returned.
        let check = |host: &ServerHost, out: &[Emitted], from: usize| {
            let served = host.runtime().stats.gets_served;
            for frame in &out[from..] {
                assert!(ack_of(frame) <= served, "ack {} > {served}", ack_of(frame));
            }
        };

        // Two in-order frames stay pending; the duplicate of the first must
        // be acked at once — behind the poll of both and their replies,
        // which already carry the ack.
        for i in [0, 1, 0] {
            let (data, payload) = frames[i].clone();
            let before = out.len();
            let emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            host.on_frame(0, wire::TAG_ROP, data, payload, NOW, emit);
            check(&host, &out, before);
        }
        let tags: Vec<u64> = out.iter().map(|f| f.1).collect();
        assert_eq!(tags, [wire::TAG_ROP, wire::TAG_ROP, wire::TAG_ACK]);
        assert_eq!((replied(&out[0]), replied(&out[1])), (1, 2));
        assert_eq!(ack_of(&out[2]), 2);
        let digest = host.end_pass(NOW, |to, tag, data, payload| {
            out.push((to, tag, data, payload))
        });
        assert_eq!(out.len(), 3, "the replies piggybacked the owed ack");
        assert_eq!((digest.unacked, digest.metrics.dup_drops), (2, 1));

        // An out-of-order arrival parks and is acked at once, with nothing
        // new polled; the gap-filling frame then delivers both.
        for (i, emitted, served) in [(3, 1, 2), (2, 0, 2)] {
            let (data, payload) = frames[i].clone();
            let before = out.len();
            let emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            host.on_frame(0, wire::TAG_ROP, data, payload, NOW, emit);
            assert_eq!(out.len() - before, emitted);
            assert_eq!(host.runtime().stats.gets_served, served);
            check(&host, &out, before);
        }
        let before = out.len();
        host.end_pass(NOW, |to, tag, data, payload| {
            out.push((to, tag, data, payload))
        });
        check(&host, &out, before);
        assert_eq!((replied(&out[before]), replied(&out[before + 1])), (3, 4));
        assert_eq!(ack_of(&out[before + 1]), 4);
    }

    /// Every reliable frame and ack a host emits — flushed, acked at once,
    /// closing a pass or replayed to a reborn peer — meets exactly one
    /// decision of its gate; a control reply meets none.
    #[test]
    fn each_reliable_frame_a_host_emits_meets_one_fault_decision() {
        // Zero rates: every decision delivers once, so what is emitted is
        // exactly what was decided.
        let session = ChaosSession::new(FaultPlan::seeded(0x6A7E));
        let decided = |out: &[Emitted]| {
            let reliable = |f: &&Emitted| matches!(f.1, wire::TAG_ROP | wire::TAG_ACK);
            (
                out.iter().filter(reliable).count() as u64,
                session.stats().decisions,
            )
        };
        let triple = TargetTriple::X86_64_GENERIC;
        let runtime = NodeRuntime::new(WorkerAddr(SERVER), 2, triple);
        let catalog = AmCatalog::default();
        let mut server = ServerHost::new(runtime, Some(CFG), true, Some(&session), catalog);
        let mut peer = Link::new(0, 2, Some(CFG));
        let mut out: Vec<Emitted> = Vec::new();
        let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
        for request in 1..=3 {
            let (tag, data, payload) = peer.outbound(&get(0, request), NOW);
            server.on_frame(0, tag, data.clone(), payload.clone(), NOW, &mut emit);
            server.on_frame(0, tag, data, payload, NOW, &mut emit);
        }
        let stats = wire::encode_control(7, &[]).into();
        server.on_frame(0, wire::TAG_STATS, stats, Bytes::new(), NOW, &mut emit);
        server.end_pass(NOW, &mut emit);
        server.replay(0, &mut emit);
        assert!(out.iter().any(|f| f.1 == wire::TAG_REPLY), "{out:?}");
        let (emitted, decisions) = decided(&out);
        assert!(
            emitted >= 9,
            "3 replies, 3 duplicate acks, 3 replays: {out:?}"
        );
        assert_eq!(emitted, decisions);

        let runtime = NodeRuntime::new(WorkerAddr(0), 2, triple);
        let mut client = ClientHost::new(runtime, Some(CFG), 1, Some(&session));
        let mut more: Vec<Emitted> = Vec::new();
        let mut emit = |to, tag, data, payload| more.push((to, tag, data, payload));
        client
            .runtime_mut()
            .post_get(WorkerAddr(SERVER), DATA_REGION_BASE, 8);
        assert!(client.flush(NOW, &mut emit).is_empty());
        let (_, tag, data, payload) = out.iter().find(|f| f.1 == wire::TAG_ROP).unwrap().clone();
        client.on_frame(SERVER, tag, data.clone(), payload.clone(), NOW, &mut emit);
        client
            .runtime_mut()
            .post_get(WorkerAddr(SERVER), DATA_REGION_BASE, 8);
        assert!(client.flush(NOW, &mut emit).is_empty());
        client.on_frame(SERVER, tag, data, payload, NOW, &mut emit);
        client.end_pass(NOW, &mut emit);
        client.replay(SERVER, &mut emit);
        let (emitted, decisions) = decided(&more);
        assert!(
            emitted >= 4,
            "two GETs, an immediate ack, a replay: {more:?}"
        );
        assert_eq!(emitted + decided(&out).0, decisions);
    }

    // --- the client rank: two clients (ranks 0, 1) and one server (rank 2) --

    const FAR: u32 = 2;
    const DATA: u64 = crate::layout::DATA_REGION_BASE;

    fn clients(rel: Option<RelConfig>) -> Vec<ClientHost> {
        (0..2)
            .map(|c| {
                let runtime = NodeRuntime::new(WorkerAddr(c), 3, TargetTriple::X86_64_GENERIC);
                ClientHost::new(runtime, rel, 2, None)
            })
            .collect()
    }

    /// [`flush_clients`] over plain hosts, recording `(from, frame)`.
    fn flush_all(hosts: &mut [ClientHost], origin: usize) -> Vec<(usize, Emitted)> {
        let mut out = Vec::new();
        flush_clients(origin, hosts, NOW, |from, to, tag, data, payload| {
            out.push((from, (to, tag, data, payload)))
        });
        out
    }

    /// The operation a data frame carries, and its sequence number and
    /// piggybacked ack when it is reliable.
    fn op_of(frame: &Emitted) -> (UcpOp, Option<(u64, u64)>) {
        let (head, rel) = match frame.1 {
            wire::TAG_OP => (frame.2.clone(), None),
            wire::TAG_ROP => {
                let (seq, ack, head) = wire::decode_rel_head(&frame.2).unwrap();
                (head, Some((seq, ack)))
            }
            other => panic!("tag {other} is not a data frame"),
        };
        (wire::decode_op_vectored(&head, &frame.3).unwrap().op, rel)
    }

    /// `n` reliable frames of 8-byte PUTs the server addressed to rank `to`.
    fn server_puts(to: u32, n: u64) -> Vec<(Bytes, Bytes)> {
        let mut server = Link::new(FAR, 3, Some(CFG));
        (0..n)
            .map(|i| {
                let msg = OutgoingMessage {
                    src: WorkerAddr(FAR),
                    dst: WorkerAddr(to),
                    request: RequestId(i + 1),
                    op: UcpOp::Put {
                        remote_addr: DATA + 8 * i,
                        data: vec![i as u8 + 1; 8].into(),
                    },
                };
                let (tag, data, payload) = server.outbound(&msg, NOW);
                assert_eq!(tag, wire::TAG_ROP);
                (data, payload)
            })
            .collect()
    }

    fn read(host: &ClientHost, addr: u64) -> Vec<u8> {
        wire::peek(host.runtime(), addr, 8).unwrap()
    }

    #[test]
    fn client_to_client_and_self_sends_are_loopback_and_never_enter_a_link() {
        let mut hosts = clients(Some(CFG));
        let rt = hosts[0].runtime_mut();
        rt.post_put(WorkerAddr(1), DATA, vec![0xA1; 8]);
        rt.post_put(WorkerAddr(0), DATA, vec![0xA0; 8]);
        // The GET's reply is posted by client 1 *during* the flush and must
        // reach client 0 in the same one.
        rt.post_get(WorkerAddr(1), DATA, 8);
        let out = flush_all(&mut hosts, 0);
        assert!(out.is_empty(), "loopback traffic was emitted: {out:?}");
        assert_eq!(read(&hosts[1], DATA), [0xA1; 8]);
        assert_eq!(read(&hosts[0], DATA), [0xA0; 8]);
        assert_eq!(hosts[0].runtime().completions_pending(), 1);
        for host in &mut hosts {
            host.end_pass(NOW, |_, _, _, _| panic!("nothing is owed"));
            assert_eq!(host.link.digest().unwrap().unacked, 0);
            assert!(host.take_errors().is_empty() && !host.pending());
        }
    }

    /// Client 0 posts a PUT to client 1 and then a GET of the same bytes:
    /// one flush delivers both in posting order, so the GET reads the PUT.
    #[test]
    fn sibling_traffic_of_one_client_is_delivered_in_posting_order() {
        let mut hosts = clients(None);
        let rt = hosts[0].runtime_mut();
        rt.post_put(WorkerAddr(1), DATA, vec![7; 8]);
        let get = rt.post_get(WorkerAddr(1), DATA, 8);
        let out = flush_all(&mut hosts, 0);
        assert!(out.is_empty(), "loopback traffic was emitted: {out:?}");
        let completions = hosts[0].runtime_mut().take_completions();
        match &completions[..] {
            [crate::runtime::Completion::Get { request, data }] => {
                assert_eq!(*request, get);
                assert_eq!(data.as_slice(), [7; 8]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn each_flush_emits_what_it_took_so_the_registration_frame_stays_first() {
        let mut mb = tc_bitir::ModuleBuilder::new("noop");
        {
            let mut f = mb.entry_function();
            let zero = f.const_i64(0);
            f.ret(zero);
            f.finish();
        }
        let library =
            crate::build_ifunc_library(&mb.build(), &crate::ToolchainOptions::default()).unwrap();
        let mut host = clients(Some(CFG)).remove(0);
        let handle = host.runtime_mut().register_library(library);
        let msg = host
            .runtime()
            .create_bitcode_message(handle, vec![1])
            .unwrap();
        // Two flushes alternate (say `flush_client` and a pass close): each
        // finds one send posted and has emitted it by the time it returns.
        let mut out: Vec<(char, Emitted)> = Vec::new();
        for flusher in ['a', 'b', 'a'] {
            host.runtime_mut().send_ifunc(&msg, WorkerAddr(FAR));
            let emit = |to, tag, data, payload| out.push((flusher, (to, tag, data, payload)));
            assert!(host.flush(NOW, emit).is_empty());
        }
        let order: String = out.iter().map(|(flusher, _)| *flusher).collect();
        assert_eq!(order, "aba");
        let sizes: Vec<usize> = out
            .iter()
            .zip(1..)
            .map(|((_, frame), seq)| match op_of(frame) {
                (UcpOp::IfuncFrame { bytes, code }, Some((s, 0))) if s == seq => {
                    bytes.len() + code.len()
                }
                other => panic!("frame {seq}: {other:?}"),
            })
            .collect();
        assert!(
            sizes[0] > sizes[1] && sizes[1] == sizes[2],
            "the code-carrying frame must be seq 1, the cached-id frames behind it: {sizes:?}"
        );
        assert_eq!(host.link.digest().unwrap().unacked, 3);
    }

    #[test]
    fn a_duplicate_is_acked_at_once_and_a_burst_once_unless_piggybacked() {
        let mut host = clients(Some(CFG)).remove(0);
        let frames = server_puts(0, 4);
        let mut out: Vec<Emitted> = Vec::new();
        let feed = |host: &mut ClientHost, out: &mut Vec<Emitted>, i: usize| {
            let (data, payload) = frames[i].clone();
            host.on_frame(
                FAR,
                wire::TAG_ROP,
                data,
                payload,
                NOW,
                |to, tag, data, payload| out.push((to, tag, data, payload)),
            )
        };
        // An in-order burst stages its operations and owes one ack, which
        // the pass close pays — once.
        for i in 0..3 {
            assert_eq!(feed(&mut host, &mut out, i), 1);
        }
        assert!(out.is_empty() && host.pending());
        assert!(flush_all(std::slice::from_mut(&mut host), 0).is_empty());
        assert_eq!(read(&host, DATA + 16), [3; 8]);
        for _ in 0..2 {
            host.end_pass(NOW, |to, tag, data, payload| {
                out.push((to, tag, data, payload))
            });
        }
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].0, out[0].1, ack_of(&out[0])),
            (FAR, wire::TAG_ACK, 3)
        );
        // A duplicate stages nothing and is acked before `on_frame` returns.
        assert_eq!(feed(&mut host, &mut out, 1), 0);
        assert_eq!(out.len(), 2);
        assert_eq!((out[1].1, ack_of(&out[1])), (wire::TAG_ACK, 3));
        assert_eq!(host.link.digest().unwrap().metrics.dup_drops, 1);
        // A reverse data frame piggybacks the next owed ack; the close then
        // has nothing to add.
        assert_eq!(feed(&mut host, &mut out, 3), 1);
        host.runtime_mut().post_get(WorkerAddr(FAR), DATA, 8);
        let sent = flush_all(std::slice::from_mut(&mut host), 0);
        assert_eq!(sent.len(), 1);
        assert_eq!(op_of(&sent[0].1).1, Some((1, 4)));
        host.end_pass(NOW, |_, _, _, _| panic!("the GET carried the ack"));
        assert_eq!(host.link.digest().unwrap().metrics.acks_sent, 2);
    }

    #[test]
    fn a_destination_beyond_the_cluster_leaves_raw_and_unretained() {
        let mut host = clients(Some(CFG)).remove(0);
        host.runtime_mut()
            .post_put(WorkerAddr(99), DATA, vec![1; 8]);
        let out = flush_all(std::slice::from_mut(&mut host), 0);
        assert_eq!(out.len(), 1);
        let (from, frame) = &out[0];
        assert_eq!((*from, frame.0, frame.1), (0, 99, wire::TAG_OP));
        assert!(matches!(op_of(frame), (UcpOp::Put { .. }, None)));
        assert_eq!(
            host.link.digest().unwrap().unacked,
            0,
            "it would retransmit forever"
        );
    }

    #[test]
    fn an_operation_for_another_rank_is_a_typed_error_and_touches_no_runtime() {
        for rel in [None, Some(CFG)] {
            let mut hosts = clients(rel);
            // The server addressed client 1; the carrier hands the frame to
            // client 0.
            let stray = OutgoingMessage {
                src: WorkerAddr(FAR),
                dst: WorkerAddr(1),
                request: RequestId(1),
                op: UcpOp::Put {
                    remote_addr: DATA,
                    data: vec![9; 8].into(),
                },
            };
            let (tag, data, payload) = Link::new(FAR, 3, rel).outbound(&stray, NOW);
            let none = |_, _, _, _| panic!("an in-order arrival emits nothing");
            assert_eq!(hosts[0].on_frame(FAR, tag, data, payload, NOW, none), 0);
            assert!(matches!(
                hosts[0].take_errors()[..],
                [CoreError::Transport(_)]
            ));
            assert!(flush_all(&mut hosts, 0).is_empty());
            for host in &hosts {
                assert!(!host.pending());
                assert_eq!(host.runtime().stats.puts_applied, 0);
                assert_eq!(read(host, DATA), [0; 8]);
            }
        }
    }

    // --- one client (rank 0) and two servers (ranks 1, 2) over a seeded carrier --

    /// Retransmission timeouts on the carrier's counter clock: a handful of
    /// turns, so a tail loss is repaired within a run and a slow turn order
    /// fires the timer spuriously now and then.
    const TICKS: RelConfig = RelConfig {
        rto: 1_000,
        rto_max: 8_000,
        adaptive: true,
    };

    /// What the client posted, kept by a test that scans for its answers.
    #[derive(Default)]
    struct Posted {
        /// Per server: the value the last posted PUT writes to `DATA`.
        cell: [u64; 2],
        /// Request id → its server and, for a GET, the value it must read.
        awaited: HashMap<u64, (usize, Option<u64>)>,
        /// Per server: the last request a completion arrived for.
        last_done: [Option<u64>; 2],
        /// Per server: posted GETs, confirmed PUTs and AMs (the AMs by id).
        gets: [u64; 2],
        puts: [u64; 2],
        ams: [Vec<u64>; 2],
        /// Per server: whether its n-th posted operation — the client's
        /// frame n + 1 on that link — is an AM.
        is_am: [Vec<bool>; 2],
    }

    impl Posted {
        /// Post operation `id` — a GET, a confirmed PUT or an AM, to either
        /// server, as `rng` draws.
        fn post(&mut self, id: u64, client: &mut NodeRuntime, rng: &mut SplitMix64) {
            let s = rng.below(2) as usize;
            let dst = WorkerAddr(s as u32 + 1);
            let kind = rng.below(3);
            self.is_am[s].push(kind == 2);
            match kind {
                0 => {
                    let request = client.post_get(dst, DATA, 8);
                    self.awaited.insert(request.0, (s, Some(self.cell[s])));
                    self.gets[s] += 1;
                }
                1 => {
                    let value = id + 1;
                    let request =
                        client.post_put_confirmed(dst, DATA, value.to_le_bytes().to_vec());
                    self.awaited.insert(request.0, (s, None));
                    self.cell[s] = value;
                    self.puts[s] += 1;
                }
                _ => {
                    let payload = id.to_le_bytes().to_vec();
                    client.send_am("record", dst, payload).unwrap();
                    self.ams[s].push(id);
                }
            }
        }

        /// Exactly once (a second completion finds nothing awaited), with
        /// the bytes the posting order implies, in per-link posting order.
        fn complete(&mut self, completion: Completion, at: &str) {
            let (request, data) = match completion {
                Completion::Get { request, data } => (request.0, Some(data)),
                Completion::Put { request } => (request.0, None),
                other => panic!("{at}: {other:?} was never asked for"),
            };
            let (s, value) = self
                .awaited
                .remove(&request)
                .unwrap_or_else(|| panic!("{at}: request {request} completed twice"));
            assert_eq!(
                data.map(|d| d.to_vec()),
                value.map(|v| v.to_le_bytes().to_vec()),
                "{at}: request {request} ran out of posting order on server {s}"
            );
            assert!(
                self.last_done[s] < Some(request),
                "{at}: request {request} overtook {:?} on the link from server {s}",
                self.last_done[s]
            );
            self.last_done[s] = Some(request);
        }
    }

    /// A server's `emit` into `out`.  The client numbers its frames to a
    /// server 1.. in posting order and each is one operation, so an ack, pure
    /// or piggybacked, covers a prefix of what was posted: as it leaves, every
    /// AM of that prefix has run (`log`, the handler's, is the one effect
    /// visible from inside `emit`).
    fn checked_emit<'a>(
        out: &'a mut Vec<Emitted>,
        is_am: &'a [bool],
        log: &'a Mutex<Vec<u64>>,
        at: &'a str,
    ) -> impl FnMut(u32, u64, Bytes, Bytes) + 'a {
        move |to, tag, data, payload| {
            let frame = (to, tag, data, payload);
            assert_eq!(to, 0, "{at} answered a stranger");
            let covered = &is_am[..ack_of(&frame) as usize];
            let ams = covered.iter().filter(|am| **am).count();
            let run = log.lock().unwrap().len();
            assert!(
                ams <= run,
                "{at} acked {} frames, {ams} of them AMs, having run {run}",
                covered.len()
            );
            out.push(frame);
        }
    }

    /// The three ranks, the wires between them and what the client posted.
    struct Ranks {
        /// Which schedule this is, for a failing assertion to print.
        at: String,
        client: [ClientHost; 1],
        servers: [ServerHost; 2],
        /// The wire toward each rank: `(from, tag, data, payload)`.
        inbox: [VecDeque<Emitted>; 3],
        posted: Posted,
        /// What each server's AM handler has run, by operation id.
        logs: [Arc<Mutex<Vec<u64>>>; 2],
        next_op: u64,
        /// Each rank's unacked frames as of its last pass close.
        unacked: [u64; 3],
    }

    impl Ranks {
        /// One turn of rank `rank` at time `now`: the client posts `posts`
        /// operations, the rank takes `batch` frames off its wire and closes
        /// the pass.  What it emits leaves through `net`'s faults, or
        /// straight onto the wire without them.
        fn turn(
            &mut self,
            rank: usize,
            batch: usize,
            posts: u64,
            now: u64,
            net: &mut Net,
            faulty: bool,
        ) {
            let at = &self.at;
            let mut out: Vec<Emitted> = Vec::new();
            if rank == 0 {
                let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
                let host = &mut self.client[0];
                for _ in 0..posts {
                    self.posted
                        .post(self.next_op, host.runtime_mut(), &mut net.rng);
                    self.next_op += 1;
                }
                for _ in 0..batch {
                    let (from, tag, data, payload) = self.inbox[0].pop_front().unwrap();
                    host.on_frame(from, tag, data, payload, now, &mut emit);
                }
                flush_clients(0, &mut self.client, now, |_, to, tag, data, payload| {
                    emit(to, tag, data, payload)
                });
                let host = &mut self.client[0];
                host.end_pass(now, &mut emit);
                let errors = host.take_errors();
                assert!(errors.is_empty(), "{at}: {errors:?}");
                for completion in host.runtime_mut().take_completions() {
                    self.posted.complete(completion, at);
                }
                self.unacked[0] = host.link.digest().unwrap().unacked;
            } else {
                let host = &mut self.servers[rank - 1];
                let (is_am, log) = (&self.posted.is_am[rank - 1], &self.logs[rank - 1]);
                let at_rank = format!("{at}: rank {rank}");
                // ...and by the time the host call returns, every operation
                // of it has been polled.
                let check = |host: &ServerHost, emitted: &[Emitted]| {
                    let stats = host.runtime().stats;
                    let polled = stats.gets_served + stats.puts_applied + stats.ams_executed;
                    for frame in emitted {
                        let ack = ack_of(frame);
                        assert!(
                            ack <= polled,
                            "{at}: rank {rank} acked {ack}, polled {polled}"
                        );
                    }
                };
                for _ in 0..batch {
                    let (from, tag, data, payload) = self.inbox[rank].pop_front().unwrap();
                    let before = out.len();
                    host.on_frame(
                        from,
                        tag,
                        data,
                        payload,
                        now,
                        checked_emit(&mut out, is_am, log, &at_rank),
                    );
                    check(host, &out[before..]);
                }
                let before = out.len();
                self.unacked[rank] = host
                    .end_pass(now, checked_emit(&mut out, is_am, log, &at_rank))
                    .unacked;
                check(host, &out[before..]);
            }
            for (to, tag, data, payload) in out {
                assert!(to < 3, "{at}: rank {rank} emitted to {to}");
                let (wire, frame) = (
                    &mut self.inbox[to as usize],
                    (rank as u32, tag, data, payload),
                );
                if faulty {
                    net.ship(wire, frame);
                } else {
                    wire.push_back(frame);
                }
            }
        }
    }

    /// One generated schedule; returns the ranks' summed
    /// `[retransmits, dup_drops, out_of_order]`.
    fn run_schedule(seed: u64) -> [u64; 3] {
        const OPS: u64 = 48;
        let mut rng = SplitMix64::new(0x4057_0000 + seed);
        let faults = Net::schedule(&mut rng, seed);
        let mut net = Net::new(rng.next_u64(), faults);

        // The same handler name on every rank, so the id the client sends is
        // the id a server dispatches; a server logs the ids it executed.
        let logs: [Arc<Mutex<Vec<u64>>>; 2] = Default::default();
        let runtime = |rank: u32| {
            let mut rt = NodeRuntime::new(WorkerAddr(rank), 3, TargetTriple::X86_64_GENERIC);
            let log = rank.checked_sub(1).map(|s| Arc::clone(&logs[s as usize]));
            rt.deploy_am_handler(
                "record",
                Arc::new(move |_, payload| {
                    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    log.iter().for_each(|log| log.lock().unwrap().push(id));
                    1
                }),
            );
            rt
        };
        let mut ranks = Ranks {
            at: format!("seed {seed} faults {faults:?}"),
            client: [ClientHost::new(runtime(0), Some(TICKS), 1, None)],
            servers: [1, 2].map(|r| {
                ServerHost::new(runtime(r), Some(TICKS), true, None, AmCatalog::default())
            }),
            inbox: Default::default(),
            posted: Posted::default(),
            logs,
            next_op: 0,
            unacked: [0; 3],
        };

        // Which rank runs, how much of its wire it sees, how many operations
        // the client posts and how far the clock moves are all draws.
        let (mut now, mut turns) = (1u64, 0u32);
        while ranks.next_op < OPS || !ranks.posted.awaited.is_empty() || ranks.unacked != [0; 3] {
            turns += 1;
            assert!(turns < 200_000, "{}: never drained", ranks.at);
            now += net.rng.below(400);
            let rank = net.rng.below(3) as usize;
            let batch = net.rng.below(ranks.inbox[rank].len() as u64 + 1) as usize;
            let posts = net.rng.below(4).min(OPS - ranks.next_op);
            ranks.turn(rank, batch, posts, now, &mut net, true);
        }
        // What the faults left in flight arrives late and changes nothing.
        while let Some(rank) = ranks.inbox.iter().position(|wire| !wire.is_empty()) {
            ranks.turn(rank, ranks.inbox[rank].len(), 0, now, &mut net, false);
        }

        let Ranks {
            at,
            client: [client],
            mut servers,
            posted,
            logs,
            ..
        } = ranks;
        let mut totals = [0; 3];
        let mut add = |digest: Digest| {
            assert_eq!(digest.unacked, 0, "{at}");
            let m = digest.metrics;
            for (total, n) in totals
                .iter_mut()
                .zip([m.retransmits, m.dup_drops, m.out_of_order])
            {
                *total += n;
            }
        };
        add(client.link.digest().unwrap());
        for (s, host) in servers.iter_mut().enumerate() {
            add(host.end_pass(now, |_, _, _, _| panic!("{at}: nothing is owed")));
            let stats = host.runtime().stats;
            assert_eq!(
                (stats.gets_served, stats.puts_applied, stats.ams_executed),
                (posted.gets[s], posted.puts[s], posted.ams[s].len() as u64),
                "{at}: server {s} executes every operation exactly once"
            );
            assert_eq!(*logs[s].lock().unwrap(), posted.ams[s], "{at}: server {s}");
        }
        assert!(posted.awaited.is_empty() && client.runtime().completions_pending() == 0);
        totals
    }

    /// One `ClientHost` and two `ServerHost`s over an in-memory carrier whose
    /// every delivery, drop, duplicate and reorder is a seeded draw, on a
    /// counter for a clock: every operation takes effect exactly once, each
    /// link is FIFO in both directions, and no ack covers an unpolled
    /// operation — `link.rs`'s faulty-carrier test, one layer up.
    #[test]
    fn a_client_and_two_servers_keep_their_invariants_on_generated_schedules() {
        let mut totals = [0u64; 3];
        for seed in 0..200 {
            for (total, n) in totals.iter_mut().zip(run_schedule(seed)) {
                *total += n;
            }
        }
        let [retransmits, dup_drops, out_of_order] = totals;
        assert!(
            retransmits > 0 && dup_drops > 0 && out_of_order > 0,
            "the faulty schedules must exercise recovery: {retransmits} retransmits, \
             {dup_drops} duplicates, {out_of_order} out of order"
        );
    }

    // --- the driver -------------------------------------------------------------

    /// The stall rule: silence with a frame unacked enters the stall once,
    /// stays busy until the horizon, gives up there, and progress starts it
    /// over; silence with nothing unacked anywhere is the carrier's to judge.
    #[test]
    fn the_stall_rule_enters_once_gives_up_at_the_horizon_and_resets_on_progress() {
        let stalls = |driver: &Driver| -> Vec<EventKind> {
            driver.events.to_vec().into_iter().map(|e| e.kind).collect()
        };
        let plan = FaultPlan::seeded(1);
        let mut driver = Driver::new(1, 1, TargetTriple::X86_64_GENERIC, Some(plan), Some(CFG));
        // A server reports a frame unacked; the client has none.
        assert_eq!(driver.silence([0].into_iter()), None);
        assert_eq!(driver.silence([1].into_iter()), Some(true));
        // A GET the server never acks: the client's own link holds it.
        driver.hosts[0]
            .runtime_mut()
            .post_get(WorkerAddr(SERVER), DATA, 8);
        let mut sent = 0;
        driver.flush(0, |_, _, _, _, _| sent += 1);
        assert_eq!(sent, 1);
        for _ in 0..3 {
            assert_eq!(driver.silence(std::iter::empty()), Some(true));
        }
        assert_eq!(stalls(&driver), [EventKind::StallEntered]);

        // The horizon (ten busy-step timeouts, or four backoff caps) is past.
        let horizon = (link::BUSY_STEP_TIMEOUT * 10).max(Duration::from_nanos(CFG.rto_max) * 4);
        driver.stalled_since = Instant::now().checked_sub(horizon);
        assert!(driver.stalled_since.is_some());
        assert_eq!(driver.silence(std::iter::empty()), Some(false));
        assert_eq!(
            stalls(&driver),
            [EventKind::StallEntered, EventKind::StallGivenUp]
        );

        // Progress starts the horizon over: the next silence is busy again.
        driver.progress();
        assert_eq!(driver.stalled_since, None);
        assert_eq!(driver.silence(std::iter::empty()), Some(true));
        assert_eq!(
            stalls(&driver),
            [
                EventKind::StallEntered,
                EventKind::StallGivenUp,
                EventKind::StallEntered
            ]
        );
    }
}
