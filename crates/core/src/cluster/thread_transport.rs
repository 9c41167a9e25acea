//! The real-concurrency backend: server runtimes on OS threads, the client
//! runtimes on the caller's thread, fabric operations as tagged envelopes
//! over inboxes.
//!
//! No virtual time is involved — this backend exists to show that the
//! framework's state machines (auto-registration, sender-side caching,
//! recursive forwarding, result return) are correct under genuine
//! parallelism.
//!
//! # Execution model
//!
//! * Server rank `r` (ranks `clients..clients + servers`) is thread node
//!   `r - clients` of a [`tc_simnet::ThreadCluster`]: its own thread drains
//!   its inbox, and a server → server forward that finds the next server
//!   idle runs that server's batch on the forwarding thread (one level deep).
//! * Client rank `c` (ranks `0..clients`) is external port `c` of the fabric
//!   and the driver's control plane is port `clients`; everything addressed
//!   to either arrives on the fabric's one external queue, with
//!   [`Envelope::to`] naming the port.
//! * The **caller's thread** (whoever owns the [`ThreadTransport`]) carries
//!   every client rank through the crate-private `host` module's `Driver`,
//!   as the socket driver does, like the initiator of a UCX GET progressing
//!   its own worker.  `flush_client` moves posted operations into the fabric
//!   synchronously, so a control-plane round trip issued right after a flush
//!   still acts as a barrier behind that client's data (both ride the same
//!   per-producer FIFO inbox).  `step` parks on the external queue,
//!   dispatches a burst by port, and has the driver answer what it provoked
//!   and close the pass; `control` does the same for whatever arrives ahead
//!   of its reply.
//! * No rank arms a timer to park: under a fault plan the fabric's one
//!   `tc-clock` thread ticks every half base RTO, a server runs its timer
//!   behind the tick and the caller's park (the step timeout) ends with it.
//! * A frame's faults are decided at the gate of the host that emits it, on
//!   its thread (`host`'s "Fault gates"); the fabric delivers what it gets.
//!
//! So nothing moves on a client rank unless the caller is inside `flush*`,
//! `step`, a wait or a control call — the progress model of the simulated
//! and socket backends.  A caller that computes for longer than a server's
//! RTO between waits sees that server's retransmission arrive and be
//! deduplicated, as on the socket backend.

use super::host::{self, relock, AmCatalog, Driver, EmitFrom, ServerHost};
use super::link::{self, pass_now, Digest};
use super::reliable::RelConfig;
use super::snapshot::{RankSnapshot, RankState, Snapshot};
use super::socket::DRIVER_PORT;
use super::{check_server_rank, wire, ClientId, Transport};
use crate::error::{CoreError, Result};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::FaultPlan;
use tc_simnet::threaded::DEFAULT_MAX_BATCH;
use tc_simnet::{external_port, Envelope, NodeCtx, ThreadCluster, ThreadConfig, ThreadedNode};
use tc_ucx::{Bytes, WorkerAddr};

/// Map a threaded-fabric sender/receiver id to a cluster rank in a cluster
/// with `clients` driver-side runtimes: external port `p` is client rank
/// `p`, thread node `n` is rank `n + clients`.  The driver's control port
/// (`p == clients`) is not a data-plane endpoint: no reliable path maps it.
fn rank_of(clients: usize, fabric_id: usize) -> usize {
    match external_port(fabric_id) {
        Some(port) => port,
        None => fabric_id + clients,
    }
}

/// Every server's latest link [`Digest`], published by its node thread once
/// per batch or retransmission tick and read by the driver (the clients'
/// links are the driver's own).  One leaf mutex per server, held only for
/// the copy of a digest, so the driver never stalls a node and a snapshot
/// never tears.
type RelTable = Arc<[Mutex<Digest>]>;

/// A server node: the fabric carrier of one [`ServerHost`].  It feeds the
/// host envelopes in FIFO order, sends what the host emits (self-sends
/// included — the fabric delivers them), and publishes the host's digest.
struct ServerNode {
    host: ServerHost,
    /// Number of driver-side client ranks (this node's rank is
    /// `clients + thread_id`; the driver's control port is `clients`).
    clients: usize,
    /// Where the link digest is published (chaos mode only).
    table: Option<RelTable>,
}

impl ServerNode {
    /// The host's `emit`, onto the fabric.  Ranks below `clients` are
    /// driver-side endpoints (external ports), and [`DRIVER_PORT`] — error
    /// reports and control replies — is the driver's own control port
    /// `clients`.  The fabric counts what it cannot deliver (unknown rank,
    /// stopped node) and the transport metrics surface it.
    fn emit<'a>(&self, ctx: &'a NodeCtx) -> impl FnMut(u32, u64, Bytes, Bytes) + 'a {
        let clients = self.clients;
        move |to, tag, data, payload| {
            let _ = match to as usize {
                rank if rank < clients => ctx.send_external_port_vectored(rank, tag, data, payload),
                _ if to == DRIVER_PORT => {
                    ctx.send_external_port_vectored(clients, tag, data, payload)
                }
                rank => ctx.send_vectored(rank - clients, tag, data, payload),
            };
        }
    }

    /// Close the pass and publish its digest.
    fn end_pass(&mut self, now: u64, ctx: &NodeCtx) {
        let emit = self.emit(ctx);
        let digest = self.host.end_pass(now, emit);
        if let Some(slot) = self.table.as_ref().and_then(|t| t.get(ctx.node_id())) {
            *relock(slot) = digest;
        }
    }
}

impl ThreadedNode for ServerNode {
    /// One wakeup's worth of envelopes, in FIFO order: the host delivers
    /// consecutive data-plane messages together and polls/flushes them once,
    /// so a burst of N ifunc frames pays for one poll loop and one outgoing
    /// flush instead of N.
    fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
        let now = pass_now(self.table.is_some());
        let mut emit = self.emit(ctx);
        for msg in msgs {
            let from = rank_of(self.clients, msg.from) as u32;
            self.host
                .on_frame(from, msg.tag, msg.data, msg.payload, now, &mut emit);
        }
        self.end_pass(now, ctx);
    }

    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
        self.on_batch(vec![msg], ctx);
    }

    fn on_tick(&mut self, ctx: &NodeCtx) {
        self.end_pass(pass_now(self.table.is_some()), ctx);
    }
}

/// The driver's `emit` on this fabric: a frame from client `c` toward rank
/// `to` goes to a server's thread node (rank - clients), as client-to-client
/// traffic never leaves the driver.  Drops (unknown rank, stopped node) are
/// counted by the fabric and show up in the transport metrics.
fn client_emit(cluster: &ThreadCluster, clients: usize) -> impl EmitFrom + '_ {
    move |c, to, tag, data, payload| {
        if let Some(node) = (to as usize).checked_sub(clients) {
            let _ = cluster.send_vectored_from_port(c, node, tag, data, payload);
        }
    }
}

/// The control reply `control` is waiting for: the thread node it must come
/// from and the request's token.
type Awaited = (usize, u64);

/// Terminate one envelope taken off the external queue: a data-plane frame
/// goes to the client host its port names (which only stages what became
/// deliverable — [`Driver::close_pass`] answers it), an error report to the
/// error list.  A control reply nobody awaits is stale (its request timed
/// out) and dropped; a port that is neither a client's nor the control port
/// is a typed error.
fn dispatch(driver: &mut Driver, cluster: &ThreadCluster, env: Envelope, now: u64) {
    let clients = driver.clients();
    let data_plane = matches!(env.tag, wire::TAG_OP | wire::TAG_ROP | wire::TAG_ACK);
    let port = external_port(env.to);
    let host = port.and_then(|port| driver.hosts.get_mut(port));
    match (port, host) {
        _ if env.tag == wire::TAG_ERROR => driver.errors.push(CoreError::Transport(
            String::from_utf8_lossy(&env.data).into_owned(),
        )),
        (Some(port), Some(host)) if data_plane => {
            let from = rank_of(clients, env.from) as u32;
            let mut send = client_emit(cluster, clients);
            let emit = |to, tag, data, payload| send(port, to, tag, data, payload);
            host.on_frame(from, env.tag, env.data, env.payload, now, emit);
        }
        (Some(port), None) if !data_plane && port == clients => {}
        _ => driver.errors.push(CoreError::Transport(format!(
            "envelope (tag {}) for fabric id {} dropped: the driver has {clients} client \
             ports and one control port",
            env.tag, env.to
        ))),
    }
}

/// One pass: `first` (none after a silent park) and the burst behind it (at
/// most [`DEFAULT_MAX_BATCH`] envelopes, the server nodes' burst too),
/// dispatched in order and closed once.  Stops at the `awaited` control
/// reply, if it is in the burst, and returns its body; what is queued behind
/// it waits for the next pass.
fn pass(
    driver: &mut Driver,
    cluster: &ThreadCluster,
    first: Option<Envelope>,
    awaited: Option<Awaited>,
) -> Option<Vec<u8>> {
    let now = driver.now();
    let mut reply = None;
    let mut next = first;
    let mut taken = 0;
    while let Some(env) = next.take() {
        taken += 1;
        match awaited {
            Some((node, token)) if env.tag == wire::TAG_REPLY && env.from == node => {
                // The reply to an abandoned request carries an older token
                // and is dropped, as is one that does not decode.
                match wire::decode_control(&env.data) {
                    Ok((t, body)) if t == token => reply = Some(body.to_vec()),
                    _ => {}
                }
            }
            _ => dispatch(driver, cluster, env, now),
        }
        if reply.is_none() && taken < DEFAULT_MAX_BATCH {
            next = cluster.try_recv_external();
        }
    }
    driver.close_pass(now, client_emit(cluster, driver.clients()));
    reply
}

/// The real-concurrency cluster backend (threads + inboxes, wall-clock time).
pub struct ThreadTransport {
    /// The client ranks, carried by whichever thread drives the transport.
    driver: Driver,
    /// `None` once shut down (threads joined).
    cluster: Option<ThreadCluster>,
    /// Delivery counters captured at shutdown so `metrics` stays meaningful.
    final_metrics: tc_simnet::ThreadMetrics,
    servers: usize,
    /// What the servers deploy AM handlers from: `deploy_am` adds to it
    /// before it asks them.
    catalog: AmCatalog,
    /// The servers' digests, under a fault plan only.
    table: Option<RelTable>,
}

impl std::fmt::Debug for ThreadTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTransport")
            .field("clients", &self.driver.clients())
            .field("servers", &self.servers)
            .field("errors", &self.driver.errors.len())
            .finish()
    }
}

impl ThreadTransport {
    /// Full-control constructor used by the cluster builder: `clients`
    /// client runtimes (ranks `0..clients`, carried by the caller),
    /// `servers` threaded server nodes (ranks `clients..clients+servers`)
    /// and an optional fault plan.  With a plan installed, every data-plane
    /// frame travels over the reliable-delivery layer (sequence numbers,
    /// cumulative acks, retransmission, dedup) — with one independent
    /// sequence space per (client, server) link — and meets its fault
    /// decision at the gate of the host that emits it.
    pub fn with_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
    ) -> Self {
        let driver = Driver::new(clients, servers, client_triple, fault_plan, rel_config);
        let clients = driver.clients();
        let total = (servers + clients) as u32;
        let catalog = AmCatalog::default();
        let node_catalog = Arc::clone(&catalog);

        // Reliable links (and the fabric clock that keeps their
        // retransmission cadence) exist exactly when a fault plan does.
        let link_cfg = driver.link_config();
        let table: Option<RelTable> =
            link_cfg.map(|_| (0..servers).map(|_| Mutex::default()).collect());
        let config = ThreadConfig {
            tick: link_cfg.map(|cfg| Duration::from_nanos(cfg.rto / 2)),
        };
        let node_table = table.clone();
        let chaos = driver.chaos.clone();

        let cluster = ThreadCluster::start_with_config(servers, config, move |thread_id| {
            let rank = (thread_id + clients) as u32;
            let runtime = NodeRuntime::new(WorkerAddr(rank), total, server_triple);
            let catalog = Arc::clone(&node_catalog);
            ServerNode {
                host: ServerHost::new(runtime, link_cfg, false, chaos.as_ref(), catalog),
                clients,
                table: node_table.clone(),
            }
        });
        ThreadTransport {
            driver,
            cluster: Some(cluster),
            final_metrics: tc_simnet::ThreadMetrics::default(),
            servers,
            catalog,
            table,
        }
    }

    /// Errors reported by server nodes, the client hosts, or transport-level
    /// decode failures, in observation order.
    pub fn errors(&self) -> &[CoreError] {
        &self.driver.errors
    }
}

impl Transport for ThreadTransport {
    fn backend_name(&self) -> &'static str {
        "threads"
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
        relock(&self.catalog).insert(name.to_string(), handler.clone());
        host::deploy_am(self, name, &handler)
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        let c = self.driver.known(id)?;
        let Some(cluster) = &self.cluster else {
            return Err(CoreError::Transport("thread transport is shut down".into()));
        };
        // Synchronous on the caller's thread: when this returns, the ops are
        // in the node inboxes, so a control round trip issued next acts as
        // a barrier behind them (same per-producer FIFO).
        let clients = self.driver.clients();
        self.driver.flush(c, client_emit(cluster, clients));
        Ok(())
    }

    /// One park on the external queue — one queue whatever the client count
    /// — and one pass over what arrived.
    fn step(&mut self) -> Result<bool> {
        let mut busy_deadline = None;
        loop {
            let Some(cluster) = &self.cluster else {
                return Ok(false);
            };
            if let Some(env) = cluster.recv_external(self.driver.step_timeout) {
                pass(&mut self.driver, cluster, Some(env), None);
                self.driver.progress();
                return Ok(true);
            }
            // A park of silence; the retransmission timer runs regardless.
            pass(&mut self.driver, cluster, None, None);
            // Only call it idleness when no node-bound message is queued or
            // mid-processing — and, in chaos mode, no frame anywhere awaits
            // an ack (a partitioned link with retransmits pending is *busy*,
            // not idle) — otherwise keep waiting (bounded).
            let table = self.table.iter().flat_map(|t| t.iter());
            if let Some(busy) = self.driver.silence(table.map(|slot| relock(slot).unacked)) {
                return Ok(busy);
            }
            let now = Instant::now();
            let busy_deadline = *busy_deadline.get_or_insert(now + link::BUSY_STEP_TIMEOUT);
            if cluster.pending_messages() == 0 || now >= busy_deadline {
                // A node enqueues its reply *before* its batch's in-flight
                // count drops, so one may have landed between the park
                // ending and the count reading zero: look once more.
                let Some(env) = cluster.try_recv_external() else {
                    return Ok(false);
                };
                pass(&mut self.driver, cluster, Some(env), None);
                return Ok(true);
            }
        }
    }

    /// Issue a control request to server `rank` and wait for its tokened
    /// reply.  The request is sent from the driver's own control port
    /// (`clients`); data-plane traffic that arrives ahead of the reply is
    /// handed to the client hosts exactly as `step` would.
    fn control(&mut self, rank: usize, request_tag: u64, body: &[u8]) -> Result<Vec<u8>> {
        let clients = self.driver.clients();
        check_server_rank(clients, self.servers, rank)?;
        let Some(cluster) = &self.cluster else {
            return Err(CoreError::Transport("thread transport is shut down".into()));
        };
        let token = self.driver.token();
        let node = rank - clients;
        let request = Bytes::from(wire::encode_control(token, body));
        let status =
            cluster.send_vectored_from_port(clients, node, request_tag, request, Bytes::new());
        if !status.is_delivered() {
            return Err(CoreError::Transport(format!(
                "control request to rank {rank} not delivered: {status:?}"
            )));
        }
        let awaited = Some((node, token));
        let deadline = Instant::now() + self.driver.control_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CoreError::WaitTimeout {
                    what: format!("control reply (request tag {request_tag}) from rank {rank}"),
                });
            }
            let park = remaining.min(self.driver.step_timeout);
            let Some(env) = cluster.recv_external(park) else {
                // The retransmission timer keeps its cadence while a reply
                // is slow in coming.
                pass(&mut self.driver, cluster, None, None);
                continue;
            };
            if let Some(reply) = pass(&mut self.driver, cluster, Some(env), awaited) {
                return Ok(reply);
            }
        }
    }

    /// The clients' own links, then what each server node last published.
    fn observe(&self) -> Snapshot {
        let clients = self.driver.clients();
        let fabric = self.cluster.as_ref();
        let fabric = fabric.map_or(self.final_metrics, |c| c.metrics());
        let server = |s| {
            let digest = self.table.as_ref().and_then(|t| t.get(s));
            RankSnapshot::server(clients + s, RankState::Live, digest.map(|d| *relock(d)))
        };
        Snapshot {
            delivered: fabric.delivered,
            dropped: fabric.dropped(),
            ..self
                .driver
                .snapshot(self.backend_name(), (0..self.servers).map(server))
        }
    }

    /// Keeps the fabric's final counts and drops the fabric, which joins
    /// its threads (as dropping the transport does).
    fn shutdown(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            self.final_metrics = cluster.metrics();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::layout::DATA_REGION_BASE;
    use crate::runtime::Completion;
    use tc_simnet::external_id;

    fn transport(clients: usize, servers: usize) -> ThreadTransport {
        let triple = TargetTriple::X86_64_GENERIC;
        ThreadTransport::with_config(clients, servers, triple, triple, None, None)
    }

    fn envelope(to_port: usize, tag: u64, data: Vec<u8>) -> Envelope {
        Envelope {
            from: 0,
            to: external_id(to_port),
            tag,
            data: data.into(),
            payload: Bytes::new(),
        }
    }

    #[test]
    fn an_envelope_for_a_port_the_driver_does_not_have_is_a_typed_error() {
        let mut t = transport(2, 1);
        let cluster = t.cluster.take().unwrap();
        let driver = &mut t.driver;
        // Ports 0 and 1 are clients, port 2 is the control port.
        for (port, tag) in [
            (3, wire::TAG_OP),
            (tc_simnet::MAX_EXTERNAL_PORTS - 1, wire::TAG_ACK),
            (7, wire::TAG_REPLY),
            // A data-plane frame has no business on the control port.
            (2, wire::TAG_OP),
        ] {
            let before = driver.errors.len();
            dispatch(driver, &cluster, envelope(port, tag, vec![1, 2, 3]), 0);
            assert!(
                matches!(driver.errors[before..], [CoreError::Transport(_)]),
                "port {port}, tag {tag}: {:?}",
                driver.errors
            );
        }
        // An envelope addressed to a node id cannot come off the external
        // queue; if one did, it is dropped the same way.
        let to_node = Envelope {
            to: 0,
            ..envelope(0, wire::TAG_OP, vec![])
        };
        dispatch(driver, &cluster, to_node, 0);
        assert_eq!(driver.errors.len(), 5);
        for host in &driver.hosts {
            assert!(!host.pending());
        }
        cluster.shutdown();
    }

    #[test]
    fn error_reports_are_recorded_and_stale_control_replies_dropped() {
        let mut t = transport(1, 1);
        let cluster = t.cluster.take().unwrap();
        let driver = &mut t.driver;
        dispatch(
            driver,
            &cluster,
            envelope(1, wire::TAG_ERROR, b"boom".to_vec()),
            0,
        );
        assert!(matches!(&driver.errors[..], [CoreError::Transport(m)] if m == "boom"));
        // A reply nobody awaits any more (its request timed out).
        let stale = wire::encode_control(41, &[9; 8]);
        dispatch(
            driver,
            &cluster,
            envelope(1, wire::TAG_REPLY, stale.clone()),
            0,
        );
        // The same reply arriving while a later request is awaited: the
        // token tells them apart.
        let awaited = Some((0, 42));
        let stale = envelope(1, wire::TAG_REPLY, stale);
        assert_eq!(pass(driver, &cluster, Some(stale), awaited), None);
        let live = envelope(1, wire::TAG_REPLY, wire::encode_control(42, &[7; 8]));
        let reply = pass(driver, &cluster, Some(live), awaited);
        assert_eq!(reply, Some(vec![7; 8]));
        assert_eq!(driver.errors.len(), 1);
        cluster.shutdown();
    }

    /// A server enqueues its reply *before* its batch stops counting as in
    /// flight, so a `step` whose park times out just as the reply lands reads
    /// "nothing pending" over a queued reply.  Each GET here queues behind an
    /// AM that spins for 0–150 µs, so its reply lands at every phase of the
    /// shortest park; one step answering idle while the GET is outstanding is
    /// that misreading — a `WaitTimeout` at a grace of one step.
    #[test]
    fn idleness_is_never_declared_over_a_queued_reply() {
        let mut t = transport(1, 2);
        t.driver.step_timeout = Duration::from_micros(50);
        let spin: NativeAmHandler = Arc::new(|_, payload| {
            let micros = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let started = Instant::now();
            while started.elapsed() < Duration::from_micros(micros) {
                std::hint::spin_loop();
            }
            1
        });
        t.deploy_am("spin", spin).unwrap();
        for rank in 1..=2u64 {
            let value = rank.to_le_bytes();
            t.write_memory(rank as usize, DATA_REGION_BASE, &value)
                .unwrap();
        }
        for i in 0..4_000u64 {
            let rank = 1 + i % 2;
            let client = t.client_mut(ClientId::PRIMARY);
            let micros = (i * 37 % 150).to_le_bytes().to_vec();
            client
                .send_am("spin", WorkerAddr(rank as u32), micros)
                .unwrap();
            let request = client.post_get(WorkerAddr(rank as u32), DATA_REGION_BASE, 8);
            t.flush_client(ClientId::PRIMARY).unwrap();
            let data = loop {
                if let Some(Completion::Get { request: r, data }) =
                    t.take_completions(ClientId::PRIMARY).pop()
                {
                    assert_eq!(r, request, "GET {i}");
                    break data;
                }
                assert!(t.step().unwrap(), "GET {i}: idle over its reply");
            };
            assert_eq!(data.as_slice(), rank.to_le_bytes(), "GET {i}");
        }
        assert!(t.errors().is_empty());
    }

    /// A control request abandoned at its timeout still gets its reply, late.
    /// That reply is stale: the next request of the same kind must not take it
    /// for its own, and nothing else may trip over it.
    #[test]
    fn a_late_reply_to_an_abandoned_control_request_is_dropped() {
        let mut t = transport(1, 1);
        t.driver.control_timeout = Duration::from_millis(100);
        let mut cluster = Cluster::new(t);
        let nap: NativeAmHandler = Arc::new(|_, _| {
            std::thread::sleep(Duration::from_millis(500));
            1
        });
        cluster.deploy_am("nap", nap).unwrap();
        cluster.send_am("nap", 1, vec![]).unwrap();
        // The request waits behind the sleeping handler and is given up on.
        assert!(matches!(
            cluster.stats(1),
            Err(CoreError::WaitTimeout { .. })
        ));
        std::thread::sleep(Duration::from_millis(600));
        // Its reply (`ams_executed == 1`) is queued by now; the GET in between
        // makes the second snapshot differ from it.
        let h = cluster.get(1, DATA_REGION_BASE, 8).unwrap();
        let waited = cluster.wait(&h);
        assert!(waited.is_ok(), "{waited:?}\n{}", cluster.snapshot());
        let stats = cluster.stats(1).unwrap();
        assert_eq!((stats.ams_executed, stats.gets_served), (1, 1));
        assert!(cluster.transport().errors().is_empty());
    }
}
