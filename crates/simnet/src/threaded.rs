//! A real-concurrency transport: nodes as threads, messages over channels.
//!
//! The discrete-event simulator gives us calibrated *timing*; this module
//! gives us real *parallelism*.  Each node of a [`ThreadCluster`] runs on its
//! own OS thread with an mpsc channel as its receive queue — the analogue
//! of the paper's recommendation that "the target processes should setup a
//! daemon thread that polls the message buffers periodically".  The cluster
//! transport in `tc-core` drives node runtimes over it to show that the
//! Three-Chains state machines (registration caching, recursive forwarding,
//! result return) are correct under genuine concurrency, independent of the
//! virtual-time model.
//!
//! Four properties matter for performance:
//!
//! * **zero-copy payloads** — envelopes carry [`tc_ucx::Bytes`] views, so
//!   handing a message to a channel moves a refcount, not the payload;
//! * **batched draining** — a node thread that wakes up drains everything
//!   queued on its channel (up to [`DEFAULT_MAX_BATCH`]) and hands the whole batch to
//!   [`ThreadedNode::on_batch`], paying the wakeup/synchronisation cost once
//!   per burst instead of once per message;
//! * **no rank arms a timer to park** — every node thread parks untimed on
//!   its channel.  A cluster with a [`ThreadConfig::tick`] has one
//!   timekeeper, the `tc-clock` thread, the only thread that sleeps on a
//!   timer; each cadence it puts one tick on every node's queue and on the
//!   external queue.  A park whose timeout is shorter than the kernel's own
//!   tick becomes the earliest timer on its CPU and re-programs the
//!   deadline register once to arm and once to cancel — around *every*
//!   hand-off, where the clock pays it once per cadence;
//! * **yield before park** — a thread that finds its queue empty yields the
//!   CPU `YIELDS_BEFORE_PARK` times, looking again after each, before it
//!   parks.  A `std` channel wakes only a receiver registered as parked, so
//!   a send to a yielding thread makes no wake call; on a shared CPU the
//!   yield runs the peer just woken, whose reply is then taken without a
//!   futex wait.  Unlike a spin, a yield hands the CPU over.
//!
//! Delivery is exact and not silent-lossy: the fabric injects no faults (a
//! sender that wants its traffic faulted decides before it sends), every
//! send reports a [`SendStatus`], and the cluster counts what it could not
//! deliver (unknown node id, stopped node) in [`ThreadMetrics`] so
//! transports can surface drops.  It also tracks how many node-bound
//! messages are enqueued-or-processing ([`ThreadCluster::pending_messages`]),
//! a cheap, race-tolerant idleness signal for drivers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tc_ucx::Bytes;

/// Sender id used for messages injected from outside the cluster.
///
/// Equal to [`external_id`]`(0)`: the driver's default identity is external
/// port 0, so single-client code keeps working unchanged.
pub const EXTERNAL_SENDER: usize = usize::MAX;

/// Most external ports a cluster can address.  Ids in
/// `(usize::MAX - MAX_EXTERNAL_PORTS, usize::MAX]` are external; everything
/// below is a node id — far outside any realistic node count.
pub const MAX_EXTERNAL_PORTS: usize = 1024;

/// The envelope id of external port `port` (driver-side endpoint `port`).
/// Port 0 is [`EXTERNAL_SENDER`].
pub const fn external_id(port: usize) -> usize {
    usize::MAX - port
}

/// Inverse of [`external_id`]: `Some(port)` when `id` addresses an external
/// port, `None` for node ids.
pub const fn external_port(id: usize) -> Option<usize> {
    if id > usize::MAX - MAX_EXTERNAL_PORTS {
        Some(usize::MAX - id)
    } else {
        None
    }
}

/// Most messages a node thread drains per wakeup before handing the batch to
/// the node (bounds per-batch latency under sustained load).  `tc-core`'s
/// threaded driver caps its own passes over the external queue at the same
/// burst.
pub const DEFAULT_MAX_BATCH: usize = 128;

/// Tunables of a [`ThreadCluster`].  The fabric delivers what it is handed:
/// it has no interposition hook, so a sender that wants faults injected
/// decides them before it sends.
#[derive(Clone, Debug, Default)]
pub struct ThreadConfig {
    /// When set, the cluster runs a clock thread and every node receives
    /// [`ThreadedNode::on_tick`] callbacks at least this often — the hook
    /// reliability layers use for timeout-based retransmission — while
    /// [`ThreadCluster::recv_external`] returns early once per cadence.
    pub tick: Option<Duration>,
}

/// A message travelling between threaded nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node id (or [`EXTERNAL_SENDER`]).
    pub from: usize,
    /// Destination node id.
    pub to: usize,
    /// Application-defined tag (the Three-Chains transport uses it to mark
    /// frame types).
    pub tag: u64,
    /// Message bytes (a shared view — moving an envelope copies nothing).
    pub data: Bytes,
    /// Detached payload segment for scatter-gather sends: logically the
    /// message is `data ‖ payload`, but the bulk payload travels as its own
    /// shared view so senders never copy it into the envelope.  Empty for
    /// ordinary sends.
    pub payload: Bytes,
}

/// Outcome of handing a message to the threaded fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "dropped messages are silent data loss; check or explicitly discard the status"]
pub enum SendStatus {
    /// The message was enqueued on the destination's receive channel.
    Delivered,
    /// No node with the given id exists in this cluster; the message was
    /// dropped (and counted).
    UnknownNode,
    /// The destination node has stopped and its channel is closed; the
    /// message was dropped (and counted).
    Disconnected,
}

impl SendStatus {
    /// True when the message reached the destination's queue.
    pub fn is_delivered(self) -> bool {
        matches!(self, SendStatus::Delivered)
    }
}

/// Delivery counters shared by every sender of a cluster.
#[derive(Debug, Default)]
struct Counters {
    delivered: AtomicU64,
    dropped_unknown: AtomicU64,
    dropped_disconnected: AtomicU64,
    /// Node-bound messages enqueued but not yet fully processed.
    in_flight: AtomicU64,
}

/// A snapshot of a cluster's delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadMetrics {
    /// Messages successfully enqueued on a destination channel.
    pub delivered: u64,
    /// Messages dropped because the destination node id does not exist.
    pub dropped_unknown: u64,
    /// Messages dropped because the destination node had stopped.
    pub dropped_disconnected: u64,
}

impl ThreadMetrics {
    /// Total messages dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_unknown + self.dropped_disconnected
    }
}

impl Counters {
    fn snapshot(&self) -> ThreadMetrics {
        ThreadMetrics {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_unknown: self.dropped_unknown.load(Ordering::Relaxed),
            dropped_disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
        }
    }

    fn record(&self, status: SendStatus) -> SendStatus {
        let counter = match status {
            SendStatus::Delivered => &self.delivered,
            SendStatus::UnknownNode => &self.dropped_unknown,
            SendStatus::Disconnected => &self.dropped_disconnected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        status
    }
}

/// What travels on a node's channel and on the external queue.
enum Control {
    Deliver(Envelope),
    /// The clock's cadence elapsed (never queued twice: see [`TickPort`]).
    Tick,
    Stop,
}

/// One queue as the clock sees it.  `pending` is set while a tick sits on
/// the queue and cleared by whoever takes it off, so a receiver that was
/// away for twenty cadences finds one tick, not twenty.  The flag publishes
/// no data (the channel orders the tick itself); the clear is a `Release`
/// store so that it stays behind the dequeue it follows.
struct TickPort {
    tx: Sender<Control>,
    pending: Arc<AtomicBool>,
}

impl TickPort {
    fn tick(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = self.tx.send(Control::Tick);
        }
    }
}

/// The fabric's one timekeeper: every `period`, one (coalesced) tick on
/// every port.  It parks on the stop channel rather than sleeping, so
/// [`ThreadCluster::shutdown`] — or dropping the cluster — ends it at once.
fn run_clock(period: Duration, ports: Vec<TickPort>, stop: Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(period) {
        ports.iter().for_each(TickPort::tick);
    }
}

/// How often a thread that finds its queue empty yields before it parks.
const YIELDS_BEFORE_PARK: u32 = 2;

/// The one way a fabric thread waits: look, yield, look again — up to
/// [`YIELDS_BEFORE_PARK`] yields — then park on the channel, untimed or for
/// `timeout`.  `None`: the timeout elapsed or every sender is gone.
fn recv_yielding(rx: &Receiver<Control>, timeout: Option<Duration>) -> Option<Control> {
    for _ in 0..YIELDS_BEFORE_PARK {
        match rx.try_recv() {
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            got => return got.ok(),
        }
    }
    match timeout {
        Some(timeout) => rx.recv_timeout(timeout).ok(),
        None => rx.recv().ok(),
    }
}

fn send_control(peers: &[Sender<Control>], counters: &Counters, env: Envelope) -> SendStatus {
    match peers.get(env.to) {
        None => counters.record(SendStatus::UnknownNode),
        Some(tx) => {
            // Count the message as in flight *before* enqueueing so the
            // pending counter never reads zero while work exists.
            counters.in_flight.fetch_add(1, Ordering::SeqCst);
            match tx.send(Control::Deliver(env)) {
                Ok(()) => counters.record(SendStatus::Delivered),
                Err(_) => {
                    counters.in_flight.fetch_sub(1, Ordering::SeqCst);
                    counters.record(SendStatus::Disconnected)
                }
            }
        }
    }
}

/// The shared routing fabric: node channels, the external queue and the
/// counters.  Every path that can inject an envelope — node contexts and the
/// cluster handle — goes through one `Router`, so delivery accounting stays
/// uniform no matter which thread sends.
#[derive(Clone)]
struct Router {
    peers: Vec<Sender<Control>>,
    external: Sender<Control>,
    counters: Arc<Counters>,
}

impl Router {
    /// Route one envelope to its destination queue: a node channel, or the
    /// external observer's one queue (the envelope's `to` field tells the
    /// driver which port it was for).
    fn route(&self, env: Envelope) -> SendStatus {
        if external_port(env.to).is_none() {
            return send_control(&self.peers, &self.counters, env);
        }
        match self.external.send(Control::Deliver(env)) {
            Ok(()) => self.counters.record(SendStatus::Delivered),
            Err(_) => self.counters.record(SendStatus::Disconnected),
        }
    }
}

/// Handle through which a node sends messages and inspects the cluster.
pub struct NodeCtx {
    node_id: usize,
    router: Router,
}

impl NodeCtx {
    /// This node's id.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.router.peers.len()
    }

    /// Send bytes to another node.  Sends to an unknown or stopped node are
    /// dropped, reported through the returned [`SendStatus`] and counted in
    /// the cluster's [`ThreadMetrics`].
    pub fn send(&self, to: usize, tag: u64, data: impl Into<Bytes>) -> SendStatus {
        self.send_vectored(to, tag, data.into(), Bytes::new())
    }

    /// Send a two-segment message (`data ‖ payload`) to another node without
    /// copying the payload: the bulk segment is moved as a shared view.
    pub fn send_vectored(&self, to: usize, tag: u64, data: Bytes, payload: Bytes) -> SendStatus {
        self.router.route(Envelope {
            from: self.node_id,
            to,
            tag,
            data,
            payload,
        })
    }

    /// Send bytes to the external observer (the driving thread), port 0.
    pub fn send_external(&self, tag: u64, data: impl Into<Bytes>) -> SendStatus {
        self.send_external_port_vectored(0, tag, data.into(), Bytes::new())
    }

    /// Two-segment send (zero-copy payload) to external port `port`: a
    /// specific driver-side endpoint, e.g. one of several client runtimes
    /// living on the driving thread.
    pub fn send_external_port_vectored(
        &self,
        port: usize,
        tag: u64,
        data: Bytes,
        payload: Bytes,
    ) -> SendStatus {
        self.router.route(Envelope {
            from: self.node_id,
            to: external_id(port),
            tag,
            data,
            payload,
        })
    }
}

/// A node running inside a [`ThreadCluster`].
pub trait ThreadedNode: Send {
    /// Called for every delivered message.
    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx);

    /// Called with everything drained from the channel in one wakeup
    /// (FIFO order preserved).  The default processes messages one at a
    /// time; nodes that can amortise per-wakeup work (polling, flushing)
    /// across a burst should override this.
    fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
        for msg in msgs {
            self.on_message(msg, ctx);
        }
    }

    /// Called at least every [`ThreadConfig::tick`] (when configured),
    /// whether or not traffic arrived — the hook for timeout-driven work
    /// such as retransmission.  Never called when no tick is configured.
    fn on_tick(&mut self, _ctx: &NodeCtx) {}
}

/// A running cluster of threaded nodes.
pub struct ThreadCluster {
    router: Router,
    external_rx: Receiver<Control>,
    /// Set while a tick sits on the external queue.
    external_tick: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// The clock thread and the channel that stops it (only with a
    /// [`ThreadConfig::tick`]).
    clock: Option<(Sender<()>, JoinHandle<()>)>,
}

impl ThreadCluster {
    /// Start `n` nodes with default tunables, constructing each with
    /// `factory(node_id)`.
    pub fn start<N, F>(n: usize, factory: F) -> Self
    where
        N: ThreadedNode + 'static,
        F: Fn(usize) -> N,
    {
        Self::start_with_config(n, ThreadConfig::default(), factory)
    }

    /// Start `n` nodes under explicit [`ThreadConfig`] tunables (the tick
    /// cadence).
    pub fn start_with_config<N, F>(n: usize, config: ThreadConfig, factory: F) -> Self
    where
        N: ThreadedNode + 'static,
        F: Fn(usize) -> N,
    {
        let channels: Vec<(Sender<Control>, Receiver<Control>)> =
            (0..n).map(|_| channel()).collect();
        let senders: Vec<Sender<Control>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let (ext_tx, ext_rx) = channel();
        let counters = Arc::new(Counters::default());
        let router = Router {
            peers: senders,
            external: ext_tx,
            counters: Arc::clone(&counters),
        };
        // The external queue's tick port first, then one per node.
        let external_tick = Arc::new(AtomicBool::new(false));
        let mut ports = vec![TickPort {
            tx: router.external.clone(),
            pending: Arc::clone(&external_tick),
        }];

        let mut handles = Vec::with_capacity(n);
        for (node_id, (tx, rx)) in channels.into_iter().enumerate() {
            let ctx = NodeCtx {
                node_id,
                router: router.clone(),
            };
            let tick_pending = Arc::new(AtomicBool::new(false));
            ports.push(TickPort {
                tx,
                pending: Arc::clone(&tick_pending),
            });
            let mut node = factory(node_id);
            let handle = std::thread::Builder::new()
                .name(format!("tc-node-{node_id}"))
                .spawn(move || {
                    let mut batch: Vec<Envelope> = Vec::new();
                    // A few yields, then one untimed park per wakeup, ticked or not.
                    while let Some(mut ctrl) = recv_yielding(&rx, None) {
                        // Drain the burst that accumulated while we were
                        // parked (or busy), then process it in one go.  A
                        // tick met on the way runs once, behind the batch:
                        // the queue is FIFO, so a saturated node still gets
                        // its `on_tick` every cadence.
                        let (mut ticked, mut stop) = (false, false);
                        loop {
                            match ctrl {
                                Control::Deliver(env) => batch.push(env),
                                Control::Tick => {
                                    tick_pending.store(false, Ordering::Release);
                                    ticked = true;
                                }
                                Control::Stop => stop = true,
                            }
                            if stop || batch.len() >= DEFAULT_MAX_BATCH {
                                break;
                            }
                            match rx.try_recv() {
                                Ok(next) => ctrl = next,
                                Err(_) => break,
                            }
                        }
                        if !batch.is_empty() {
                            let count = batch.len() as u64;
                            node.on_batch(std::mem::take(&mut batch), &ctx);
                            ctx.router
                                .counters
                                .in_flight
                                .fetch_sub(count, Ordering::SeqCst);
                        }
                        if ticked {
                            node.on_tick(&ctx);
                        }
                        if stop {
                            break;
                        }
                    }
                    // Anything left queued on a stopping node is no longer
                    // in flight.
                    let leftover = rx
                        .try_iter()
                        .filter(|c| matches!(c, Control::Deliver(_)))
                        .count() as u64;
                    if leftover > 0 {
                        ctx.router
                            .counters
                            .in_flight
                            .fetch_sub(leftover, Ordering::SeqCst);
                    }
                })
                .expect("failed to spawn node thread");
            handles.push(handle);
        }

        let clock = config.tick.map(|period| {
            let (stop_tx, stop_rx) = channel();
            let handle = std::thread::Builder::new()
                .name("tc-clock".into())
                .spawn(move || run_clock(period, ports, stop_rx))
                .expect("failed to spawn clock thread");
            (stop_tx, handle)
        });

        ThreadCluster {
            router,
            external_rx: ext_rx,
            external_tick,
            handles,
            clock,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.router.peers.len()
    }

    /// Snapshot of the cluster-wide delivery counters.
    pub fn metrics(&self) -> ThreadMetrics {
        self.router.counters.snapshot()
    }

    /// Node-bound messages currently enqueued or being processed.  Zero
    /// means every node thread is parked with an empty queue.  A node sends
    /// what a batch provokes *before* the batch stops counting, so zero
    /// followed by an empty external queue means the cluster is quiescent —
    /// in that order: a reply can land between an earlier look at the queue
    /// and the count reaching zero.
    pub fn pending_messages(&self) -> u64 {
        self.router.counters.in_flight.load(Ordering::SeqCst)
    }

    /// Inject a message into the cluster from the driver thread (external
    /// port 0).
    pub fn send(&self, to: usize, tag: u64, data: impl Into<Bytes>) -> SendStatus {
        self.send_vectored_from_port(0, to, tag, data.into(), Bytes::new())
    }

    /// Inject a two-segment message (`data ‖ payload`, the payload moved as
    /// a shared view) carrying the identity of external port `port` — nodes
    /// see `from ==`[`external_id`]`(port)` and can answer the exact
    /// driver-side endpoint that sent it.
    pub fn send_vectored_from_port(
        &self,
        port: usize,
        to: usize,
        tag: u64,
        data: Bytes,
        payload: Bytes,
    ) -> SendStatus {
        self.router.route(Envelope {
            from: external_id(port),
            to,
            tag,
            data,
            payload,
        })
    }

    /// The envelope in something taken off the external queue, if it is one;
    /// a tick is taken off the books instead.
    fn external(&self, ctrl: Control) -> Option<Envelope> {
        match ctrl {
            Control::Deliver(env) => Some(env),
            Control::Tick => {
                self.external_tick.store(false, Ordering::Release);
                None
            }
            Control::Stop => None,
        }
    }

    /// Wait for a message sent to the external observer: yield a few times,
    /// then park until an enqueue.  `None` means `timeout` elapsed — or,
    /// with a [`ThreadConfig::tick`], that a cadence did: the caller's
    /// timeout-driven work is due, and it never had to arm a timer shorter
    /// than `timeout` to learn so.
    pub fn recv_external(&self, timeout: Duration) -> Option<Envelope> {
        self.external(recv_yielding(&self.external_rx, Some(timeout))?)
    }

    /// Take an already-queued external message without blocking (a queued
    /// tick is skipped).
    pub fn try_recv_external(&self) -> Option<Envelope> {
        loop {
            if let Some(env) = self.external(self.external_rx.try_recv().ok()?) {
                return Some(env);
            }
        }
    }

    /// Stop the clock and all nodes and join their threads.
    pub fn shutdown(self) {
        if let Some((stop, handle)) = self.clock {
            let _ = stop.send(());
            let _ = handle.join();
        }
        for tx in &self.router.peers {
            let _ = tx.send(Control::Stop);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that adds its id to any number it receives and forwards the
    /// result to the next node; the last node reports externally.
    struct RelayNode;

    impl ThreadedNode for RelayNode {
        fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
            let mut value = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
            value += ctx.node_id() as u64;
            let next = ctx.node_id() + 1;
            let status = if next < ctx.node_count() {
                ctx.send(next, msg.tag, value.to_le_bytes().to_vec())
            } else {
                ctx.send_external(msg.tag, value.to_le_bytes().to_vec())
            };
            assert!(status.is_delivered());
        }
    }

    #[test]
    fn relay_chain_accumulates_across_threads() {
        let cluster = ThreadCluster::start(8, |_| RelayNode);
        let status = cluster.send(0, 7, 100u64.to_le_bytes().to_vec());
        assert_eq!(status, SendStatus::Delivered);
        let env = cluster
            .recv_external(Duration::from_secs(5))
            .expect("relay result");
        let value = u64::from_le_bytes(env.data[..8].try_into().unwrap());
        assert_eq!(value, 100 + (0..8).sum::<usize>() as u64);
        assert_eq!(env.tag, 7);
        assert_eq!(env.from, 7);
        cluster.shutdown();
    }

    /// A node that counts messages and reports the total on request.
    /// Also counts batches so tests can observe the drain behaviour.
    struct CountingNode {
        count: u64,
        batches: u64,
    }

    impl ThreadedNode for CountingNode {
        fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
            if msg.tag == 0 {
                self.count += 1;
            } else {
                let mut out = Vec::with_capacity(16);
                out.extend_from_slice(&self.count.to_le_bytes());
                out.extend_from_slice(&self.batches.to_le_bytes());
                let _ = ctx.send_external(1, out);
            }
        }

        fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
            self.batches += 1;
            for msg in msgs {
                self.on_message(msg, ctx);
            }
        }
    }

    #[test]
    fn many_messages_from_many_nodes_all_arrive() {
        let cluster = ThreadCluster::start(4, |_| CountingNode {
            count: 0,
            batches: 0,
        });
        // Node 1..3 each send 50 messages to node 0 — injected externally to
        // keep the test simple but delivered concurrently.
        for _ in 0..150 {
            let _ = cluster.send(0, 0, vec![]);
        }
        // Ask for the count; channel FIFO guarantees the query arrives last.
        let _ = cluster.send(0, 1, vec![]);
        let env = cluster
            .recv_external(Duration::from_secs(5))
            .expect("count");
        assert_eq!(u64::from_le_bytes(env.data[..8].try_into().unwrap()), 150);
        let metrics = cluster.metrics();
        assert_eq!(metrics.dropped(), 0);
        assert!(metrics.delivered >= 151);
        cluster.shutdown();
    }

    #[test]
    fn queued_burst_is_drained_in_few_batches() {
        // Deterministic batching check: the first message makes the node
        // sleep while the driver queues a burst behind it, so the burst is
        // fully enqueued by the time the node wakes — it must then be
        // drained in ceil(151 / MAX_BATCH) + small-change batches, not one
        // wakeup per message.
        struct SleepThenCount(CountingNode);
        impl ThreadedNode for SleepThenCount {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                if msg.tag == 2 {
                    std::thread::sleep(Duration::from_millis(100));
                } else {
                    self.0.on_message(msg, ctx);
                }
            }
            fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
                self.0.batches += 1;
                for msg in msgs {
                    self.on_message(msg, ctx);
                }
            }
        }
        let cluster = ThreadCluster::start(1, |_| {
            SleepThenCount(CountingNode {
                count: 0,
                batches: 0,
            })
        });
        let _ = cluster.send(0, 2, vec![]); // park the node in its handler
        for _ in 0..150 {
            let _ = cluster.send(0, 0, vec![]);
        }
        let _ = cluster.send(0, 1, vec![]);
        let env = cluster
            .recv_external(Duration::from_secs(5))
            .expect("count");
        assert_eq!(u64::from_le_bytes(env.data[..8].try_into().unwrap()), 150);
        let batches = u64::from_le_bytes(env.data[8..16].try_into().unwrap());
        // 1 batch for the sleeper + ceil(151/128) = 2 for the burst; allow
        // slack for the burst racing the very start of the sleep.
        assert!(
            (2..=8).contains(&batches),
            "burst of 151 queued messages drained in {batches} batches"
        );
        cluster.shutdown();
    }

    #[test]
    fn sending_to_unknown_node_is_reported_and_counted() {
        let cluster = ThreadCluster::start(2, |_| RelayNode);
        assert_eq!(cluster.send(99, 0, vec![0; 8]), SendStatus::UnknownNode);
        assert_eq!(cluster.node_count(), 2);
        assert_eq!(cluster.metrics().dropped(), 1);
        assert_eq!(cluster.metrics().dropped_unknown, 1);
        cluster.shutdown();
    }

    #[test]
    fn recv_external_respects_timeout() {
        let cluster = ThreadCluster::start(2, |_| RelayNode);
        let parked = std::time::Instant::now();
        assert_eq!(cluster.recv_external(Duration::from_millis(50)), None);
        assert!(parked.elapsed() >= Duration::from_millis(50));
        cluster.shutdown();
    }

    #[test]
    fn an_envelope_enqueued_after_the_yields_ends_the_park_at_once() {
        // The sender waits 5 ms, long past the few yields, so the envelope
        // lands on a receiver parked on the channel: the park must end on
        // the enqueue, not ride out its timeout.
        let cluster = ThreadCluster::start(1, |_| RelayNode);
        let router = cluster.router.clone();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            router.route(Envelope {
                from: 0,
                to: EXTERNAL_SENDER,
                tag: 9,
                data: Bytes::from(vec![1]),
                payload: Bytes::new(),
            })
        });
        let parked = std::time::Instant::now();
        let env = cluster.recv_external(Duration::from_secs(5));
        let waited = parked.elapsed();
        assert_eq!(env.expect("the late envelope").tag, 9);
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
        assert!(sender.join().unwrap().is_delivered());
        cluster.shutdown();
    }

    #[test]
    fn shutdown_joins_two_nodes_that_keep_a_ping_pong_going() {
        // Each node bounces every message to the other, so neither queue is
        // ever empty for long and both threads spend their waits yielding;
        // the `Stop` behind the traffic must still end both loops.
        struct PingPong;
        impl ThreadedNode for PingPong {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                let _ = ctx.send_vectored(1 - ctx.node_id(), msg.tag, msg.data, msg.payload);
            }
        }
        let cluster = ThreadCluster::start(2, |_| PingPong);
        for node in [0, 1] {
            assert!(cluster.send(node, 0, vec![0; 8]).is_delivered());
        }
        while cluster.metrics().delivered < 1000 {
            std::thread::yield_now();
        }
        let stopping = std::time::Instant::now();
        cluster.shutdown();
        let took = stopping.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    }

    #[test]
    fn pending_messages_drains_to_zero() {
        let cluster = ThreadCluster::start(2, |_| CountingNode {
            count: 0,
            batches: 0,
        });
        for _ in 0..32 {
            let _ = cluster.send(0, 0, vec![]);
            let _ = cluster.send(1, 0, vec![]);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.pending_messages() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "pending messages never drained"
            );
            std::thread::yield_now();
        }
        assert_eq!(cluster.pending_messages(), 0);
        cluster.shutdown();
    }

    /// What a node under the clock did, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Did {
        Batch(usize),
        Tick,
    }

    /// Logs batches and ticks; tag 2 blocks its handler until released, tag
    /// 1 is echoed to the external queue.
    struct Logged {
        log: Arc<std::sync::Mutex<Vec<Did>>>,
        entered: std::sync::mpsc::Sender<()>,
        release: Arc<std::sync::Mutex<Receiver<()>>>,
    }

    impl ThreadedNode for Logged {
        fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
            match msg.tag {
                1 => {
                    let _ = ctx.send_external(1, msg.data);
                }
                2 => {
                    let _ = self.entered.send(());
                    let _ = self.release.lock().unwrap().recv();
                }
                _ => {}
            }
        }

        fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
            self.log.lock().unwrap().push(Did::Batch(msgs.len()));
            for msg in msgs {
                self.on_message(msg, ctx);
            }
        }

        fn on_tick(&mut self, _ctx: &NodeCtx) {
            self.log.lock().unwrap().push(Did::Tick);
        }
    }

    /// A cluster of `Logged` nodes under a clock of `cadence`.
    struct Ticked {
        cluster: ThreadCluster,
        logs: Vec<Arc<std::sync::Mutex<Vec<Did>>>>,
        entered: Receiver<()>,
        release: Sender<()>,
    }

    fn ticked(nodes: usize, cadence: Duration) -> Ticked {
        let logs: Vec<_> = (0..nodes).map(|_| Arc::default()).collect();
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = ThreadConfig {
            tick: Some(cadence),
        };
        let cluster = ThreadCluster::start_with_config(nodes, config, |id| Logged {
            log: Arc::clone(&logs[id]),
            entered: entered_tx.clone(),
            release: Arc::clone(&release_rx),
        });
        Ticked {
            cluster,
            logs,
            entered,
            release,
        }
    }

    /// Poll `done` until it holds (the clock keeps wall time; five seconds
    /// is a thousand cadences).
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    const CADENCE: Duration = Duration::from_millis(5);

    #[test]
    fn the_clock_ticks_every_node_and_ends_the_drivers_park_with_no_traffic_at_all() {
        let t = ticked(3, CADENCE);
        // The park is asked for five seconds and arms no shorter timer: it
        // is the clock's tick that ends it, silent, not an envelope.
        let parked = std::time::Instant::now();
        assert_eq!(t.cluster.recv_external(Duration::from_secs(5)), None);
        assert!(
            parked.elapsed() < Duration::from_secs(1),
            "the park rode out its own timeout: {:?}",
            parked.elapsed()
        );
        for log in &t.logs {
            eventually("on_tick on every node", || {
                log.lock().unwrap().contains(&Did::Tick)
            });
            assert!(!log
                .lock()
                .unwrap()
                .iter()
                .any(|d| matches!(d, Did::Batch(_))));
        }
        // Ticks are not messages: nothing is pending, nothing was delivered.
        assert_eq!(t.cluster.pending_messages(), 0);
        assert_eq!(t.cluster.metrics(), ThreadMetrics::default());
        assert_eq!(t.cluster.try_recv_external(), None);
        t.cluster.shutdown();
    }

    #[test]
    fn a_node_busy_for_twenty_cadences_runs_on_tick_once_behind_its_next_batch() {
        let t = ticked(1, CADENCE);
        assert!(t.cluster.send(0, 2, vec![]).is_delivered());
        t.entered.recv().expect("the handler is entered");
        // Twenty cadences pass over the blocked handler; three messages
        // queue up behind the one tick they left.
        std::thread::sleep(CADENCE * 20);
        for _ in 0..3 {
            assert!(t.cluster.send(0, 0, vec![]).is_delivered());
        }
        assert_eq!(t.cluster.pending_messages(), 4, "ticks are not counted");
        t.release.send(()).unwrap();
        let log = &t.logs[0];
        let tail = || {
            let log = log.lock().unwrap();
            let blocked = log.iter().position(|d| *d == Did::Batch(1));
            log[blocked.expect("the blocking batch is logged first")..].to_vec()
        };
        let burst = || tail().iter().position(|d| *d == Did::Batch(3));
        eventually("the tick behind the batch", || {
            burst().is_some_and(|at| tail().len() > at + 1)
        });
        let (tail, burst) = (tail(), burst().unwrap());
        // (A tick drained together with the blocking message ran behind it;
        // that is the only other `on_tick` twenty cadences can have left.)
        assert!(
            burst <= 2,
            "one on_tick per batch, not per cadence: {tail:?}"
        );
        assert_eq!(tail[burst + 1], Did::Tick, "{tail:?}");
        t.cluster.shutdown();
    }

    #[test]
    fn a_driver_away_for_twenty_cadences_finds_one_tick_then_its_envelopes_in_order() {
        let t = ticked(1, CADENCE);
        std::thread::sleep(CADENCE * 20);
        // The one pending tick keeps the clock off the queue, so the echoes
        // line up behind it and nothing lands between them.
        for i in 0..3u8 {
            assert!(t.cluster.send(0, 1, vec![i]).is_delivered());
        }
        eventually("three echoes queued", || t.cluster.metrics().delivered == 6);
        let parked = std::time::Instant::now();
        assert_eq!(t.cluster.recv_external(Duration::from_secs(5)), None);
        assert!(parked.elapsed() < Duration::from_secs(1));
        for i in 0..3u8 {
            let env = t.cluster.recv_external(Duration::from_secs(5));
            assert_eq!(env.expect("an echo, not a second tick").data[..], [i]);
        }
        assert_eq!(t.cluster.metrics().delivered, 6);
        t.cluster.shutdown();
    }

    /// However deep the queue, one batch holds at most [`DEFAULT_MAX_BATCH`]
    /// messages.
    #[test]
    fn custom_max_batch_bounds_drain() {
        const SENT: usize = 4 * DEFAULT_MAX_BATCH;
        let cluster = ThreadCluster::start(1, |_| CountingNode {
            count: 0,
            batches: 0,
        });
        for _ in 0..SENT {
            let _ = cluster.send(0, 0, vec![]);
        }
        let _ = cluster.send(0, 1, vec![]);
        let env = cluster
            .recv_external(Duration::from_secs(5))
            .expect("count");
        assert_eq!(
            u64::from_le_bytes(env.data[..8].try_into().unwrap()),
            SENT as u64
        );
        let batches = u64::from_le_bytes(env.data[8..16].try_into().unwrap());
        let least = (SENT + 1).div_ceil(DEFAULT_MAX_BATCH) as u64;
        assert!(
            batches >= least,
            "{} messages at {DEFAULT_MAX_BATCH} per batch need ≥ {least} batches, saw {batches}",
            SENT + 1
        );
        cluster.shutdown();
    }

    #[test]
    fn envelopes_share_payload_storage_end_to_end() {
        // A payload injected into the fabric arrives as a view of the same
        // allocation: channels move refcounts, not bytes.
        struct EchoNode;
        impl ThreadedNode for EchoNode {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                let _ = ctx.send_external(msg.tag, msg.data);
            }
        }
        let cluster = ThreadCluster::start(1, |_| EchoNode);
        let payload = Bytes::from(vec![0x5A; 4096]);
        let _ = cluster.send(0, 3, payload.clone());
        let env = cluster
            .recv_external(Duration::from_secs(5))
            .expect("echo reply");
        assert!(env.data.shares_storage(&payload));
        assert_eq!(env.data, payload);
        cluster.shutdown();
    }

    #[test]
    fn replies_to_two_ports_share_one_queue_in_send_order() {
        // One node echoes to whichever port sent: the driver's ports share
        // the external queue, so replies arrive in the order the node sent
        // them, each still naming its port.
        struct PortEcho;
        impl ThreadedNode for PortEcho {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                if let Some(port) = external_port(msg.from) {
                    let _ = ctx.send_external_port_vectored(port, msg.tag, msg.data, Bytes::new());
                }
            }
        }
        let cluster = ThreadCluster::start(1, |_| PortEcho);
        let sends = [(1usize, 10u64), (0, 11), (1, 12), (0, 13), (0, 14), (1, 15)];
        for (port, tag) in sends {
            let sent = cluster.send_vectored_from_port(port, 0, tag, Bytes::new(), Bytes::new());
            assert!(sent.is_delivered());
        }
        let got: Vec<(usize, u64)> = sends
            .iter()
            .map_while(|_| cluster.recv_external(Duration::from_secs(5)))
            .filter_map(|env| Some((external_port(env.to)?, env.tag)))
            .collect();
        assert_eq!(got, sends);
        cluster.shutdown();
    }

    #[test]
    fn external_ids_roundtrip_and_never_collide_with_nodes() {
        assert_eq!(external_id(0), EXTERNAL_SENDER);
        assert_eq!(external_port(EXTERNAL_SENDER), Some(0));
        for port in [0usize, 1, 7, MAX_EXTERNAL_PORTS - 1] {
            assert_eq!(external_port(external_id(port)), Some(port));
        }
        assert_eq!(external_port(0), None);
        assert_eq!(external_port(1_000_000), None);
        assert_eq!(external_port(usize::MAX - MAX_EXTERNAL_PORTS), None);
    }

    #[test]
    fn ports_carry_sender_identity_both_ways() {
        // A node that answers every message back to the external port it
        // came from, tagged with what it saw as the sender id.
        struct PortEcho;
        impl ThreadedNode for PortEcho {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                let port = external_port(msg.from).expect("driver send carries a port");
                let _ = ctx.send_external_port_vectored(port, msg.tag, msg.data, Bytes::new());
            }
        }
        let cluster = ThreadCluster::start(1, |_| PortEcho);
        for port in [0usize, 1, 5] {
            let data = Bytes::from(vec![port as u8]);
            let _ = cluster.send_vectored_from_port(port, 0, 40 + port as u64, data, Bytes::new());
        }
        for _ in 0..3 {
            let env = cluster
                .recv_external(Duration::from_secs(5))
                .expect("port echo");
            let port = external_port(env.to).expect("reply addressed to a port");
            assert_eq!(env.tag, 40 + port as u64, "reply came back to its port");
            assert_eq!(env.data[0], port as u8);
        }
        cluster.shutdown();
    }
}
