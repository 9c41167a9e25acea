//! A real-concurrency transport: nodes as threads, messages over inboxes.
//!
//! The discrete-event simulator gives calibrated *timing*; this module gives
//! real *parallelism*: each node of a [`ThreadCluster`] has its own OS thread
//! and inbox — the paper's "daemon thread that polls the message buffers
//! periodically" — so `tc-core` can show its state machines (registration
//! caching, recursive forwarding, result return) under genuine concurrency.
//!
//! Five properties matter for performance:
//!
//! * **zero-copy payloads** — envelopes carry [`tc_ucx::Bytes`] views, so
//!   handing a message to an inbox moves a refcount, not the payload;
//! * **batched draining** — a node thread hands everything queued on its
//!   inbox (up to [`DEFAULT_MAX_BATCH`]) to [`ThreadedNode::on_batch`] at
//!   once, paying the wakeup cost once per burst, not once per message;
//! * **no rank arms a timer to park** — node threads park untimed; with a
//!   [`ThreadConfig::tick`] the one `tc-clock` thread sleeps on a timer and
//!   ticks every inbox per cadence (a park shorter than the kernel's tick
//!   would re-program the CPU's deadline register around *every* hand-off);
//! * **yield before park** — a thread that finds its inbox empty yields
//!   `YIELDS_BEFORE_PARK` times, looking after each, before it parks; a
//!   send wakes only a parked waiter, and on a shared CPU the yield runs
//!   the peer just woken.  Unlike a spin, a yield hands the CPU over;
//! * **a forward runs where it lands** — a node that sends to an *idle*
//!   node (no thread runs it: its node object sits in its inbox) runs that
//!   node's next batch itself, skipping the hand-off, like L4's direct
//!   process switch.  Idle destinations only, envelopes only (a tick waits
//!   for the owner thread), one level deep (what that node sends is only
//!   queued), never from the driver, and still FIFO per producer.
//!
//! Delivery is exact: the fabric injects no faults (a sender that wants its
//! traffic faulted decides before it sends), every send reports a
//! [`SendStatus`], and what could not be delivered is counted in
//! [`ThreadMetrics`].  [`ThreadCluster::pending_messages`] counts node-bound
//! messages enqueued or processing, a cheap idleness signal for drivers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
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
    /// The message was enqueued on the destination's inbox.
    Delivered,
    /// No node with the given id exists in this cluster; the message was
    /// dropped (and counted).
    UnknownNode,
    /// The destination node has stopped and its inbox is closed; the
    /// message was dropped (and counted).
    Disconnected,
}

impl SendStatus {
    /// True when the message reached the destination's queue.
    pub fn is_delivered(self) -> bool {
        matches!(self, SendStatus::Delivered)
    }
}

/// A snapshot of a cluster's delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadMetrics {
    /// Messages successfully enqueued on a destination inbox.
    pub delivered: u64,
    dropped: u64,
}

impl ThreadMetrics {
    /// Messages dropped for any reason (unknown node id, stopped node).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// What travels on an inbox: an envelope, or `None` — the clock's tick
/// (never queued twice: see [`Slot::tick_pending`]).
type Control = Option<Envelope>;

/// An inbox's state, all under its one lock.
#[derive(Default)]
struct Slot {
    queue: VecDeque<Control>,
    /// The node while no thread runs it: a node found here is idle.
    node: Option<Box<dyn ThreadedNode>>,
    /// The one waiter (the owner thread, or the driver) sleeps on the condvar.
    parked: bool,
    /// A tick is queued: a waiter away for twenty cadences finds one tick.
    tick_pending: bool,
    /// The cluster is stopping: the owner thread leaves, sends are refused.
    closed: bool,
}

impl Slot {
    /// Take the front of the queue: `Some(None)` is a tick.
    fn pop(&mut self) -> Option<Control> {
        let got = self.queue.pop_front()?;
        self.tick_pending &= got.is_some();
        Some(got)
    }

    /// Move up to [`DEFAULT_MAX_BATCH`] envelopes off the front into
    /// `batch`.  The owner takes a tick it meets (`true`: `on_tick` behind
    /// the batch); a run in place stops at one, leaving it for the owner.
    fn drain(&mut self, batch: &mut Vec<Envelope>, owner: bool) -> bool {
        let mut ticked = false;
        while batch.len() < DEFAULT_MAX_BATCH
            && (owner || matches!(self.queue.front(), Some(Some(_))))
        {
            match self.pop() {
                Some(Some(env)) => batch.push(env),
                Some(None) => ticked = true,
                None => break,
            }
        }
        ticked
    }
}

/// A lock is held only to move queue entries and flags, never across a
/// node's code, so a poisoned one is whole.
fn unpoisoned<G>(locked: LockResult<G>) -> G {
    locked.unwrap_or_else(PoisonError::into_inner)
}

/// One queue of the fabric — a node's inbox, or the driver's one external
/// queue — and the condvar its one waiter parks on.
#[derive(Default)]
struct Inbox {
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        unpoisoned(self.slot.lock())
    }

    /// The one way a fabric thread waits: look (`take`), yield, look again
    /// — [`YIELDS_BEFORE_PARK`] yields — then park, marked parked, untimed
    /// or for `timeout`.  `None`: the timeout elapsed.
    fn wait_for<T>(
        &self,
        timeout: Option<Duration>,
        mut take: impl FnMut(&mut Slot) -> Option<T>,
    ) -> Option<T> {
        for _ in 0..YIELDS_BEFORE_PARK {
            if let Some(got) = take(&mut self.lock()) {
                return Some(got);
            }
            std::thread::yield_now();
        }
        let (slot, mut got) = (self.lock(), None);
        let nothing = |slot: &mut Slot| {
            got = take(slot);
            slot.parked = got.is_none();
            slot.parked
        };
        let mut slot = match timeout {
            None => unpoisoned(self.wake.wait_while(slot, nothing)),
            Some(t) => unpoisoned(self.wake.wait_timeout_while(slot, t, nothing)).0,
        };
        slot.parked = false;
        got
    }

    /// The clock's cadence: one tick, unless one is still queued.
    fn tick(&self) {
        let mut slot = self.lock();
        if !std::mem::replace(&mut slot.tick_pending, true) {
            slot.queue.push_back(None);
            if slot.parked {
                self.wake.notify_one();
            }
        }
    }

    /// Hand a node back; wake its owner if it parked while work queued.
    fn put_back(&self, node: Box<dyn ThreadedNode>) {
        let mut slot = self.lock();
        slot.node = Some(node);
        if slot.parked && (slot.closed || !slot.queue.is_empty()) {
            self.wake.notify_one();
        }
    }
}

/// How often a thread that finds its inbox empty yields before it parks.
const YIELDS_BEFORE_PARK: u32 = 2;

fn spawn(name: String, run: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let thread = std::thread::Builder::new().name(name);
    thread.spawn(run).expect("failed to spawn a fabric thread")
}

/// The fabric's one timekeeper: every `period`, one (coalesced) tick on
/// every inbox.  It parks on `stop`, so dropping the cluster ends it at once.
fn run_clock(period: Duration, fabric: Arc<Fabric>, stop: Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(period) {
        std::iter::once(&fabric.external)
            .chain(&fabric.nodes)
            .for_each(Inbox::tick);
    }
}

/// The shared routing fabric: the node inboxes, the external queue and the
/// delivery counters.  Every send, the driver's too, goes through one
/// [`NodeCtx::route`], so accounting is uniform whichever thread sends.
#[derive(Default)]
struct Fabric {
    nodes: Vec<Inbox>,
    external: Inbox,
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Node-bound messages enqueued but not yet fully processed.
    in_flight: AtomicU64,
}

impl Fabric {
    fn record(&self, status: SendStatus) -> SendStatus {
        let counter = match status {
            SendStatus::Delivered => &self.delivered,
            _ => &self.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        status
    }
}

/// Hand `batch` to `node`; it stops counting as in flight only once the
/// node has sent what it provokes.
fn run_batch(node: &mut dyn ThreadedNode, batch: Vec<Envelope>, ctx: &NodeCtx) {
    let count = batch.len() as u64;
    node.on_batch(batch, ctx);
    ctx.fabric.in_flight.fetch_sub(count, Ordering::SeqCst);
}

/// A node's own thread: wait for work *and* the node in its inbox, run
/// the batch (a tick met on the way behind it), put the node back.
fn run_node(ctx: NodeCtx) {
    let (inbox, mut batch) = (&ctx.fabric.nodes[ctx.node_id], Vec::new());
    let take = |slot: &mut Slot, batch: &mut Vec<Envelope>| match slot.closed {
        true => Some(None),
        false if slot.queue.is_empty() => None,
        false => Some(Some((slot.node.take()?, slot.drain(batch, true)))),
    };
    while let Some((mut node, ticked)) = inbox.wait_for(None, |s| take(s, &mut batch)).flatten() {
        if !batch.is_empty() {
            run_batch(node.as_mut(), std::mem::take(&mut batch), &ctx);
        }
        if ticked {
            node.on_tick(&ctx);
        }
        inbox.put_back(node);
    }
}

/// Handle through which a node sends messages and inspects the cluster.
pub struct NodeCtx {
    node_id: usize,
    fabric: Arc<Fabric>,
    /// Sends only queue (a node run in place, or the driver's handle).
    nested: bool,
}

impl NodeCtx {
    /// This node's id.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.fabric.nodes.len()
    }

    /// Queue one envelope on its destination: a node's inbox, or the
    /// external observer's one queue (the envelope's `to` field tells the
    /// driver which port it was for).  Sent to an idle node from a node's
    /// own thread, it runs that node's next batch here, one level deep.
    fn route(&self, env: Envelope) -> SendStatus {
        let (fabric, to, to_node) = (&self.fabric, env.to, external_port(env.to).is_none());
        let inbox = external_port(to).map_or(fabric.nodes.get(to), |_| Some(&fabric.external));
        let Some(inbox) = inbox else {
            return fabric.record(SendStatus::UnknownNode);
        };
        let mut slot = inbox.lock();
        if slot.closed {
            return fabric.record(SendStatus::Disconnected);
        }
        // Count the message as in flight *before* enqueueing so the
        // pending counter never reads zero while work exists.
        if to_node {
            fabric.in_flight.fetch_add(1, Ordering::SeqCst);
        }
        slot.queue.push_back(Some(env));
        let mut batch = Vec::new();
        if !self.nested && slot.node.is_some() {
            slot.drain(&mut batch, false);
        }
        let node = slot.node.take_if(|_| !batch.is_empty());
        // Wake a parked owner only once the lock is free for it to take.
        let wake = node.is_none() && slot.parked;
        drop(slot);
        if wake {
            inbox.wake.notify_one();
        }
        let status = fabric.record(SendStatus::Delivered);
        if let Some(mut node) = node {
            let ctx = NodeCtx {
                node_id: to,
                fabric: Arc::clone(fabric),
                nested: true,
            };
            run_batch(node.as_mut(), batch, &ctx);
            inbox.put_back(node);
        }
        status
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
        self.route(Envelope {
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
        self.send_vectored(external_id(port), tag, data, payload)
    }
}

/// A node running inside a [`ThreadCluster`].
pub trait ThreadedNode: Send {
    /// Called for every delivered message.
    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx);

    /// Called with everything drained from the inbox in one wakeup
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

/// A running cluster of threaded nodes.  Dropping it stops the clock and
/// every node and joins their threads.
pub struct ThreadCluster {
    /// The driver's handle on the fabric: its sends only queue.
    driver: NodeCtx,
    /// The node threads, then the clock thread (if any).
    handles: Vec<JoinHandle<()>>,
    /// Dropped to stop the clock (only with a [`ThreadConfig::tick`]).
    clock: Option<Sender<()>>,
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
        let nodes = (0..n).map(|_| Inbox::default()).collect();
        let fabric = Arc::new(Fabric {
            nodes,
            ..Fabric::default()
        });
        let mut handles: Vec<_> = (0..n)
            .map(|node_id| {
                fabric.nodes[node_id].lock().node = Some(Box::new(factory(node_id)));
                let ctx = NodeCtx {
                    node_id,
                    fabric: Arc::clone(&fabric),
                    nested: false,
                };
                spawn(format!("tc-node-{node_id}"), move || run_node(ctx))
            })
            .collect();
        let clock = config.tick.map(|period| {
            let (stop, stopped) = channel();
            let fabric = Arc::clone(&fabric);
            handles.push(spawn("tc-clock".into(), move || {
                run_clock(period, fabric, stopped)
            }));
            stop
        });
        let driver = NodeCtx {
            node_id: EXTERNAL_SENDER,
            fabric,
            nested: true,
        };
        ThreadCluster {
            driver,
            handles,
            clock,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.driver.node_count()
    }

    /// Snapshot of the cluster-wide delivery counters.
    pub fn metrics(&self) -> ThreadMetrics {
        let fabric = &self.driver.fabric;
        ThreadMetrics {
            delivered: fabric.delivered.load(Ordering::Relaxed),
            dropped: fabric.dropped.load(Ordering::Relaxed),
        }
    }

    /// Node-bound messages enqueued or being processed.  A node sends what
    /// a batch provokes *before* the batch stops counting, so zero followed
    /// by an empty external queue means the cluster is quiescent — in that
    /// order: a reply can land between a look at the queue and the zero.
    pub fn pending_messages(&self) -> u64 {
        self.driver.fabric.in_flight.load(Ordering::SeqCst)
    }

    /// Inject a message into the cluster from the driver thread (external
    /// port 0).
    pub fn send(&self, to: usize, tag: u64, data: impl Into<Bytes>) -> SendStatus {
        self.send_vectored_from_port(0, to, tag, data.into(), Bytes::new())
    }

    /// Inject a two-segment message (`data ‖ payload`, the payload moved as
    /// a shared view) carrying the identity of external port `port` — nodes
    /// see `from ==`[`external_id`]`(port)` and can answer the exact
    /// driver-side endpoint that sent it.  The driver only queues: it never
    /// runs a node.
    pub fn send_vectored_from_port(
        &self,
        port: usize,
        to: usize,
        tag: u64,
        data: Bytes,
        payload: Bytes,
    ) -> SendStatus {
        self.driver.route(Envelope {
            from: external_id(port),
            to,
            tag,
            data,
            payload,
        })
    }

    /// Wait for a message sent to the external observer: yield a few times,
    /// then park until an enqueue.  `None` means `timeout` elapsed — or,
    /// with a [`ThreadConfig::tick`], that a cadence did: the caller's
    /// timeout-driven work is due, and it never had to arm a timer shorter
    /// than `timeout` to learn so.
    pub fn recv_external(&self, timeout: Duration) -> Option<Envelope> {
        let external = &self.driver.fabric.external;
        external.wait_for(Some(timeout), Slot::pop).flatten()
    }

    /// Take an already-queued external message without blocking (a queued
    /// tick is skipped).
    pub fn try_recv_external(&self) -> Option<Envelope> {
        let mut slot = self.driver.fabric.external.lock();
        std::iter::from_fn(|| slot.pop()).flatten().next()
    }

    /// Stop the clock and all nodes and join their threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ThreadCluster {
    fn drop(&mut self) {
        self.clock.take();
        for inbox in &self.driver.fabric.nodes {
            inbox.lock().closed = true;
            inbox.wake.notify_one();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
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
        // lands on a receiver parked on its condvar: the park must end on
        // the enqueue, not ride out its timeout.
        let cluster = ThreadCluster::start(1, |_| RelayNode);
        let fabric = Arc::clone(&cluster.driver.fabric);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let env = Envelope {
                from: 0,
                to: EXTERNAL_SENDER,
                tag: 9,
                data: Bytes::from(vec![1]),
                payload: Bytes::new(),
            };
            let ctx = NodeCtx {
                node_id: 0,
                fabric,
                nested: true,
            };
            ctx.route(env)
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
        /// `on_tick`, on the node's own thread.
        Tick,
        /// `on_tick` on any other thread.
        TickElsewhere,
    }

    /// Logs batches and ticks; tag 2 blocks its handler until released, tag
    /// 1 is echoed to the external queue, tag 3 is forwarded to node 1 as a
    /// tag 2.
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
                3 => {
                    let _ = ctx.send(1, 2, msg.data);
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

        fn on_tick(&mut self, ctx: &NodeCtx) {
            let own = std::thread::current().name() == Some(&format!("tc-node-{}", ctx.node_id()));
            let did = if own { Did::Tick } else { Did::TickElsewhere };
            self.log.lock().unwrap().push(did);
        }
    }

    /// A cluster of `Logged` nodes, under a clock of `tick` if given.
    /// (`release` is declared first so that it drops first: a failing test
    /// unblocks a held handler before the cluster joins its thread.)
    struct Ticked {
        release: Sender<()>,
        entered: Receiver<()>,
        logs: Vec<Arc<std::sync::Mutex<Vec<Did>>>>,
        cluster: ThreadCluster,
    }

    fn ticked(nodes: usize, tick: Option<Duration>) -> Ticked {
        let logs: Vec<_> = (0..nodes).map(|_| Arc::default()).collect();
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = ThreadConfig { tick };
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
        let t = ticked(3, Some(CADENCE));
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
        let t = ticked(1, Some(CADENCE));
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
        let t = ticked(1, Some(CADENCE));
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

    /// Forwards like [`RelayNode`] and logs which thread ran each batch.
    struct Traced(Arc<std::sync::Mutex<Vec<(usize, String)>>>);

    impl ThreadedNode for Traced {
        fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
            RelayNode.on_message(msg, ctx);
        }

        fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
            let thread = std::thread::current().name().map(String::from);
            let ran = (ctx.node_id(), thread.unwrap_or_default());
            self.0.lock().unwrap().push(ran);
            for msg in msgs {
                self.on_message(msg, ctx);
            }
        }
    }

    /// Relay one envelope from the driver down `nodes` traced nodes: which
    /// node ran on which thread, in order.
    fn traced_relay(nodes: usize) -> Vec<(usize, String)> {
        let log = Arc::default();
        let cluster = ThreadCluster::start(nodes, |_| Traced(Arc::clone(&log)));
        assert!(cluster
            .send(0, 7, 1u64.to_le_bytes().to_vec())
            .is_delivered());
        let env = cluster.recv_external(Duration::from_secs(5));
        assert_eq!(env.expect("the relay's result").from, nodes - 1);
        cluster.shutdown();
        let ran = log.lock().unwrap().clone();
        ran
    }

    fn on(node: usize, thread: usize) -> (usize, String) {
        (node, format!("tc-node-{thread}"))
    }

    #[test]
    fn a_forward_to_an_idle_node_runs_on_the_senders_thread() {
        // The driver's send wakes node 0; node 1 sits idle in its inbox, so
        // node 0's forward runs it right there.
        assert_eq!(traced_relay(2), [on(0, 0), on(1, 0)]);
    }

    #[test]
    fn a_node_run_in_place_only_queues_so_the_next_hop_runs_on_its_own_thread() {
        assert_eq!(traced_relay(3), [on(0, 0), on(1, 0), on(2, 2)]);
    }

    #[test]
    fn each_producer_s_envelopes_reach_a_node_in_the_order_it_sent_them() {
        // Every round, nodes 0 and 1 each answer the driver's go with a
        // burst of sequenced envelopes to node 2 — running it in place
        // whenever they find it idle — while the driver sends its own burst
        // to node 2 directly.  Node 2 takes a few microseconds a message, so
        // the producers often find it busy, or idle with others' envelopes
        // still queued.
        const ROUNDS: u64 = 300;
        const BURST: u64 = 8;
        type Seen = Arc<std::sync::Mutex<Vec<(usize, u64)>>>;
        struct Sequenced {
            sent: u64,
            seen: Seen,
        }
        impl ThreadedNode for Sequenced {
            fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
                if ctx.node_id() == 2 {
                    let seq = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
                    self.seen.lock().unwrap().push((msg.from, seq));
                    let busy = std::time::Instant::now();
                    while busy.elapsed() < Duration::from_micros(3) {}
                    return;
                }
                for _ in 0..BURST {
                    assert!(ctx
                        .send(2, 0, self.sent.to_le_bytes().to_vec())
                        .is_delivered());
                    self.sent += 1;
                }
            }
        }
        let seen = Seen::default();
        let cluster = ThreadCluster::start(3, |_| Sequenced {
            sent: 0,
            seen: Arc::clone(&seen),
        });
        let mut sent = 0u64;
        for _ in 0..ROUNDS {
            for producer in [0, 1] {
                assert!(cluster.send(producer, 1, vec![]).is_delivered());
            }
            for _ in 0..BURST {
                assert!(cluster
                    .send(2, 0, sent.to_le_bytes().to_vec())
                    .is_delivered());
                sent += 1;
            }
        }
        eventually("every envelope processed", || {
            cluster.pending_messages() == 0
        });
        let seen = seen.lock().unwrap();
        for producer in [0, 1, EXTERNAL_SENDER] {
            let order: Vec<u64> = seen
                .iter()
                .filter(|s| s.0 == producer)
                .map(|s| s.1)
                .collect();
            assert!(
                order.iter().copied().eq(0..ROUNDS * BURST),
                "producer {producer}: {} envelopes, out of order or missing",
                order.len()
            );
        }
        drop(seen);
        cluster.shutdown();
    }

    #[test]
    fn an_envelope_queued_behind_a_run_in_place_wakes_the_owner_when_the_run_ends() {
        let t = ticked(2, None);
        // Node 0 forwards the tag 3 to idle node 1 as a tag 2: node 1 runs
        // in place on node 0's thread and blocks in its handler.
        assert!(t.cluster.send(0, 3, vec![]).is_delivered());
        t.entered.recv().expect("node 1's handler is entered");
        // The driver's echo request queues behind the run; node 1's owner
        // thread, woken to it, finds its node away and parks again.
        assert!(t.cluster.send(1, 1, vec![42]).is_delivered());
        let inbox = &t.cluster.driver.fabric.nodes[1];
        eventually("node 1's owner parked", || inbox.lock().parked);
        let released = std::time::Instant::now();
        t.release.send(()).unwrap();
        let echo = t.cluster.recv_external(Duration::from_secs(5));
        let took = released.elapsed();
        assert_eq!(echo.expect("the echo").data[..], [42]);
        assert!(
            took < Duration::from_secs(1),
            "answered {took:?} after the release"
        );
        assert_eq!(*t.logs[1].lock().unwrap(), [Did::Batch(1), Did::Batch(1)]);
        t.cluster.shutdown();
    }

    #[test]
    fn a_tick_or_a_close_behind_a_run_in_place_is_taken_by_the_owner_thread() {
        let t = ticked(2, Some(CADENCE));
        assert!(t.cluster.send(0, 3, vec![]).is_delivered());
        t.entered.recv().expect("node 1 runs in place and blocks");
        // A cadence passes over the run: node 1's tick waits in its inbox
        // for its owner thread, not for the thread running the node.
        let fabric = Arc::clone(&t.cluster.driver.fabric);
        eventually("a tick queued on node 1", || {
            fabric.nodes[1].lock().tick_pending
        });
        std::thread::sleep(CADENCE * 4);
        let log = &t.logs[1];
        assert_eq!(*log.lock().unwrap(), [Did::Batch(1)]);
        t.release.send(()).unwrap();
        eventually("node 1's tick on its own thread", || {
            log.lock().unwrap().contains(&Did::Tick)
        });
        // Block node 1 in place again, then close the cluster behind it: its
        // owner thread leaves though its node is away, and the close waits
        // only for the run to end.
        assert!(t.cluster.send(0, 3, vec![]).is_delivered());
        t.entered.recv().expect("node 1 runs in place again");
        let cluster = t.cluster;
        let closing = std::thread::spawn(move || cluster.shutdown());
        eventually("the close", || fabric.nodes[1].lock().closed);
        let released = std::time::Instant::now();
        t.release.send(()).unwrap();
        closing.join().unwrap();
        let took = released.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "closed {took:?} after the release"
        );
        assert!(!log.lock().unwrap().contains(&Did::TickElsewhere));
    }

    #[test]
    fn a_run_in_place_takes_its_inbox_from_the_front_and_leaves_a_tick_to_the_owner() {
        // A fabric with no threads, so nothing races the sends below: node
        // 0's inbox holds an envelope queued while the node was busy.
        struct Tags(Arc<std::sync::Mutex<Vec<Vec<u64>>>>);
        impl ThreadedNode for Tags {
            fn on_message(&mut self, _msg: Envelope, _ctx: &NodeCtx) {}
            fn on_batch(&mut self, msgs: Vec<Envelope>, _ctx: &NodeCtx) {
                self.0
                    .lock()
                    .unwrap()
                    .push(msgs.iter().map(|m| m.tag).collect());
            }
        }
        let ran = Arc::default();
        let fabric = Arc::new(Fabric {
            nodes: (0..2).map(|_| Inbox::default()).collect(),
            ..Fabric::default()
        });
        let enqueue = |ctrl: Control| {
            fabric
                .in_flight
                .fetch_add(u64::from(ctrl.is_some()), Ordering::SeqCst);
            fabric.nodes[0].lock().queue.push_back(ctrl);
        };
        fabric.nodes[0].lock().node = Some(Box::new(Tags(Arc::clone(&ran))));
        enqueue(Some(Envelope {
            from: 1,
            to: 0,
            tag: 1,
            data: Bytes::new(),
            payload: Bytes::new(),
        }));
        let node_1 = NodeCtx {
            node_id: 1,
            fabric: Arc::clone(&fabric),
            nested: false,
        };
        // Node 1's next envelope runs node 0 here, behind the queued one.
        assert!(node_1.send(0, 2, vec![]).is_delivered());
        assert_eq!(*ran.lock().unwrap(), [vec![1, 2]]);
        // With a tick at the front, a send only queues: the tick, and what
        // stands behind it, wait for the owner thread.
        enqueue(None);
        assert!(node_1.send(0, 3, vec![]).is_delivered());
        assert_eq!(ran.lock().unwrap().len(), 1, "nothing ran in place");
        let mut batch = Vec::new();
        assert!(
            fabric.nodes[0].lock().drain(&mut batch, true),
            "the owner takes the tick"
        );
        assert_eq!(batch.iter().map(|m| m.tag).collect::<Vec<_>>(), [3]);
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
