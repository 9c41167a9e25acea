//! The discrete-event backend: all node runtimes live in-process and every
//! fabric operation travels through a virtual-time event queue over the
//! calibrated `tc-simnet` fabric and CPU models.
//!
//! This is the engine behind every table and figure reproduction:
//!
//! * each operation leaves its sender no earlier than the sender's
//!   *injection gap* allows (this is what bounds message rate);
//! * it arrives after the fabric *latency* for its size and class;
//! * handling it on the destination costs virtual CPU time: AM dispatch,
//!   cached-ifunc lookup, JIT compilation (first arrival), binary load, and
//!   the interpreter's cycle count converted at the node's clock;
//! * anything the handled message itself posted (recursive forwards, result
//!   returns, GET replies) departs after that processing completes.
//!
//! Every delivery is appended to a [`TimingLog`] so the benchmark harness can
//! reconstruct the paper's overhead breakdown (transmission / lookup / JIT /
//! execution) without re-instrumenting the runtime.

use super::reliable::{RelConfig, ReliableSet};
use super::snapshot::{RankSnapshot, Snapshot};
use super::{check_server_rank, wire, ClientId, Transport};
use crate::error::{CoreError, Result};
use crate::metrics::{OutcomeKind, ProcessOutcome};
use crate::runtime::{NativeAmHandler, NodeRuntime};
use crate::sim::{DeliveryRecord, TimingLog};
use std::collections::HashMap;
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, FaultPlan};
use tc_simnet::{EventQueue, FabricOp, Platform, SimDuration, SimTime};
use tc_ucx::{OutgoingMessage, UcpOp};

#[derive(Debug)]
enum InFlight {
    /// A fabric message (data plane).  `rel` carries the reliability header
    /// when a fault plan is installed.
    Frame {
        msg: OutgoingMessage,
        rel: Option<(u64, u64)>,
        transmission: SimDuration,
        wire_bytes: usize,
    },
    /// A pure cumulative ack of the reliability layer, naming the gap behind
    /// it if frames are parked (chaos mode only).
    Ack {
        src: usize,
        dst: usize,
        ack: u64,
        gap: Option<u64>,
    },
    /// Periodic retransmission-timer sweep (chaos mode only).
    RetxTick,
}

/// Chaos-mode state of the simulated backend: the shared fault-decision
/// session plus one reliability state machine per node, driven in virtual
/// time.
struct SimChaos {
    session: ChaosSession,
    rel: Vec<ReliableSet<OutgoingMessage>>,
    /// True while a [`InFlight::RetxTick`] is in the queue.
    tick_scheduled: bool,
}

/// Virtual-time cadence of the retransmission-timer sweep.
const RETX_TICK: SimDuration = SimDuration(50_000); // 50 µs
/// Wire size charged for a pure ack frame.
const ACK_WIRE_BYTES: usize = 24;

/// The discrete-event cluster backend (virtual time, calibrated models).
pub struct SimTransport {
    platform: Platform,
    /// Ranks `0..clients` are client runtimes, the rest servers.
    clients: usize,
    nodes: Vec<NodeRuntime>,
    queue: EventQueue<InFlight>,
    /// Earliest time each node's CPU is free to process the next arrival.
    node_ready_at: Vec<SimTime>,
    /// Earliest time each node's fabric injection port is free.
    link_ready_at: Vec<SimTime>,
    /// Latest scheduled arrival per directed link.  RDMA RC links deliver
    /// in posting order, and the truncation protocol *depends* on that: a
    /// tiny code-elided frame must never overtake the full frame that ships
    /// the code.  Size-dependent latency alone would let it (small frames
    /// are faster), so arrivals are clamped to each link's FIFO order.
    link_last_arrival: HashMap<(usize, usize), SimTime>,
    timings: TimingLog,
    errors: Vec<CoreError>,
    delivered: u64,
    dropped_misaddressed: u64,
    chaos: Option<SimChaos>,
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("platform", &self.platform.name)
            .field("nodes", &self.nodes.len())
            .field("now", &self.queue.now())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl SimTransport {
    /// Constructor with `clients` driver runtimes (ranks `0..clients`),
    /// `servers` server runtimes (ranks `clients..clients+servers`) and an
    /// optional fault plan: when present, every fabric traversal consults
    /// the chaos engine (drop / duplicate / delay / reorder, partitions,
    /// crash windows) and the data plane runs over the reliable-delivery
    /// layer in virtual time.  Client injection interleaves
    /// deterministically: each client owns its own injection port
    /// (per-rank `link_ready_at`) and flushed sends meet in the one virtual
    /// time event queue.
    pub fn with_config(
        platform: Platform,
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
    ) -> Self {
        let clients = clients.max(1);
        let total = servers + clients;
        let nodes = (0..total)
            .map(|i| {
                let triple = if i < clients {
                    client_triple
                } else {
                    server_triple
                };
                NodeRuntime::new(tc_ucx::WorkerAddr(i as u32), total as u32, triple)
            })
            .collect();
        SimTransport {
            platform,
            clients,
            nodes,
            queue: EventQueue::new(),
            node_ready_at: vec![SimTime::ZERO; total],
            link_ready_at: vec![SimTime::ZERO; total],
            link_last_arrival: HashMap::new(),
            timings: TimingLog::default(),
            errors: Vec::new(),
            delivered: 0,
            dropped_misaddressed: 0,
            chaos: fault_plan.map(|plan| {
                let rel_cfg = rel_config.unwrap_or_else(RelConfig::sim_default);
                SimChaos {
                    session: ChaosSession::new(plan),
                    rel: (0..total).map(|_| ReliableSet::new(rel_cfg)).collect(),
                    tick_scheduled: false,
                }
            }),
        }
    }

    /// The platform this backend models.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Timing log of every processed delivery.
    pub fn timings(&self) -> &TimingLog {
        &self.timings
    }

    /// Errors collected from node runtimes during event processing.
    pub fn errors(&self) -> &[CoreError] {
        &self.errors
    }

    /// Access a node runtime (0 = client).
    pub fn node(&self, rank: usize) -> &NodeRuntime {
        &self.nodes[rank]
    }

    /// Process a single event.  Returns false when the queue is empty.
    fn step_event(&mut self) -> bool {
        let popped = self.queue.pop().or_else(|| {
            // Self-heal: an empty queue while reliability state is
            // outstanding must not read as quiescence — re-arm the
            // retransmission timer so virtual time keeps moving until the
            // unacked frames resolve.
            self.ensure_retx_tick();
            self.queue.pop()
        });
        let Some((arrival, inflight)) = popped else {
            return false;
        };
        match inflight {
            InFlight::Frame {
                msg,
                rel,
                transmission,
                wire_bytes,
            } => self.handle_frame(arrival, msg, rel, transmission, wire_bytes),
            InFlight::Ack { src, dst, ack, gap } => {
                let mut repairs = Vec::new();
                if let Some(rel) = self.chaos.as_mut().and_then(|c| c.rel.get_mut(dst)) {
                    rel.on_gap(src as u32, ack, gap, arrival.as_nanos(), &mut repairs);
                }
                for f in repairs {
                    self.schedule_frame(dst, f.m, Some((f.seq, f.ack)), false, arrival);
                }
            }
            InFlight::RetxTick => self.handle_retx_tick(arrival),
        }
        true
    }

    /// Handle an arriving fabric frame: run it through the destination's
    /// reliability state (chaos mode), then deliver whatever came out in
    /// order.
    fn handle_frame(
        &mut self,
        arrival: SimTime,
        msg: OutgoingMessage,
        rel: Option<(u64, u64)>,
        transmission: SimDuration,
        wire_bytes: usize,
    ) {
        let dst = msg.dst.index();
        if dst >= self.nodes.len() {
            self.dropped_misaddressed += 1;
            return; // misaddressed message: dropped (and counted)
        }
        let src = msg.src.index();
        let mut ack_now = None;
        let deliverable = match (rel, &mut self.chaos) {
            (Some((seq, ack)), Some(chaos)) => {
                let out = chaos.rel[dst].on_data(src as u32, seq, ack, msg, arrival.as_nanos());
                ack_now = out.ack_now.then_some((out.ack, out.gap));
                out.deliver
            }
            _ => vec![msg],
        };
        for m in deliverable {
            self.deliver_and_charge(arrival, m, transmission, wire_bytes);
        }
        if let Some((ack, gap)) = ack_now {
            // A duplicate, or frames parked behind a gap: the cumulative ack
            // travels back at once, over the (faulty) fabric.
            self.schedule_ack(dst, src, ack, gap);
        }
        // End of the event: what the deliveries posted has departed (and
        // piggybacked the ack where it went back to `src`); a link still
        // owing gets its one pure ack now.
        let mut due = Vec::new();
        if let Some(chaos) = &mut self.chaos {
            chaos.rel[dst].acks_due(|peer, ack| due.push((peer as usize, ack)));
        }
        for (peer, ack) in due {
            self.schedule_ack(dst, peer, ack, None);
        }
    }

    /// Deliver one message to its destination runtime and charge virtual
    /// time for the processing it caused.
    fn deliver_and_charge(
        &mut self,
        arrival: SimTime,
        msg: OutgoingMessage,
        transmission: SimDuration,
        wire_bytes: usize,
    ) {
        let dst = msg.dst.index();
        self.delivered += 1;
        self.nodes[dst].deliver(msg);

        // The destination CPU picks the message up when it is free.
        let start = self.node_ready_at[dst].max(arrival);
        let outcomes = self.nodes[dst].poll(usize::MAX);
        let mut finish = start;
        for outcome in outcomes {
            match outcome {
                Ok(o) => {
                    let record = self.charge(dst, arrival, finish, transmission, wire_bytes, &o);
                    finish = record.done;
                    self.timings.records.push(record);
                }
                Err(e) => self.errors.push(e),
            }
        }
        self.node_ready_at[dst] = finish;
        // Whatever the processing posted departs after processing completes.
        self.flush_node_at(dst, finish);
    }

    /// Send a pure cumulative ack `from → to` through the chaos engine.
    fn schedule_ack(&mut self, from: usize, to: usize, ack: u64, gap: Option<u64>) {
        let Some(chaos) = &mut self.chaos else {
            return;
        };
        let decision = chaos.session.decide(from, to);
        if !decision.deliver {
            return; // a lost ack: the peer retransmits, the dup is dropped
        }
        let latency = self.platform.fabric.latency(FabricOp::Put, ACK_WIRE_BYTES);
        let extra = SimDuration(
            latency
                .as_nanos()
                .saturating_mul(decision.delay_units as u64 + decision.reorder as u64),
        );
        let copies = 1 + decision.duplicate as u32;
        for _ in 0..copies {
            self.queue.schedule_after(
                latency + extra,
                InFlight::Ack {
                    src: from,
                    dst: to,
                    ack,
                    gap,
                },
            );
        }
    }

    /// Retransmission-timer sweep: re-send every expired unacked frame
    /// (through the chaos engine — retransmits can be dropped too) and
    /// re-arm the timer while anything is outstanding.
    fn handle_retx_tick(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        let mut to_send = Vec::new();
        {
            let Some(chaos) = &mut self.chaos else {
                return;
            };
            chaos.tick_scheduled = false;
            for (rank, rel) in chaos.rel.iter_mut().enumerate() {
                for f in rel.tick(now_ns) {
                    to_send.push((rank, f));
                }
            }
        }
        for (rank, f) in to_send {
            self.schedule_frame(rank, f.m, Some((f.seq, f.ack)), false, now);
        }
        self.ensure_retx_tick();
    }

    /// Arm the retransmission timer if any frame is outstanding and no tick
    /// is already queued.
    fn ensure_retx_tick(&mut self) {
        let need = match &self.chaos {
            Some(c) => !c.tick_scheduled && c.rel.iter().any(|r| r.unacked_total() > 0),
            None => false,
        };
        if need {
            if let Some(c) = &mut self.chaos {
                c.tick_scheduled = true;
            }
            self.queue.schedule_after(RETX_TICK, InFlight::RetxTick);
        }
    }

    /// Schedule one frame onto the fabric: fabric timing (injection gap for
    /// first sends, latency always) plus, in chaos mode, the fault decision
    /// for this traversal (drop / duplicate / delay / reorder).
    fn schedule_frame(
        &mut self,
        rank: usize,
        msg: OutgoingMessage,
        rel: Option<(u64, u64)>,
        use_gap: bool,
        earliest: SimTime,
    ) {
        let wire_bytes = msg.op.wire_size() + if rel.is_some() { 16 } else { 0 };
        let class = match &msg.op {
            UcpOp::Get { .. } => FabricOp::Get,
            UcpOp::ActiveMessage { .. } => FabricOp::ActiveMessage,
            _ => FabricOp::Put,
        };
        let fabric = self.platform.fabric;
        let latency = fabric.latency(class, wire_bytes);
        let depart = if use_gap {
            let gap = fabric.injection_gap(class, wire_bytes);
            let depart = self.link_ready_at[rank].max(earliest);
            self.link_ready_at[rank] = depart + gap;
            depart
        } else {
            earliest
        };
        // Per-link FIFO: this frame's base arrival never precedes an
        // earlier frame's arrival on the same directed link (equal-time
        // events pop in schedule order, preserving posting order).  Chaos
        // delay/reorder offsets are added *after* the clamp — they model
        // deliberate reordering the reliable layer recovers from.
        let link = (rank, msg.dst.index());
        let fifo_arrival = {
            let base = depart + latency;
            let clamped = self
                .link_last_arrival
                .get(&link)
                .map(|&last| base.max(last))
                .unwrap_or(base);
            self.link_last_arrival.insert(link, clamped);
            clamped
        };
        if rel.is_some() {
            let decision = match &mut self.chaos {
                Some(chaos) => chaos.session.decide(rank, msg.dst.index()),
                None => tc_chaos::Decision::CLEAN,
            };
            if !decision.deliver {
                return; // dropped by the plan; the retransmit timer recovers
            }
            let extra = SimDuration(
                latency
                    .as_nanos()
                    .saturating_mul(decision.delay_units as u64 + decision.reorder as u64),
            );
            let copies = 1 + decision.duplicate as u32;
            for _ in 0..copies {
                self.queue.schedule_at(
                    fifo_arrival + extra,
                    InFlight::Frame {
                        msg: msg.clone(),
                        rel,
                        transmission: latency,
                        wire_bytes,
                    },
                );
            }
            return;
        }
        self.queue.schedule_at(
            fifo_arrival,
            InFlight::Frame {
                msg,
                rel,
                transmission: latency,
                wire_bytes,
            },
        );
    }

    /// Convert a processing outcome into charged virtual time.
    fn charge(
        &self,
        node: usize,
        arrival: SimTime,
        start: SimTime,
        transmission: SimDuration,
        wire_bytes: usize,
        outcome: &ProcessOutcome,
    ) -> DeliveryRecord {
        let cpu = if node < self.clients {
            self.platform.client_cpu
        } else {
            self.platform.server_cpu
        };
        let (lookup, jit, binary_load) = match outcome.kind {
            OutcomeKind::AmExecuted => (cpu.am_dispatch(), SimDuration::ZERO, SimDuration::ZERO),
            OutcomeKind::IfuncExecutedCached => {
                (cpu.cached_lookup(), SimDuration::ZERO, SimDuration::ZERO)
            }
            OutcomeKind::IfuncExecutedFirstArrival => {
                let jit = outcome
                    .jit_bitcode_bytes
                    .map(|b| cpu.jit_time(b))
                    .unwrap_or(SimDuration::ZERO);
                let load = if outcome.binary_loaded {
                    cpu.binary_load()
                } else {
                    SimDuration::ZERO
                };
                (cpu.uncached_lookup(), jit, load)
            }
            // Pure data-path operations: a small fixed handling cost.
            _ => (
                SimDuration::from_nanos(20),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ),
        };
        let exec = cpu.exec_time(outcome.exec_cycles);
        let done = start + lookup + jit + binary_load + exec;
        DeliveryRecord {
            node: node as u32,
            arrival,
            done,
            kind: outcome.kind,
            wire_bytes,
            transmission,
            lookup,
            jit,
            binary_load,
            exec,
        }
    }

    /// Pick up everything node `rank` has posted and schedule its delivery,
    /// assuming the sends are issued "now".
    fn flush_node(&mut self, rank: usize) {
        self.flush_node_at(rank, self.queue.now());
    }

    fn flush_node_at(&mut self, rank: usize, earliest: SimTime) {
        let outgoing = self.nodes[rank].take_outgoing();
        let now_ns = self.queue.now().as_nanos();
        for msg in outgoing {
            let dst = msg.dst.index();
            // Chaos mode: register the message with the sender's
            // reliability state (assigning its sequence number) unless it
            // bypasses the fabric model the fault plan describes: loopback,
            // misaddressed, or client-to-client.  Client↔client traffic is
            // loopback-class — all clients live on the driving side, and
            // the threaded backend delivers it driver-locally without
            // touching the fabric, so the fault model must exempt it here
            // too or the backends' chaos schedules diverge.
            let client_to_client = rank < self.clients && dst < self.clients;
            let rel = match &mut self.chaos {
                Some(chaos) if dst < self.nodes.len() && dst != rank && !client_to_client => {
                    Some(chaos.rel[rank].send(dst as u32, msg.clone(), now_ns))
                }
                _ => None,
            };
            self.schedule_frame(rank, msg, rel, true, earliest);
        }
        self.ensure_retx_tick();
    }
}

impl Transport for SimTransport {
    fn backend_name(&self) -> &'static str {
        "simnet"
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn client_count(&self) -> usize {
        self.clients
    }

    fn client(&self, id: ClientId) -> &NodeRuntime {
        assert!(id.0 < self.clients, "no client with id {id}");
        &self.nodes[id.0]
    }

    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        assert!(id.0 < self.clients, "no client with id {id}");
        &mut self.nodes[id.0]
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        for node in &mut self.nodes {
            node.deploy_am_handler(name.to_string(), handler.clone());
        }
        Ok(())
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        if id.0 >= self.clients {
            return Err(CoreError::Sim(format!("no client with id {id}")));
        }
        self.flush_node(id.0);
        Ok(())
    }

    fn step(&mut self) -> Result<bool> {
        Ok(self.step_event())
    }

    /// The oracle runs the same server-side control code as the live
    /// backends, minus the wire and the token: the request is served in
    /// place (AM deployment too, by [`Transport::deploy_am`]).
    fn control(&mut self, rank: usize, request_tag: u64, body: &[u8]) -> Result<Vec<u8>> {
        check_server_rank(self.clients, self.nodes.len() - self.clients, rank)?;
        wire::serve_control(&mut self.nodes[rank], request_tag, body).ok_or_else(|| {
            CoreError::Transport(format!(
                "rank {rank} did not answer control request {request_tag}"
            ))
        })
    }

    /// Every rank's link rows are here; nothing dies, heals or stalls.
    fn observe(&self) -> Snapshot {
        let rank = |(rank, node): (usize, &NodeRuntime)| {
            let rel = self.chaos.as_ref().map(|c| &c.rel[rank]);
            let stats = (rank < self.clients).then_some(node.stats);
            RankSnapshot::local(rank as u32, stats, rel)
        };
        Snapshot {
            backend: self.backend_name(),
            now_nanos: self.now().as_nanos(),
            delivered: self.delivered,
            dropped: self.dropped_misaddressed,
            chaos: self.chaos.as_ref().map(|c| c.session.stats()),
            ranks: self.nodes.iter().enumerate().map(rank).collect(),
            errors: self.errors.len(),
            ..Snapshot::default()
        }
    }
}
