//! The eight workloads.  Each drives the public `tc_core::Cluster` API from
//! the one load-generating thread in a closed loop, verifies every
//! operation, and counts an error as a failed operation, never a panic.

use crate::trace::{Name, SpanId, Tracer};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;
use tc_core::cluster::{
    Backend, Cluster, ClusterBuilder, CompletionHandle, GetHandle, PutHandle, Transport,
};
use tc_core::layout::{DATA_REGION_BASE, RESULT_MAILBOX_SLOTS, TARGET_REGION_BASE};
use tc_core::{
    build_ifunc_library, CoreError, FaultPlan, IfuncHandle, IfuncLibrary, LinkHealth, RelConfig,
    ResultHandle,
};
use tc_simnet::{Platform, SplitMix64};
use tc_ucx::Bytes;
use tc_workloads::{
    chaser_module, chaser_payload, dapc_am_handler, platform_toolchain, reporting_tsi_payload,
    tsi_reporting_module, PointerTable,
};

pub type Live = Cluster<Box<dyn Transport>>;
type Result<T> = std::result::Result<T, CoreError>;

pub const SERVERS: usize = 2;
const GET_LEN: usize = 1024;
const GET_WINDOW: usize = 16;
const REGION_LEN: usize = 1 << 20;
const BULK_LEN: usize = 64 << 10;
const BULK_BATCH: usize = 4;
const SHARD: usize = 4096;
pub const CHASE_DEPTH: u64 = 64;
pub const COLD_LIBRARIES: usize = 512;
const AM_NAME: &str = "dapc_chase";

/// Retransmission tunables of the reliable workloads: the threaded default
/// (30 ms) would turn every injected drop into a 30 ms stall of the closed
/// loop, which measures the timer, not the link layer.
const REL: RelConfig = RelConfig {
    rto: 2_000_000,
    rto_max: 64_000_000,
    adaptive: true,
};

/// When a pass stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Ops(u64),
}

impl Stop {
    fn more(self, attempted: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() < t,
            Stop::Ops(n) => attempted < n,
        }
    }
}

/// What one pass over a workload did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Operations completed *and* verified.
    pub ops: u64,
    pub attempted: u64,
    /// Errored, timed out, or returned wrong data.
    pub failed: u64,
    /// Wall time of the timed part of the pass.
    pub timed_ns: u64,
}

/// Public counters, summed over the clusters a workload has used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum C {
    Delivered,
    Dropped,
    BytesSent,
    Faults,
    Retransmits,
    DupDrops,
    OutOfOrder,
    AcksSent,
    FullSends,
    TruncatedSends,
    ServerEvents,
    IfuncsExecuted,
    AmsExecuted,
    JitCompilations,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; 14]);

impl std::ops::Index<C> for Counters {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<C> for Counters {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counters {
    pub fn plus(mut self, other: &Counters) -> Counters {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }

    pub fn since(mut self, earlier: &Counters) -> Counters {
        for (a, b) in self.0.iter_mut().zip(earlier.0) {
            *a = a.saturating_sub(b);
        }
        self
    }
}

/// Read every public counter of a live cluster.  Server counters cross the
/// control plane, so this is called only between passes.
fn read_counters(live: &mut Live) -> Counters {
    let mut c = Counters::default();
    let m = live.metrics();
    c[C::Delivered] = m.messages_delivered;
    c[C::Dropped] = m.messages_dropped;
    c[C::BytesSent] = m.bytes_sent;
    c[C::Faults] = m.faults_injected;
    for rank in 0..live.node_count() {
        if let Some(rel) = live.transport().node_reliability(rank) {
            c[C::Retransmits] += rel.retransmits;
            c[C::DupDrops] += rel.dup_drops;
            c[C::OutOfOrder] += rel.out_of_order;
            c[C::AcksSent] += rel.acks_sent;
        }
        let Ok(s) = live.stats(rank) else { continue };
        c[C::FullSends] += s.ifunc_full_sends;
        c[C::TruncatedSends] += s.ifunc_truncated_sends;
        c[C::ServerEvents] += s.gets_served + s.puts_applied + s.ifuncs_executed + s.ams_executed;
        c[C::IfuncsExecuted] += s.ifuncs_executed;
        c[C::AmsExecuted] += s.ams_executed;
        c[C::JitCompilations] += s.jit_compilations;
    }
    c
}

/// The cluster a workload currently drives, plus the counters of the ones
/// it has retired (rebuilt after an error, or one per block on `ifunc_cold`).
#[derive(Default)]
pub struct Slot {
    live: Option<Live>,
    retired: Counters,
}

impl Slot {
    fn counters(&mut self) -> Counters {
        match &mut self.live {
            Some(live) => self.retired.plus(&read_counters(live)),
            None => self.retired,
        }
    }

    fn retire(&mut self) {
        if let Some(mut live) = self.live.take() {
            self.retired = self.retired.plus(&read_counters(&mut live));
            live.shutdown();
        }
    }
}

fn base_builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(Platform::thor_xeon())
        .servers(SERVERS)
}

fn threads(builder: ClusterBuilder) -> Live {
    builder.build(Backend::Threads)
}

/// Poll once, then block: the claim of an already-arrived completion and the
/// wait for a pending one are separate spans.
fn claim_or_wait<H: CompletionHandle>(
    live: &mut Live,
    tr: &mut Tracer,
    op_span: SpanId,
    op: u32,
    handle: &H,
) -> Result<H::Output> {
    let s = tr.begin(Name::Claim, op_span, op);
    let ready = live.try_claim(handle);
    tr.end(s);
    if let Some(out) = ready {
        return Ok(out);
    }
    let s = tr.begin(Name::Wait, op_span, op);
    let out = live.wait(handle);
    tr.end(s);
    out
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Operations the closed loop keeps in flight.
    fn window(&self) -> u32;
    /// The stage-pass op kind whose per-message costs apply to this
    /// workload's server events.
    fn stage_kind(&self) -> &'static str;
    /// Fixed operation count of the warm pass that ends set-up.
    fn warm_ops(&self) -> u64;
    /// Cluster build, library build and registration, data install, AM
    /// deploy: everything set-up does before the warm pass.
    fn build(&mut self) -> Result<()>;
    /// Issue operations until `stop`, then drain what is in flight.
    fn run(&mut self, stop: Stop, tr: &mut Tracer) -> Round;
    /// Mechanism checks from public counters over the measured passes;
    /// returns the violations.
    fn check(&mut self, delta: &Counters, ops: u64) -> Vec<String>;
    fn slot(&mut self) -> &mut Slot;

    fn counters(&mut self) -> Counters {
        self.slot().counters()
    }

    /// Reliability state of every link that has carried reliable traffic.
    fn link_health(&mut self) -> Vec<LinkHealth> {
        let live = self.slot().live.as_ref();
        live.map(|l| l.link_health().into_iter().map(|(_, h)| h).collect())
            .unwrap_or_default()
    }

    fn teardown(&mut self) {
        self.slot().retire();
    }
}

/// Checks every workload shares.
fn common_violations(name: &str, delta: &Counters) -> Vec<String> {
    let mut v = Vec::new();
    if delta[C::Dropped] != 0 {
        v.push(format!(
            "{name}: transport dropped {} messages",
            delta[C::Dropped]
        ));
    }
    v
}

// --- GET streams -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetVariant {
    Small,
    Reliable,
    Lossy,
    Socket,
}

/// 1 KiB GETs, window 16, round-robin over the servers, seeded offsets in a
/// 1 MiB patterned region, every reply compared to the pattern.
pub struct GetStream {
    variant: GetVariant,
    seed: u64,
    sock_dir: PathBuf,
    patterns: Vec<Vec<u8>>,
    offsets: Vec<u32>,
    cursor: usize,
    builds: u32,
    slot: Slot,
}

impl GetStream {
    pub fn new(variant: GetVariant, seed: u64, sock_dir: PathBuf) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6765_745f_7374_726d);
        let patterns = (0..SERVERS)
            .map(|_| {
                let mut p = Vec::with_capacity(REGION_LEN);
                while p.len() < REGION_LEN {
                    p.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                p
            })
            .collect();
        let offsets = (0..1 << 16)
            .map(|_| rng.below((REGION_LEN - GET_LEN) as u64 + 1) as u32)
            .collect();
        GetStream {
            variant,
            seed,
            sock_dir,
            patterns,
            offsets,
            cursor: 0,
            builds: 0,
            slot: Slot::default(),
        }
    }
}

impl Workload for GetStream {
    fn name(&self) -> &'static str {
        match self.variant {
            GetVariant::Small => "get_small",
            GetVariant::Reliable => "get_reliable",
            GetVariant::Lossy => "get_lossy",
            GetVariant::Socket => "get_socket",
        }
    }

    fn window(&self) -> u32 {
        GET_WINDOW as u32
    }

    fn stage_kind(&self) -> &'static str {
        "get1k"
    }

    fn warm_ops(&self) -> u64 {
        2000
    }

    fn build(&mut self) -> Result<()> {
        self.slot.retire();
        self.builds += 1;
        let builder = base_builder();
        let mut live = match self.variant {
            GetVariant::Small => threads(builder),
            GetVariant::Reliable => threads(
                builder
                    .fault_plan(FaultPlan::seeded(self.seed))
                    .rel_config(REL),
            ),
            GetVariant::Lossy => threads(
                builder
                    .fault_plan(FaultPlan::seeded(self.seed).drop_rate(0.01))
                    .rel_config(REL),
            ),
            GetVariant::Socket => {
                // The benchmark binary doubles as the server process (see
                // `main`), and the socket lives inside the checkout.
                let exe = std::env::current_exe()
                    .map_err(|e| CoreError::Transport(format!("current_exe: {e}")))?;
                let path =
                    self.sock_dir
                        .join(format!("s{}-{}.sock", std::process::id(), self.builds));
                let transport = builder
                    .server_bin(exe)
                    .socket_addr(tc_core::cluster::SocketSpec::Unix(path))
                    .build_socket()?
                    .into_transport();
                Cluster::new(Box::new(transport) as Box<dyn Transport>)
            }
        };
        for (s, pattern) in self.patterns.iter().enumerate() {
            live.write_memory(live.server_rank(s), DATA_REGION_BASE, pattern)?;
        }
        self.slot.live = Some(live);
        Ok(())
    }

    fn run(&mut self, stop: Stop, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let t0 = Instant::now();
        let round_span = tr.begin(Name::Round, SpanId::NONE, 0);
        let mut inflight: VecDeque<(GetHandle, usize, usize, SpanId, u32)> =
            VecDeque::with_capacity(GET_WINDOW);
        'pass: loop {
            let Some(live) = self.slot.live.as_mut() else {
                r.attempted += 1;
                r.failed += 1;
                break;
            };
            let mut posted = false;
            while inflight.len() < GET_WINDOW && stop.more(r.attempted) {
                let op = r.attempted as u32;
                let server = r.attempted as usize % SERVERS;
                let off = self.offsets[self.cursor % self.offsets.len()] as usize;
                self.cursor += 1;
                r.attempted += 1;
                let op_span = tr.begin(Name::Op, round_span, op);
                let s = tr.begin(Name::Post, op_span, op);
                let handle = live.post_get(
                    live.server_rank(server),
                    DATA_REGION_BASE + off as u64,
                    GET_LEN as u64,
                );
                tr.end(s);
                inflight.push_back((handle, server, off, op_span, op));
                posted = true;
            }
            let mut outcome = Ok(());
            if posted {
                let s = tr.begin(Name::Flush, round_span, 0);
                outcome = live.flush();
                tr.end(s);
            }
            let Some((handle, server, off, op_span, op)) = inflight.pop_front() else {
                break;
            };
            let data = outcome.and_then(|()| claim_or_wait(live, tr, op_span, op, &handle));
            match data {
                Ok(data) => {
                    let s = tr.begin(Name::Verify, op_span, op);
                    let good = data.as_slice() == &self.patterns[server][off..off + GET_LEN];
                    tr.end(s);
                    tr.end(op_span);
                    if good {
                        r.ops += 1;
                    } else {
                        r.failed += 1;
                    }
                }
                Err(_) => {
                    // Everything in flight is lost with the cluster: count
                    // it, rebuild, and carry on.
                    r.failed += 1 + inflight.len() as u64;
                    tr.end(op_span);
                    for (_, _, _, span, _) in inflight.drain(..) {
                        tr.end(span);
                    }
                    if self.build().is_err() {
                        self.slot.retire();
                        break 'pass;
                    }
                }
            }
        }
        tr.end(round_span);
        r.timed_ns = t0.elapsed().as_nanos() as u64;
        r
    }

    fn check(&mut self, delta: &Counters, ops: u64) -> Vec<String> {
        let name = self.name();
        let mut v = common_violations(name, delta);
        match self.variant {
            GetVariant::Reliable if delta[C::Faults] != 0 => v.push(format!(
                "{name}: {} faults fired under a fault-free plan",
                delta[C::Faults]
            )),
            GetVariant::Lossy if ops > 1000 && delta[C::Faults] == 0 => {
                v.push(format!("{name}: the 1% drop plan injected no fault"))
            }
            GetVariant::Lossy if ops > 1000 && delta[C::Retransmits] == 0 => v.push(format!(
                "{name}: drops were injected but nothing was retransmitted"
            )),
            _ => {}
        }
        v
    }

    fn slot(&mut self) -> &mut Slot {
        &mut self.slot
    }
}

// --- bulk PUT + GET ----------------------------------------------------------

/// op = one confirmed 64 KiB PUT + one 64 KiB GET of the same seeded bytes;
/// batches of 4 PUTs then 4 GETs, full read-back compare.
pub struct BulkPutGet {
    buffers: Vec<Bytes>,
    batch: usize,
    slot: Slot,
}

impl BulkPutGet {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6275_6c6b_5f70_6774);
        let buffers = (0..2 * BULK_BATCH)
            .map(|_| {
                let mut b = Vec::with_capacity(BULK_LEN);
                while b.len() < BULK_LEN {
                    b.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                Bytes::from(b)
            })
            .collect();
        BulkPutGet {
            buffers,
            batch: 0,
            slot: Slot::default(),
        }
    }

    /// One batch; `Ok(verified)` or the first transport error.
    fn batch(
        live: &mut Live,
        buffers: &[Bytes],
        batch: usize,
        first_op: u32,
        tr: &mut Tracer,
        round_span: SpanId,
    ) -> Result<u64> {
        let ops: [u32; BULK_BATCH] = std::array::from_fn(|j| first_op + j as u32);
        let spans = ops.map(|op| tr.begin(Name::Op, round_span, op));
        let verified = Self::batch_calls(live, buffers, batch, &ops, &spans, tr, round_span);
        for span in spans {
            tr.end(span);
        }
        verified
    }

    fn batch_calls(
        live: &mut Live,
        buffers: &[Bytes],
        batch: usize,
        ops: &[u32; BULK_BATCH],
        spans: &[SpanId; BULK_BATCH],
        tr: &mut Tracer,
        round_span: SpanId,
    ) -> Result<u64> {
        // Slot `j` of a batch lives on server `j % SERVERS`; consecutive
        // batches write different bytes to it, so a stale read-back fails.
        let rank = |live: &Live, j: usize| live.server_rank(j % SERVERS);
        let addr = |j: usize| DATA_REGION_BASE + (j * BULK_LEN) as u64;
        let data = |j: usize| &buffers[(batch * BULK_BATCH + j) % buffers.len()];
        let flush = |live: &mut Live, tr: &mut Tracer| {
            let s = tr.begin(Name::Flush, round_span, 0);
            let flushed = live.flush();
            tr.end(s);
            flushed
        };

        let puts: [PutHandle; BULK_BATCH] = std::array::from_fn(|j| {
            let s = tr.begin(Name::Post, spans[j], ops[j]);
            let h = live.post_put_confirmed(rank(live, j), addr(j), data(j).clone());
            tr.end(s);
            h
        });
        flush(live, tr)?;
        for (j, put) in puts.iter().enumerate() {
            claim_or_wait(live, tr, spans[j], ops[j], put)?;
        }

        let gets: [GetHandle; BULK_BATCH] = std::array::from_fn(|j| {
            let s = tr.begin(Name::Post, spans[j], ops[j]);
            let h = live.post_get(rank(live, j), addr(j), BULK_LEN as u64);
            tr.end(s);
            h
        });
        flush(live, tr)?;
        let mut verified = 0;
        for (j, get) in gets.iter().enumerate() {
            let read = claim_or_wait(live, tr, spans[j], ops[j], get)?;
            let s = tr.begin(Name::Verify, spans[j], ops[j]);
            verified += u64::from(read.as_slice() == data(j).as_slice());
            tr.end(s);
        }
        Ok(verified)
    }
}

impl Workload for BulkPutGet {
    fn name(&self) -> &'static str {
        "bulk_put_get"
    }

    fn window(&self) -> u32 {
        BULK_BATCH as u32
    }

    fn stage_kind(&self) -> &'static str {
        "put64k"
    }

    fn warm_ops(&self) -> u64 {
        400
    }

    fn build(&mut self) -> Result<()> {
        self.slot.retire();
        self.slot.live = Some(threads(base_builder()));
        Ok(())
    }

    fn run(&mut self, stop: Stop, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let t0 = Instant::now();
        let round_span = tr.begin(Name::Round, SpanId::NONE, 0);
        while stop.more(r.attempted) {
            let Some(live) = self.slot.live.as_mut() else {
                r.attempted += 1;
                r.failed += 1;
                break;
            };
            let first_op = r.attempted as u32;
            r.attempted += BULK_BATCH as u64;
            self.batch += 1;
            match Self::batch(live, &self.buffers, self.batch, first_op, tr, round_span) {
                Ok(verified) => {
                    r.ops += verified;
                    r.failed += BULK_BATCH as u64 - verified;
                }
                Err(_) => {
                    r.failed += BULK_BATCH as u64;
                    if self.build().is_err() {
                        self.slot.retire();
                    }
                }
            }
        }
        tr.end(round_span);
        r.timed_ns = t0.elapsed().as_nanos() as u64;
        r
    }

    fn check(&mut self, delta: &Counters, _ops: u64) -> Vec<String> {
        common_violations(self.name(), delta)
    }

    fn slot(&mut self) -> &mut Slot {
        &mut self.slot
    }
}

// --- pointer chases ----------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseMode {
    /// DAPC: the cached `chaser_module` bitcode ifunc hops server to server.
    Ifunc,
    /// GBPC: the same chase as dependent 8-byte client GETs.
    Get,
    /// The paper's Active-Message baseline (`dapc_am_handler`).
    Am,
}

/// Depth-64 chases over a seeded 2 × 4096 pointer table, window 1, every
/// value compared to `PointerTable::chase`.
pub struct Chase {
    mode: ChaseMode,
    table: PointerTable,
    starts: Vec<u64>,
    expected: Vec<u64>,
    cursor: usize,
    /// Next result-mailbox slot.  Slots come from a ring because
    /// `Cluster::result_slot()` never wraps while the mailbox does
    /// (`RESULT_MAILBOX_SLOTS`): its 4097th handle waits forever.
    next_slot: u64,
    handle: Option<IfuncHandle>,
    slot: Slot,
}

impl Chase {
    pub fn new(mode: ChaseMode, seed: u64) -> Self {
        let table = PointerTable::generate(SERVERS, SHARD, seed);
        let mut rng = SplitMix64::new(seed ^ 0x6368_6173_655f_7374);
        let starts: Vec<u64> = (0..4096)
            .map(|_| rng.below(table.total_entries() as u64))
            .collect();
        let expected = starts
            .iter()
            .map(|&s| table.chase(s, CHASE_DEPTH))
            .collect();
        Chase {
            mode,
            table,
            starts,
            expected,
            cursor: 0,
            next_slot: 0,
            handle: None,
            slot: Slot::default(),
        }
    }

    /// One chase; the value it returned, or the transport error.
    fn chase(
        &mut self,
        start: u64,
        depth: u64,
        op: u32,
        op_span: SpanId,
        tr: &mut Tracer,
    ) -> Result<u64> {
        let live = self
            .slot
            .live
            .as_mut()
            .ok_or_else(|| CoreError::Transport("the cluster could not be rebuilt".into()))?;
        if self.mode == ChaseMode::Get {
            let mut idx = start;
            for _ in 0..depth {
                let rank = live.server_rank(self.table.owner_index(idx));
                let s = tr.begin(Name::Post, op_span, op);
                let handle = live.get(rank, self.table.entry_addr(idx), 8);
                tr.end(s);
                let data = claim_or_wait(live, tr, op_span, op, &handle?)?;
                idx = data
                    .as_slice()
                    .try_into()
                    .map(u64::from_le_bytes)
                    .map_err(|_| CoreError::Transport("short chase GET".into()))?;
            }
            return Ok(idx);
        }
        let result = ResultHandle::for_slot(self.next_slot % RESULT_MAILBOX_SLOTS);
        self.next_slot += 1;
        let owner = live.server_rank(self.table.owner_index(start));
        let payload = chaser_payload::encode(
            0,
            result.slot(),
            start,
            depth,
            live.first_server_rank() as u64,
            SHARD as u64,
        );
        let s = tr.begin(Name::Post, op_span, op);
        let sent = match self.handle {
            Some(handle) => live
                .bitcode_message(handle, payload)
                .and_then(|msg| live.send_ifunc(&msg, owner)),
            None => live.send_am(AM_NAME, owner, payload),
        };
        tr.end(s);
        sent?;
        claim_or_wait(live, tr, op_span, op, &result)
    }
}

impl Workload for Chase {
    fn name(&self) -> &'static str {
        match self.mode {
            ChaseMode::Ifunc => "chase_ifunc",
            ChaseMode::Get => "chase_get",
            ChaseMode::Am => "chase_am",
        }
    }

    fn window(&self) -> u32 {
        1
    }

    fn stage_kind(&self) -> &'static str {
        match self.mode {
            ChaseMode::Ifunc => "ifunc_hit",
            ChaseMode::Get => "get1k",
            ChaseMode::Am => "am",
        }
    }

    fn warm_ops(&self) -> u64 {
        match self.mode {
            ChaseMode::Get => 60,
            _ => 300,
        }
    }

    fn build(&mut self) -> Result<()> {
        self.slot.retire();
        self.handle = None;
        let mut live = threads(base_builder());
        self.table.install_cluster(&mut live)?;
        match self.mode {
            ChaseMode::Ifunc => {
                let library = build_ifunc_library(
                    &chaser_module("dapc_chaser"),
                    &platform_toolchain(&Platform::thor_xeon()),
                )?;
                self.handle = Some(live.register_ifunc(library));
            }
            ChaseMode::Am => live.deploy_am(AM_NAME, dapc_am_handler())?,
            ChaseMode::Get => {}
        }
        self.slot.live = Some(live);
        if self.mode == ChaseMode::Ifunc {
            // One chase per server ships the code, so every measured frame
            // is truncated and every server compiles exactly once.
            for server in 0..SERVERS {
                let start = (server * SHARD) as u64;
                let got = self.chase(start, 1, 0, SpanId::NONE, &mut Tracer::off())?;
                if got != self.table.chase(start, 1) {
                    return Err(CoreError::Transport(
                        "warm chase returned a wrong value".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    fn run(&mut self, stop: Stop, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let t0 = Instant::now();
        let round_span = tr.begin(Name::Round, SpanId::NONE, 0);
        while stop.more(r.attempted) {
            let op = r.attempted as u32;
            let i = self.cursor % self.starts.len();
            self.cursor += 1;
            r.attempted += 1;
            let op_span = tr.begin(Name::Op, round_span, op);
            let got = self.chase(self.starts[i], CHASE_DEPTH, op, op_span, tr);
            match got {
                Ok(value) => {
                    let s = tr.begin(Name::Verify, op_span, op);
                    let good = value == self.expected[i];
                    tr.end(s);
                    tr.end(op_span);
                    if good {
                        r.ops += 1;
                    } else {
                        r.failed += 1;
                    }
                }
                Err(_) => {
                    tr.end(op_span);
                    r.failed += 1;
                    if self.build().is_err() {
                        self.slot.retire();
                        break;
                    }
                }
            }
        }
        tr.end(round_span);
        r.timed_ns = t0.elapsed().as_nanos() as u64;
        r
    }

    fn check(&mut self, delta: &Counters, _ops: u64) -> Vec<String> {
        let name = self.name();
        let mut v = common_violations(name, delta);
        match self.mode {
            ChaseMode::Ifunc => {
                let sends = delta[C::FullSends] + delta[C::TruncatedSends];
                if sends > 0 && (delta[C::TruncatedSends] as f64) < 0.99 * sends as f64 {
                    v.push(format!(
                        "{name}: only {} of {sends} ifunc frames were truncated",
                        delta[C::TruncatedSends]
                    ));
                }
                if let Some(live) = self.slot.live.as_mut() {
                    for s in 0..SERVERS {
                        let rank = live.server_rank(s);
                        match live.stats(rank) {
                            Ok(stats) if stats.jit_compilations == 1 => {}
                            Ok(stats) => v.push(format!(
                                "{name}: server rank {rank} compiled {} times, expected once",
                                stats.jit_compilations
                            )),
                            Err(e) => v.push(format!("{name}: stats of rank {rank}: {e}")),
                        }
                    }
                }
            }
            ChaseMode::Get if delta[C::IfuncsExecuted] + delta[C::AmsExecuted] != 0 => {
                v.push(format!("{name}: the GET chase executed ifuncs or AMs"))
            }
            _ => {}
        }
        v
    }

    fn slot(&mut self) -> &mut Slot {
        &mut self.slot
    }
}

// --- cold ifuncs -------------------------------------------------------------

/// [`COLD_LIBRARIES`] distinct prebuilt `tsi_reporting_module` libraries; per
/// block a fresh cluster (untimed), then each library first-arriving at each
/// server (timed): register → `bitcode_message` → full frame → server JIT →
/// execute → result — and an untimed teardown.  One cluster per block bounds
/// the memory the registered and compiled code holds; 512 libraries a block,
/// because the teardown takes 23 ms and 256 first arrivals only 5.
pub struct IfuncCold {
    seed: u64,
    libraries: Vec<IfuncLibrary>,
    deltas: Vec<u64>,
    cursor: usize,
    violations: Vec<String>,
    slot: Slot,
}

impl IfuncCold {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6966_756e_635f_636c);
        IfuncCold {
            seed,
            libraries: Vec::new(),
            deltas: (0..4096).map(|_| rng.range(1, 8)).collect(),
            cursor: 0,
            violations: Vec::new(),
            slot: Slot::default(),
        }
    }

    fn fresh_cluster(&mut self) -> Result<()> {
        self.slot.retire();
        let mut live = threads(base_builder());
        for s in 0..SERVERS {
            // One warm GET per server: threads, channels and pools exist
            // before the timed first arrivals.
            let rank = live.server_rank(s);
            let h = live.get(rank, DATA_REGION_BASE, 8)?;
            live.wait(&h)?;
        }
        self.slot.live = Some(live);
        Ok(())
    }

    /// The timed part of one block.
    fn block(&mut self, r: &mut Round, tr: &mut Tracer, round_span: SpanId) -> Result<()> {
        let libraries = self.libraries.clone();
        let live = self
            .slot
            .live
            .as_mut()
            .ok_or_else(|| CoreError::Transport("the cluster could not be rebuilt".into()))?;
        let mut counters = [0u64; SERVERS];
        let t0 = Instant::now();
        let mut outcome = Ok(());
        'block: for (l, library) in libraries.into_iter().enumerate() {
            let handle = live.register_ifunc(library);
            for (server, counter) in counters.iter_mut().enumerate() {
                let op = r.attempted as u32;
                r.attempted += 1;
                let delta = self.deltas[self.cursor % self.deltas.len()];
                self.cursor += 1;
                let result = ResultHandle::for_slot((2 * l + server) as u64);
                let op_span = tr.begin(Name::Op, round_span, op);
                let s = tr.begin(Name::Post, op_span, op);
                let payload = reporting_tsi_payload::encode(0, result.slot(), delta, 0);
                let rank = live.server_rank(server);
                let sent = live
                    .bitcode_message(handle, payload)
                    .and_then(|msg| live.send_ifunc(&msg, rank));
                tr.end(s);
                let got = sent.and_then(|_| claim_or_wait(live, tr, op_span, op, &result));
                tr.end(op_span);
                match got {
                    Ok(value) => {
                        *counter += delta;
                        if value == *counter {
                            r.ops += 1;
                        } else {
                            r.failed += 1;
                        }
                    }
                    Err(e) => {
                        r.failed += 1;
                        outcome = Err(e);
                        break 'block;
                    }
                }
            }
        }
        r.timed_ns += t0.elapsed().as_nanos() as u64;
        outcome?;
        for (s, counter) in counters.iter().enumerate() {
            let rank = live.server_rank(s);
            let stats = live.stats(rank)?;
            if stats.jit_compilations != COLD_LIBRARIES as u64 {
                self.violations.push(format!(
                    "ifunc_cold: server rank {rank} compiled {} times in a block, expected {COLD_LIBRARIES}",
                    stats.jit_compilations
                ));
            }
            if live.read_u64(rank, TARGET_REGION_BASE)? != *counter {
                self.violations.push(format!(
                    "ifunc_cold: server rank {rank} holds a wrong counter after a block"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for IfuncCold {
    fn name(&self) -> &'static str {
        "ifunc_cold"
    }

    fn window(&self) -> u32 {
        1
    }

    fn stage_kind(&self) -> &'static str {
        "ifunc_miss"
    }

    fn warm_ops(&self) -> u64 {
        (COLD_LIBRARIES * SERVERS) as u64
    }

    fn build(&mut self) -> Result<()> {
        let toolchain = platform_toolchain(&Platform::thor_xeon());
        self.libraries = (0..COLD_LIBRARIES)
            .map(|i| {
                let name = format!("cold_{:03}_{:016x}", i, self.seed);
                build_ifunc_library(&tsi_reporting_module(&name), &toolchain)
            })
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn run(&mut self, stop: Stop, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let round_span = tr.begin(Name::Round, SpanId::NONE, 0);
        // Whole blocks only: the deadline is looked at between blocks.
        while stop.more(r.attempted) {
            let block = self
                .fresh_cluster()
                .and_then(|()| self.block(&mut r, tr, round_span));
            if block.is_err() && r.failed == 0 {
                r.attempted += 1;
                r.failed += 1;
            }
            self.slot.retire();
            if block.is_err() {
                break;
            }
        }
        tr.end(round_span);
        r
    }

    fn check(&mut self, delta: &Counters, _ops: u64) -> Vec<String> {
        let mut v = common_violations(self.name(), delta);
        v.append(&mut self.violations);
        v
    }

    fn slot(&mut self) -> &mut Slot {
        &mut self.slot
    }
}

/// The workloads of `BENCHMARK.json`, in its order.
pub const NAMES: [&str; 8] = [
    "get_small",
    "get_reliable",
    "get_lossy",
    "get_socket",
    "bulk_put_get",
    "chase_ifunc",
    "chase_get",
    "ifunc_cold",
];

pub fn make(name: &str, seed: u64, sock_dir: &std::path::Path) -> Option<Box<dyn Workload>> {
    let get = |v| Box::new(GetStream::new(v, seed, sock_dir.to_path_buf())) as Box<dyn Workload>;
    Some(match name {
        "get_small" => get(GetVariant::Small),
        "get_reliable" => get(GetVariant::Reliable),
        "get_lossy" => get(GetVariant::Lossy),
        "get_socket" => get(GetVariant::Socket),
        "bulk_put_get" => Box::new(BulkPutGet::new(seed)),
        "chase_ifunc" => Box::new(Chase::new(ChaseMode::Ifunc, seed)),
        "chase_get" => Box::new(Chase::new(ChaseMode::Get, seed)),
        "chase_am" => Box::new(Chase::new(ChaseMode::Am, seed)),
        "ifunc_cold" => Box::new(IfuncCold::new(seed)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every in-process workload builds, verifies a short pass, and passes
    /// its own mechanism checks.  (`get_socket` needs the benchmark binary
    /// as its server process; `--smoke` covers it.)
    #[test]
    fn short_passes_verify_and_pass_their_mechanism_checks() {
        let dir = std::env::temp_dir();
        for name in NAMES
            .iter()
            .filter(|n| **n != "get_socket")
            .chain(&["chase_am"])
        {
            let mut w = make(name, 3, &dir).expect("known workload");
            w.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            let before = w.counters();
            let r = w.run(Stop::Ops(w.warm_ops().min(200)), &mut Tracer::off());
            assert_eq!(r.failed, 0, "{name}");
            assert!(r.ops >= 1 && r.ops == r.attempted, "{name}: {r:?}");
            assert!(r.timed_ns > 0, "{name}");
            let delta = w.counters().since(&before);
            assert_eq!(w.check(&delta, r.ops), Vec::<String>::new(), "{name}");
            w.teardown();
        }
    }

    #[test]
    fn traced_pass_records_one_op_span_per_operation() {
        let mut w = make("chase_ifunc", 5, &std::env::temp_dir()).expect("known workload");
        w.build().expect("threaded cluster builds");
        let mut tr = Tracer::on(1 << 12);
        let r = w.run(Stop::Ops(20), &mut tr);
        w.teardown();
        assert_eq!(r.ops, 20);
        assert_eq!(tr.op_latencies_ns.len(), 20);
        assert_eq!(tr.totals[Name::Post as usize].count, 20);
        assert_eq!(tr.totals[Name::Round as usize].count, 1);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Chase::new(ChaseMode::Get, 9);
        let b = Chase::new(ChaseMode::Get, 9);
        let c = Chase::new(ChaseMode::Get, 10);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.starts, c.starts);
    }
}
