//! Per-layer metrics measured from outside, by timing calls into each
//! layer's public functions.
//!
//! *Stage pass*: a single-threaded unrolled pipeline that calls, in transport
//! order, `NodeRuntime::post_*` → `take_outgoing` → `wire::encode_op_vectored`
//! (the codec the live backends call) → `ReliableSet::send/on_data/on_ack` →
//! `wire::decode_op_vectored` → `deliver` + `poll` (lookup / JIT / execute) →
//! the reply back the same way → `ClaimTable::absorb` + `claim_*`.  Calls are
//! timed a chunk at a time, so reading the clock costs nothing per call;
//! every figure is the median over chunks of the chunk's mean ns per call.
//!
//! *Codec / JIT stages*: the live Tables I–III split, one loop per function.

use crate::alloc;
use crate::stats::{median, Metric};
use std::time::{Duration, Instant};
use tc_binfmt::{load_object, LoadOptions, MapResolver};
use tc_bitir::{decode_module, encode_module, lower_for_target, verify_module, TargetTriple};
use tc_core::cluster::reliable::ReliableSet;
use tc_core::cluster::{wire, ClaimTable, ClientId};
use tc_core::layout::{
    DATA_REGION_BASE, PAYLOAD_STAGING_BASE, RESULT_MAILBOX_SLOTS, TARGET_REGION_BASE,
};
use tc_core::{
    build_ifunc_library, IfuncHandle, IfuncLibrary, MessageFrame, NodeRuntime, RelConfig,
};
use tc_jit::{
    build_object, compile_module, module_from_image, CompileOptions, Engine, ExternalHost, Memory,
    MemoryExt, NoExternals, SparseMemory, VecMemory,
};
use tc_simnet::threaded::{Envelope, NodeCtx, ThreadCluster, ThreadedNode};
use tc_simnet::{Platform, SplitMix64};
use tc_ucx::{Bytes, OutgoingMessage, WorkerAddr};
use tc_workloads::{
    chaser_module, chaser_payload, dapc_am_handler, platform_toolchain, reporting_tsi_payload,
    tsi_module, tsi_reporting_module,
};

pub const KINDS: [&str; 5] = ["get1k", "put64k", "ifunc_hit", "ifunc_miss", "am"];

/// Every metric this module reports.
pub const NAMES: [&str; 55] = [
    "ucx.post_ns.get1k",
    "ucx.post_ns.put64k",
    "ucx.post_ns.ifunc_hit",
    "ucx.post_ns.ifunc_miss",
    "ucx.post_ns.am",
    "wire.encode_ns.get1k",
    "wire.encode_ns.put64k",
    "wire.encode_ns.ifunc_hit",
    "wire.encode_ns.ifunc_miss",
    "wire.encode_ns.am",
    "wire.decode_ns.get1k",
    "wire.decode_ns.put64k",
    "wire.decode_ns.ifunc_hit",
    "wire.decode_ns.ifunc_miss",
    "wire.decode_ns.am",
    "wire.bytes.get1k",
    "wire.bytes.put64k",
    "wire.bytes.ifunc_hit",
    "wire.bytes.ifunc_miss",
    "wire.bytes.am",
    "runtime.serve_ns.get1k",
    "runtime.serve_ns.put64k",
    "runtime.serve_ns.ifunc_hit",
    "runtime.serve_ns.ifunc_miss",
    "runtime.serve_ns.am",
    "runtime.reply_ns.get1k",
    "runtime.reply_ns.put64k",
    "runtime.reply_ns.ifunc_hit",
    "runtime.reply_ns.ifunc_miss",
    "runtime.reply_ns.am",
    "alloc.count.get1k",
    "alloc.count.put64k",
    "alloc.count.ifunc_hit",
    "alloc.count.ifunc_miss",
    "alloc.count.am",
    "reliable.seq_ack_ns",
    "completion.deposit_claim_ns",
    "ifunc.build_library_ns",
    "ifunc.message_ns",
    "frame.encode_full_ns",
    "frame.encode_truncated_ns",
    "frame.decode_view_ns",
    "frame.full_bytes",
    "frame.truncated_bytes",
    "bitir.encode_ns",
    "bitir.decode_ns",
    "bitir.lower_ns",
    "bitir.verify_ns",
    "jit.compile_ns",
    "jit.exec_hop_ns",
    "jit.exec_tsi_ns",
    "jit.exec_cycles_hop",
    "binfmt.build_ns",
    "binfmt.load_ns",
    "simnet.hop_ns",
];

/// Per op kind, the CPU work of one request/response exchange: post +
/// encode + decode + serve + reply handling + deposit-and-claim, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSums([f64; KINDS.len()]);

impl StageSums {
    pub fn of(&self, kind: &str) -> f64 {
        KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0.0, |i| self.0[i])
    }
}

const CLIENT: WorkerAddr = WorkerAddr(0);
const SERVER: WorkerAddr = WorkerAddr(1);
const TABLE_ENTRIES: u64 = 4096;
const AM_NAME: &str = "dapc_chase";
const MISS_LIBRARIES: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get1k,
    Put64k,
    IfuncHit,
    IfuncMiss,
    Am,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Get1k,
        Kind::Put64k,
        Kind::IfuncHit,
        Kind::IfuncMiss,
        Kind::Am,
    ];

    /// Chunks at full scale: 20 000 iterations, except for first arrivals,
    /// where one iteration costs a JIT compilation.
    fn chunks(self) -> usize {
        match self {
            Kind::IfuncMiss => 2048 / CHUNK,
            _ => 20_000 / CHUNK,
        }
    }
}

/// Calls per chunk: the window the live GET workloads keep in flight, so the
/// per-thread encode pool sees the occupancy it sees there.
const CHUNK: usize = 16;

/// The triple of `Platform::thor_xeon()`'s client and servers.
const XEON: TargetTriple = TargetTriple::THOR_XEON;

fn table_image(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..TABLE_ENTRIES)
        .flat_map(|_| rng.below(TABLE_ENTRIES).to_le_bytes())
        .collect()
}

/// Nanoseconds the chunk spent in each stage, plus what it sent and
/// allocated.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    post: f64,
    encode: f64,
    decode: f64,
    bytes: f64,
    serve: f64,
    reply: f64,
    seq_ack: f64,
    claim: f64,
    allocs: f64,
}

/// `(metric prefix, the chunk's figure for it, unit)`.
type Stage = (&'static str, fn(&Sample) -> f64, &'static str);

struct Pipeline {
    client: NodeRuntime,
    server: NodeRuntime,
    client_rel: ReliableSet<(Bytes, Bytes)>,
    server_rel: ReliableSet<(Bytes, Bytes)>,
    claims: ClaimTable,
    epoch: Instant,
    table: Vec<u8>,
    bulk: Bytes,
    next_slot: u64,
    // Scratch reused across chunks, so the pass's own vectors stay out of
    // the allocation counts.
    wires: Vec<(Bytes, Bytes)>,
    decoded: Vec<OutgoingMessage>,
    keys: Vec<u64>,
}

impl Pipeline {
    fn new(seed: u64) -> Pipeline {
        let mut p = Pipeline {
            client: NodeRuntime::new(CLIENT, 2, XEON),
            server: NodeRuntime::new(SERVER, 2, XEON),
            client_rel: ReliableSet::new(RelConfig::threads_default()),
            server_rel: ReliableSet::new(RelConfig::threads_default()),
            claims: ClaimTable::default(),
            epoch: Instant::now(),
            table: table_image(seed),
            bulk: Bytes::from(vec![0xA5u8; 64 << 10]),
            next_slot: 0,
            wires: Vec::with_capacity(256),
            decoded: Vec::with_capacity(256),
            keys: Vec::with_capacity(256),
        };
        p.reset_runtimes();
        p
    }

    /// Fresh client and server: empty sender cache, cold JIT.  The server
    /// owns the whole pointer table, so a depth-1 chase is one local lookup
    /// and a result return.
    fn reset_runtimes(&mut self) {
        self.client = NodeRuntime::new(CLIENT, 2, XEON);
        self.server = NodeRuntime::new(SERVER, 2, XEON);
        self.server
            .memory
            .write(DATA_REGION_BASE, &self.table)
            .expect("sparse memory accepts any write");
        for rt in [&mut self.client, &mut self.server] {
            rt.deploy_am_handler(AM_NAME, dapc_am_handler());
        }
    }

    fn chase_payload(&mut self, i: usize) -> Vec<u8> {
        let slot = self.next_slot % RESULT_MAILBOX_SLOTS;
        self.next_slot += 1;
        self.keys.push(slot);
        chaser_payload::encode(0, slot, i as u64 % TABLE_ENTRIES, 1, 1, TABLE_ENTRIES)
    }

    /// Encode, (optionally) sequence and acknowledge, and decode everything
    /// `from` has posted; the decoded messages land in `self.decoded`.
    fn carry(&mut self, from_client: bool, reliable: bool, s: &mut Sample) -> Result<(), String> {
        let from = if from_client {
            &mut self.client
        } else {
            &mut self.server
        };
        let t = Instant::now();
        let msgs = from.take_outgoing();
        let took = t.elapsed().as_nanos() as f64;
        if from_client {
            s.post += took;
        } else {
            s.serve += took;
        }

        let t = Instant::now();
        self.wires.clear();
        for m in &msgs {
            self.wires.push(wire::encode_op_vectored(m));
        }
        s.encode += t.elapsed().as_nanos() as f64;
        s.bytes += self
            .wires
            .iter()
            .map(|(h, p)| h.len() + p.len())
            .sum::<usize>() as f64;
        drop(msgs);

        if reliable {
            let (tx, rx, tx_peer, rx_peer) = if from_client {
                (
                    &mut self.client_rel,
                    &mut self.server_rel,
                    SERVER.0,
                    CLIENT.0,
                )
            } else {
                (
                    &mut self.server_rel,
                    &mut self.client_rel,
                    CLIENT.0,
                    SERVER.0,
                )
            };
            let now = self.epoch.elapsed().as_nanos() as u64;
            let t = Instant::now();
            for (head, payload) in &self.wires {
                let (seq, ack) = tx.send(tx_peer, (head.clone(), payload.clone()), now);
                let framed = wire::encode_rel_head(seq, ack, head);
                let (seq, ack, head) = wire::decode_rel_head(&framed).map_err(|e| e.to_string())?;
                let outcome = rx.on_data(rx_peer, seq, ack, (head, payload.clone()), now);
                if outcome.deliver.len() != 1 {
                    return Err("the reliable layer held back an in-order frame".into());
                }
                tx.on_ack(tx_peer, outcome.ack, now);
            }
            s.seq_ack += t.elapsed().as_nanos() as f64;
        }

        let t = Instant::now();
        self.decoded.clear();
        for (head, payload) in &self.wires {
            self.decoded
                .push(wire::decode_op_vectored(head, payload).map_err(|e| e.to_string())?);
        }
        s.decode += t.elapsed().as_nanos() as f64;
        self.wires.clear();
        Ok(())
    }

    /// One chunk of `n` operations of `kind` through every stage.
    fn chunk(
        &mut self,
        kind: Kind,
        n: usize,
        hit: IfuncHandle,
        miss: &mut Vec<IfuncLibrary>,
    ) -> Result<Sample, String> {
        let mut s = Sample::default();
        self.keys.clear();

        let t = Instant::now();
        for i in 0..n {
            match kind {
                Kind::Get1k => {
                    let addr = DATA_REGION_BASE + (i as u64 % 24) * 1024;
                    let request = self.client.post_get(SERVER, addr, 1024);
                    self.keys.push(request.0);
                }
                Kind::Put64k => {
                    let addr = DATA_REGION_BASE + (1 << 20) + (i as u64 % 8) * (64 << 10);
                    let request = self
                        .client
                        .post_put_confirmed(SERVER, addr, self.bulk.clone());
                    self.keys.push(request.0);
                }
                Kind::IfuncHit => {
                    let payload = self.chase_payload(i);
                    let msg = self
                        .client
                        .create_bitcode_message(hit, payload)
                        .map_err(|e| e.to_string())?;
                    self.client.send_ifunc(&msg, SERVER);
                }
                Kind::IfuncMiss => {
                    // register → message → full frame, as `ifunc_cold` does.
                    let library = miss.pop().ok_or("ran out of cold libraries")?;
                    let handle = self.client.register_library(library);
                    let slot = miss.len() as u64;
                    self.keys.push(slot);
                    let payload = reporting_tsi_payload::encode(0, slot, 1, 0);
                    let msg = self
                        .client
                        .create_bitcode_message(handle, payload)
                        .map_err(|e| e.to_string())?;
                    self.client.send_ifunc(&msg, SERVER);
                }
                Kind::Am => {
                    let payload = self.chase_payload(i);
                    self.client
                        .send_am(AM_NAME, SERVER, payload)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        s.post += t.elapsed().as_nanos() as f64;

        let reliable = kind == Kind::Get1k;
        self.carry(true, reliable, &mut s)?;

        let t = Instant::now();
        for m in self.decoded.drain(..) {
            self.server.deliver(m);
        }
        let outcomes = self.server.poll(n);
        s.serve += t.elapsed().as_nanos() as f64;
        if outcomes.len() != n {
            return Err(format!(
                "the server handled {} of {n} messages",
                outcomes.len()
            ));
        }
        if let Some(Err(e)) = outcomes.into_iter().find(|o| o.is_err()) {
            return Err(format!("the server failed a message: {e}"));
        }

        self.carry(false, reliable, &mut s)?;

        let t = Instant::now();
        for m in self.decoded.drain(..) {
            self.client.deliver(m);
        }
        let handled = self.client.poll(n).len();
        s.reply += t.elapsed().as_nanos() as f64;
        if handled != n {
            return Err(format!("the client handled {handled} of {n} replies"));
        }

        let t = Instant::now();
        let completions = self.client.take_completions();
        self.claims.absorb(ClientId::PRIMARY, completions);
        let mut claimed = 0;
        for &key in &self.keys {
            let hit = match kind {
                Kind::Get1k => self
                    .claims
                    .claim_get(ClientId::PRIMARY, tc_ucx::RequestId(key))
                    .is_some(),
                Kind::Put64k => self
                    .claims
                    .claim_put(ClientId::PRIMARY, tc_ucx::RequestId(key))
                    .is_some(),
                _ => self.claims.claim_result(ClientId::PRIMARY, key).is_some(),
            };
            claimed += usize::from(hit);
        }
        s.claim += t.elapsed().as_nanos() as f64;
        if claimed != n {
            return Err(format!("{claimed} of {n} completions could be claimed"));
        }
        Ok(s)
    }
}

/// Median over `chunks` chunks of the mean ns per call of `f`, `per_chunk`
/// calls to a chunk.
fn time_calls(chunks: usize, per_chunk: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..chunks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_chunk {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_chunk as f64
        })
        .collect();
    median(&per_call)
}

fn scaled(full: usize, scale: f64) -> usize {
    ((full as f64 * scale) as usize).max(5)
}

fn stage_pass(scale: f64, seed: u64, out: &mut Vec<Metric>) -> Result<StageSums, String> {
    let toolchain = platform_toolchain(&Platform::thor_xeon());
    let chaser = build_ifunc_library(&chaser_module("stage_chaser"), &toolchain)
        .map_err(|e| e.to_string())?;
    let cold: Vec<IfuncLibrary> = (0..MISS_LIBRARIES)
        .map(|i| {
            build_ifunc_library(
                &tsi_reporting_module(&format!("stage_cold_{i:03}")),
                &toolchain,
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let mut p = Pipeline::new(seed);
    let hit = p.client.register_library(chaser);
    let mut sums = StageSums::default();
    let mut claim_ns = 0.0;
    let mut miss: Vec<IfuncLibrary> = Vec::new();
    for (k, kind) in Kind::ALL.into_iter().enumerate() {
        let n = CHUNK;
        let chunks = scaled(kind.chunks(), scale);
        let mut samples = Vec::with_capacity(chunks);
        // One unrecorded chunk first: pools fill, code is shipped and cached.
        for c in 0..=chunks {
            if kind == Kind::IfuncMiss && miss.len() < n {
                // Every library arrives once at a server that has never
                // seen it: a cold server per 128 libraries.
                p.reset_runtimes();
                miss = cold.clone();
            }
            let (sample, allocs) = alloc::count(|| p.chunk(kind, n, hit, &mut miss));
            let mut sample = sample?;
            sample.allocs = allocs as f64;
            if c > 0 {
                samples.push(sample);
            }
        }
        let per_call = |f: fn(&Sample) -> f64| {
            median(&samples.iter().map(|s| f(s) / n as f64).collect::<Vec<_>>())
        };
        let name = KINDS[k];
        let stages: [Stage; 7] = [
            ("ucx.post_ns", |s| s.post, "ns"),
            ("wire.encode_ns", |s| s.encode, "ns"),
            ("wire.decode_ns", |s| s.decode, "ns"),
            ("wire.bytes", |s| s.bytes, "B"),
            ("runtime.serve_ns", |s| s.serve, "ns"),
            ("runtime.reply_ns", |s| s.reply, "ns"),
            ("alloc.count", |s| s.allocs, "count"),
        ];
        for (stage, f, unit) in stages {
            let value = per_call(f);
            if unit == "ns" {
                sums.0[k] += value;
            }
            out.push(Metric::new(format!("{stage}.{name}"), value, unit));
        }
        if kind == Kind::Get1k {
            // Both directions are sequenced and acknowledged: per message.
            out.push(Metric::new(
                "reliable.seq_ack_ns",
                per_call(|s| s.seq_ack) / 2.0,
                "ns",
            ));
            claim_ns = per_call(|s| s.claim);
            out.push(Metric::new("completion.deposit_claim_ns", claim_ns, "ns"));
        }
        sums.0[k] += claim_ns;
    }
    Ok(sums)
}

/// Answers the chaser's externals as server rank 1 would, and swallows its
/// sends.
struct HopHost;

impl ExternalHost for HopHost {
    fn call_external(
        &mut self,
        symbol: &str,
        _args: &[u64],
        _mem: &mut dyn Memory,
    ) -> tc_jit::Result<u64> {
        Ok(u64::from(symbol == "tc_node_id"))
    }
}

fn codec_stages(scale: f64, seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let toolchain = platform_toolchain(&Platform::thor_xeon());
    let module = chaser_module("codec_chaser");
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    push(
        "ifunc.build_library_ns",
        time_calls(scaled(40, scale), 5, || {
            std::hint::black_box(build_ifunc_library(&module, &toolchain).is_ok());
        }),
        "ns",
    );
    let library = build_ifunc_library(&module, &toolchain).map_err(|e| err(&e))?;
    let mut client = NodeRuntime::new(CLIENT, 2, XEON);
    let handle = client.register_library(library);
    let payload = chaser_payload::encode(0, 0, 0, 1, 1, TABLE_ENTRIES);
    push(
        "ifunc.message_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(
                client
                    .create_bitcode_message(handle, payload.clone())
                    .is_ok(),
            );
        }),
        "ns",
    );
    let msg = client
        .create_bitcode_message(handle, payload.clone())
        .map_err(|e| err(&e))?;
    push(
        "frame.encode_full_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(msg.frame.encode_full());
        }),
        "ns",
    );
    push(
        "frame.encode_truncated_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(msg.frame.encode_truncated());
        }),
        "ns",
    );
    // The cached path decodes truncated frames; that is the one timed.
    let truncated = msg.frame.encode_truncated();
    push(
        "frame.decode_view_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(MessageFrame::decode_view(&truncated).is_ok());
        }),
        "ns",
    );
    push("frame.full_bytes", msg.frame.full_size() as f64, "B");
    push(
        "frame.truncated_bytes",
        msg.frame.truncated_size() as f64,
        "B",
    );

    push(
        "bitir.lower_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(lower_for_target(&module, XEON).is_ok());
        }),
        "ns",
    );
    let lowered = lower_for_target(&module, XEON).map_err(|e| err(&e))?;
    push(
        "bitir.encode_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(encode_module(&lowered));
        }),
        "ns",
    );
    let bitcode = encode_module(&lowered);
    push(
        "bitir.decode_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(decode_module(&bitcode).is_ok());
        }),
        "ns",
    );
    push(
        "bitir.verify_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(verify_module(&lowered).is_ok());
        }),
        "ns",
    );
    push(
        "jit.compile_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(compile_module(&lowered, CompileOptions::default()).is_ok());
        }),
        "ns",
    );

    // One chaser hop on the bare engine: a local lookup and a result return.
    let compiled = compile_module(&lowered, CompileOptions::default()).map_err(|e| err(&e))?;
    let mut mem = SparseMemory::new();
    mem.write(DATA_REGION_BASE, &table_image(seed))
        .map_err(|e| err(&e))?;
    mem.write(PAYLOAD_STAGING_BASE, &payload)
        .map_err(|e| err(&e))?;
    let engine = Engine::new();
    let args = [
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ];
    let hop = engine
        .run(&compiled.module, "main", &args, &[], &mut mem, &mut HopHost)
        .map_err(|e| err(&e))?;
    push(
        "jit.exec_hop_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(
                engine
                    .run(&compiled.module, "main", &args, &[], &mut mem, &mut HopHost)
                    .is_ok(),
            );
        }),
        "ns",
    );
    push("jit.exec_cycles_hop", hop.cycles as f64, "cycles");

    let tsi = tc_jit::lower_and_compile(&tsi_module(), XEON, CompileOptions::default())
        .map_err(|e| err(&e))?;
    let mut flat = VecMemory::new(0, 4096);
    flat.write_u64(0, 3).map_err(|e| err(&e))?;
    push(
        "jit.exec_tsi_ns",
        time_calls(scaled(200, scale), 100, || {
            std::hint::black_box(
                engine
                    .run(
                        &tsi.module,
                        "main",
                        &[0, 1, 2048],
                        &[],
                        &mut flat,
                        &mut NoExternals,
                    )
                    .is_ok(),
            );
        }),
        "ns",
    );

    let tsi_ir = tsi_module();
    push(
        "binfmt.build_ns",
        time_calls(scaled(200, scale), 20, || {
            std::hint::black_box(
                build_object(&tsi_ir, XEON, CompileOptions::default()).map(|o| o.encode().len()),
            )
            .ok();
        }),
        "ns",
    );
    let object = build_object(&tsi_ir, XEON, CompileOptions::default()).map_err(|e| err(&e))?;
    let triple = XEON.name();
    push(
        "binfmt.load_ns",
        time_calls(scaled(200, scale), 20, || {
            let image = load_object(
                &object,
                &triple,
                &MapResolver::new(),
                LoadOptions::default(),
            );
            std::hint::black_box(image.map(|i| module_from_image(&i).is_ok())).ok();
        }),
        "ns",
    );
    Ok(())
}

/// Echoes every message back to the external port.
struct Echo;

impl ThreadedNode for Echo {
    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
        // A lost echo surfaces as the pinger's timeout.
        let _ = ctx.send_external(msg.tag, msg.data);
    }
}

/// One hop over the threaded fabric: half the round trip of a 64-byte echo.
fn simnet_hop_ns(scale: f64) -> Result<f64, String> {
    let cluster = ThreadCluster::start(1, |_| Echo);
    let data = Bytes::from(vec![7u8; 64]);
    let pings = scaled(4000, scale);
    let mut halves = Vec::with_capacity(pings);
    // The first echo also starts the node thread's pools; it is not kept.
    for i in 0..=pings {
        let t = Instant::now();
        let sent = cluster.send(0, 1, data.clone()).is_delivered();
        if !sent || cluster.recv_external(Duration::from_secs(5)).is_none() {
            cluster.shutdown();
            return Err("the echo node did not answer".into());
        }
        if i > 0 {
            halves.push(t.elapsed().as_nanos() as f64 / 2.0);
        }
    }
    cluster.shutdown();
    Ok(median(&halves))
}

/// Run every stage at `scale` of the full iteration counts.  A stage that
/// fails reports nothing, which the output-schema check then flags.
pub fn run(scale: f64, seed: u64) -> (Vec<Metric>, StageSums) {
    let mut out = Vec::with_capacity(NAMES.len());
    let sums = stage_pass(scale, seed, &mut out).unwrap_or_else(|e| {
        eprintln!("tc-benchmark: stage pass: {e}");
        StageSums::default()
    });
    if let Err(e) = codec_stages(scale, seed, &mut out) {
        eprintln!("tc-benchmark: codec stages: {e}");
    }
    match simnet_hop_ns(scale) {
        Ok(ns) => out.push(Metric::new("simnet.hop_ns", ns, "ns")),
        Err(e) => eprintln!("tc-benchmark: simnet hop: {e}"),
    }
    (out, sums)
}
