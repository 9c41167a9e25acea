//! Chaos parity: the `tests/cluster_parity.rs` TSI + X-RDMA scenario, run
//! under a seeded `FaultPlan` that drops, duplicates and reorders envelopes
//! and opens (then heals) a network partition mid-run — on every backend.
//!
//! The reliable-delivery layer must make the run indistinguishable from a
//! fault-free one at the functional level: identical counters, execution
//! counts and result values on the simulated, threaded and socket transports,
//! with `TransportMetrics` proving the faults actually fired (retransmits,
//! dedup drops, injected-fault counts all nonzero).

mod common;

use common::OrDump;
use std::sync::Arc;
use tc_bitir::{BinOp, Module, ModuleBuilder, ScalarType};
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{
    build_ifunc_library, Backend, Cluster, ClusterBuilder, FaultPlan, NativeAmHandler, Transport,
};
use tc_workloads::{platform_toolchain, tsi_module};

const SERVERS: usize = 4;
const SENDS_PER_SERVER: u64 = 5;

/// The acceptance-criteria plan: ≥1% drop, reorder, duplication, and one
/// partition that cuts server 2 off mid-run and heals after a dozen
/// traversals of each crossing link (retransmissions burn through the
/// window, so the heal is reached deterministically).
fn chaos_plan() -> FaultPlan {
    FaultPlan::seeded(0x3C4A05)
        .drop_rate(0.02)
        .duplicate_rate(0.02)
        .reorder_rate(0.05)
        .partition(&[2], 4, 12)
}

/// What a scenario observed on one backend; compared across backends.
#[derive(Debug, PartialEq, Eq)]
struct ScenarioOutcome {
    counters: Vec<u64>,
    ifuncs_executed: Vec<u64>,
    jit_compilations: Vec<u64>,
    am_counter: u64,
    doubled: u64,
}

/// An ifunc that doubles a payload value and returns it through the X-RDMA
/// result mailbox.  Payload: `[client u64][slot u64][value u64]`.
fn doubler_module() -> Module {
    let mut mb = ModuleBuilder::new("chaos_doubler");
    {
        let mut f = mb.entry_function();
        let payload = f.param(0);
        let client = f.load(ScalarType::U64, payload, 0);
        let slot = f.load(ScalarType::U64, payload, 8);
        let value = f.load(ScalarType::U64, payload, 16);
        let two = f.const_u64(2);
        let doubled = f.bin(BinOp::Mul, ScalarType::U64, value, two);
        f.call_ext("tc_return_result", vec![client, slot, doubled], true);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    mb.build()
}

fn tsi_am_handler() -> NativeAmHandler {
    Arc::new(|ctx, payload| {
        use tc_jit::MemoryExt;
        let delta = u64::from(payload.first().copied().unwrap_or(0));
        let old = ctx.memory.read_u64(TARGET_REGION_BASE).unwrap_or(0);
        let _ = ctx.memory.write_u64(TARGET_REGION_BASE, old + delta);
        24
    })
}

/// The shared scenario — the same shape as `cluster_parity.rs`, oblivious
/// to both the transport underneath and the faults being injected.
fn run_scenario<T: Transport>(cluster: &mut Cluster<T>) -> ScenarioOutcome {
    let platform = tc_simnet::Platform::thor_bf2();

    // 1. TSI over ifuncs: first send ships code and JITs, the rest ride the
    //    sender cache as truncated frames.  Under chaos, the reliability
    //    layer must keep them exactly-once and in order per link (a
    //    truncated frame overtaking its code-carrying predecessor would
    //    error out).
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let tsi_handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(tsi_handle, vec![3]).unwrap();
    for _ in 0..SENDS_PER_SERVER {
        for server in 1..=SERVERS {
            cluster.send_ifunc(&msg, server).unwrap();
        }
    }

    // 2. The AM baseline next to it on server 1.
    cluster.deploy_am("chaos_tsi_am", tsi_am_handler()).unwrap();
    cluster.send_am("chaos_tsi_am", 1, vec![7]).unwrap();

    // 3. X-RDMA through the partitioned server: ship the doubler to server
    //    2 — the node the partition cuts off — and wait on the typed
    //    handle.  This only completes after the partition heals.
    let doubler = build_ifunc_library(&doubler_module(), &platform_toolchain(&platform)).unwrap();
    let doubler_handle = cluster.register_ifunc(doubler);
    let slot = cluster.result_slot();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&slot.slot().to_le_bytes());
    payload.extend_from_slice(&21u64.to_le_bytes());
    let dmsg = cluster.bitcode_message(doubler_handle, payload).unwrap();
    cluster.send_ifunc(&dmsg, 2).unwrap();
    let doubled = cluster.wait(&slot).or_dump(cluster);

    // 4. Let retransmissions drain, then observe through the transport
    //    (the control plane is never faulted, so reads are exact).
    cluster.run_until_idle(10_000_000).or_dump(cluster);
    let mut outcome = ScenarioOutcome {
        counters: Vec::new(),
        ifuncs_executed: Vec::new(),
        jit_compilations: Vec::new(),
        am_counter: 0,
        doubled,
    };
    for server in 1..=SERVERS {
        let stats = cluster.stats(server).unwrap();
        outcome.ifuncs_executed.push(stats.ifuncs_executed);
        outcome.jit_compilations.push(stats.jit_compilations);
        outcome
            .counters
            .push(cluster.read_u64(server, TARGET_REGION_BASE).unwrap());
    }
    outcome.am_counter = outcome.counters[0];
    outcome
}

fn assert_analytic_expectation(outcome: &ScenarioOutcome) {
    assert_eq!(outcome.doubled, 42);
    for (rank0, &counter) in outcome.counters.iter().enumerate() {
        let expected = 3 * SENDS_PER_SERVER + if rank0 == 0 { 7 } else { 0 };
        assert_eq!(
            counter,
            expected,
            "server {} counter: exactly-once delivery must make the chaos \
             run equal the fault-free run",
            rank0 + 1
        );
    }
    for (rank0, &n) in outcome.ifuncs_executed.iter().enumerate() {
        let expected = SENDS_PER_SERVER + if rank0 == 1 { 1 } else { 0 }; // +doubler
        assert_eq!(n, expected, "server {} executions", rank0 + 1);
    }
    for (rank0, &n) in outcome.jit_compilations.iter().enumerate() {
        let expected = 1 + if rank0 == 1 { 1 } else { 0 }; // tsi (+doubler on 2)
        assert_eq!(
            n,
            expected,
            "server {} JITs (dedup must prevent re-JIT)",
            rank0 + 1
        );
    }
}

#[test]
fn chaos_scenario_identical_results_on_every_backend() {
    let builder = || {
        ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(SERVERS)
            .fault_plan(chaos_plan())
            .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
    };

    // Functional parity: every observable agrees with the simulator's
    // despite each backend realising the fault plan in its own time domain —
    // the simulator at its event engine's sender, the wall-clock backends at
    // the gate of the host that emits the frame (or, for a socket server
    // process, at the driver's ingress gate).
    let mut sim_outcome = None;
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = builder().build(backend);
        let outcome = run_scenario(&mut cluster);
        match &sim_outcome {
            None => {
                assert_analytic_expectation(&outcome);
                sim_outcome = Some(outcome);
            }
            Some(sim) => assert_eq!(&outcome, sim, "{backend}"),
        }
        let metrics = cluster.metrics();
        let chaos = cluster.snapshot().chaos.expect("chaos installed");
        cluster.shutdown();

        // The faults really fired, and the reliability layer really worked.
        assert!(
            chaos.total_injected() > 0,
            "{backend}: the plan must inject faults"
        );
        assert!(
            chaos.partition_drops > 0,
            "{backend}: the partition must actually cut traffic"
        );
        assert!(
            metrics.retransmits > 0,
            "{backend}: recovery must come from retransmission"
        );
        assert_eq!(
            metrics.faults_injected,
            chaos.total_injected(),
            "{backend}: transport metrics must surface the chaos counters"
        );
    }
}

#[test]
fn empty_fault_plan_keeps_reliability_invisible() {
    // An empty plan still routes the data plane through the reliability
    // layer; nothing should be injected and nothing retransmitted.
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_bf2())
        .servers(2)
        .fault_plan(FaultPlan::seeded(1))
        .build_sim();
    let platform = tc_simnet::Platform::thor_bf2();
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(handle, vec![2]).unwrap();
    for server in 1..=2 {
        cluster.send_ifunc(&msg, server).unwrap();
        cluster.send_ifunc(&msg, server).unwrap();
    }
    cluster.run_until_idle(1_000_000).or_dump(&cluster);
    for server in 1..=2 {
        assert_eq!(cluster.read_u64(server, TARGET_REGION_BASE).unwrap(), 4);
    }
    let m = cluster.metrics();
    assert_eq!(m.retransmits, 0);
    assert_eq!(m.dup_drops, 0);
    assert_eq!(m.faults_injected, 0);
    assert!(cluster.snapshot().chaos.unwrap().decisions > 0);
}

/// The ack rule on a live backend with no fault firing: acks ride the data
/// frames going the other way, and what is left is one pure ack per peer per
/// worker batch — so a GET costs about two fabric messages, not four, and
/// fewer, later acks never cause a spurious retransmit.
#[test]
fn zero_rate_plan_on_threads_piggybacks_its_acks() {
    const OPS: u64 = 10_000;
    const WINDOW: u64 = 16;
    // An RTO far above any scheduling stall of a loaded test host: an ack
    // that is merely late must not retransmit, one that is never sent would.
    let patient = tc_core::RelConfig {
        rto: 250_000_000,
        rto_max: 1_000_000_000,
        adaptive: true,
    };
    let mut cluster = ClusterBuilder::new()
        .servers(1)
        .fault_plan(FaultPlan::seeded(7))
        .rel_config(patient)
        .build_threaded();
    cluster.write_u64(1, DATA_REGION_BASE, 0xFEED).unwrap();
    let before = cluster.metrics().messages_delivered;
    for _ in 0..OPS / WINDOW {
        let handles: Vec<_> = (0..WINDOW)
            .map(|_| cluster.post_get(1, DATA_REGION_BASE, 8))
            .collect();
        cluster.flush().unwrap();
        for h in &handles {
            let data = cluster.wait(h).or_dump(&cluster);
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xFEED);
        }
    }
    cluster.run_until_idle(1_000).or_dump(&cluster);
    let m = cluster.metrics();
    assert_eq!(m.retransmits, 0, "no fault fired, nothing may be re-sent");
    assert_eq!(m.faults_injected, 0);
    let client = cluster.transport().node_reliability(0).unwrap();
    let server = cluster.transport().node_reliability(1).unwrap();
    assert!(
        client.acks_sent <= OPS / 4,
        "client sent {} pure acks for {OPS} GETs",
        client.acks_sent
    );
    assert_eq!(server.acks_sent, 0, "every server ack rides a GET reply");
    let msgs = m.messages_delivered - before;
    assert!(
        msgs * 2 <= OPS * 5,
        "{msgs} fabric messages for {OPS} GETs (more than 2.5 per op)"
    );
    cluster.shutdown();
}

#[test]
fn heavy_drop_rate_still_exactly_once_on_sim() {
    // 20% drop + duplication + reorder on the deterministic backend: a
    // stress level the retransmission timer must grind through.
    let plan = FaultPlan::seeded(99)
        .drop_rate(0.20)
        .duplicate_rate(0.10)
        .reorder_rate(0.10);
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_bf2())
        .servers(2)
        .fault_plan(plan)
        .build_sim();
    let platform = tc_simnet::Platform::thor_bf2();
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(handle, vec![1]).unwrap();
    for _ in 0..20 {
        cluster.send_ifunc(&msg, 1).unwrap();
        cluster.send_ifunc(&msg, 2).unwrap();
    }
    cluster.run_until_idle(10_000_000).or_dump(&cluster);
    for server in 1..=2 {
        assert_eq!(
            cluster.read_u64(server, TARGET_REGION_BASE).unwrap(),
            20,
            "server {server}: 20 increments exactly"
        );
        assert_eq!(cluster.stats(server).unwrap().ifuncs_executed, 20);
    }
    let m = cluster.metrics();
    assert!(m.retransmits > 0);
    assert!(m.dup_drops > 0);
    assert!(m.faults_injected > 0);
}

/// Loss recovery costs a round trip, not a timeout: 2 000 windowed GETs
/// under 1 % drops with an RTO no run can afford to wait for.  The receiver
/// names the gap behind every loss that has traffic behind it and the sender
/// repairs it at once, on every backend by the same rule; the timer is left
/// with the losses no gap can signal (the last frame of a window, a repair).
#[test]
fn a_lost_frame_is_repaired_on_the_gap_signal_not_the_timer() {
    const OPS: usize = 2_000;
    const WINDOW: usize = 16;
    const LEN: usize = 1024;
    let patient = tc_core::RelConfig {
        rto: 50_000_000,
        rto_max: 400_000_000,
        adaptive: true,
    };
    let image: Vec<u8> = (0..WINDOW * LEN).map(|i| ((i * 31) >> 3) as u8).collect();
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(1)
            .fault_plan(FaultPlan::seeded(0xFA57).drop_rate(0.01))
            .rel_config(patient)
            .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
            .build(backend);
        cluster.write_memory(1, DATA_REGION_BASE, &image).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..OPS / WINDOW {
            let handles: Vec<_> = (0..WINDOW)
                .map(|i| cluster.post_get(1, DATA_REGION_BASE + (i * LEN) as u64, LEN as u64))
                .collect();
            cluster.flush().unwrap();
            for (i, h) in handles.iter().enumerate() {
                let data = cluster.wait(h).or_dump(&cluster);
                assert_eq!(data, image[i * LEN..][..LEN], "{backend}: GET {i}");
            }
        }
        let (elapsed, virtual_ns) = (start.elapsed(), cluster.snapshot().now_nanos);
        cluster.run_until_idle(10_000_000).or_dump(&cluster);
        let m = cluster.metrics();
        assert!(
            m.faults_injected > 0,
            "{backend}: the plan must drop frames"
        );
        assert!(
            m.fast_retransmits > 0 && m.retransmits >= m.fast_retransmits,
            "{backend}: {m:?}"
        );
        assert!(
            m.retransmits <= 2 * m.faults_injected,
            "{backend}: {} frames re-sent for {} faults",
            m.retransmits,
            m.faults_injected
        );
        if backend == Backend::Simnet {
            // Deterministic: a change to the rule shows up here as a diff.
            assert_eq!(
                (
                    virtual_ns,
                    m.faults_injected,
                    m.retransmits,
                    m.fast_retransmits
                ),
                (52_639_632, 59, 34, 33)
            );
        } else {
            // One timer round per fault is what recovery cost before.
            let timer_rounds =
                std::time::Duration::from_nanos(patient.rto) * m.faults_injected as u32;
            assert!(
                elapsed < timer_rounds / 2,
                "{backend}: {elapsed:?} for {} faults",
                m.faults_injected
            );
        }
        cluster.shutdown();
    }
}

#[test]
fn misaddressed_sends_under_chaos_do_not_wedge_either_side() {
    // Reliability must never adopt a message the fabric can only drop
    // (unknown rank): it would retransmit forever and idleness detection
    // would wedge.  Exercise both origins — a client send to a bogus rank
    // (driver path) and an ifunc that forwards itself to a bogus rank
    // (server path) — on the threaded backend under an active plan.
    let mut mb = ModuleBuilder::new("bad_forwarder");
    {
        let mut f = mb.entry_function();
        let payload = f.param(0);
        let len = f.param(1);
        let bogus = f.const_u64(99);
        f.call_ext("tc_forward_self", vec![bogus, payload, len], true);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    let platform = tc_simnet::Platform::thor_bf2();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(2)
        .fault_plan(FaultPlan::seeded(11).drop_rate(0.05))
        .build_threaded();
    let lib = build_ifunc_library(&mb.build(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(lib);
    let msg = cluster.bitcode_message(handle, vec![1]).unwrap();
    cluster.send_ifunc(&msg, 1).unwrap(); // server 1 forwards to rank 99
    cluster.send_ifunc(&msg, 99).unwrap(); // client sends to rank 99
    let start = std::time::Instant::now();
    cluster.run_until_idle(100_000).or_dump(&cluster);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "misaddressed reliable sends must not retransmit forever"
    );
    assert!(
        cluster.metrics().messages_dropped >= 2,
        "both bogus sends must be counted as fabric drops"
    );
    assert_eq!(cluster.stats(1).unwrap().ifuncs_executed, 1);
    cluster.shutdown();
}

/// Chaos × multi-client: two driver runtimes inject concurrent gather +
/// pointer-chase streams under 2% drop + duplication + reorder + a mid-run
/// partition that heals.  Exactly-once, in-order delivery must hold *per
/// (client, server) link*: the per-link `ReliableSet` sequence spaces of the
/// two client ranks are independent, so neither client's dedup can swallow
/// the other's frames — byte-exact artifacts on every backend are the
/// functional proof, the reliability counters of both client ranks the
/// mechanical one.
#[test]
fn two_client_streams_survive_chaos_exactly_once() {
    let plan = || {
        FaultPlan::seeded(0x2C11E)
            .drop_rate(0.02)
            .duplicate_rate(0.02)
            .reorder_rate(0.05)
            // Ranks: clients 0..2, servers 2..4 — cut the first server off
            // mid-run and heal after a dozen traversals per crossing link.
            .partition(&[2], 4, 12)
    };
    let table = tc_workloads::PointerTable::generate(2, 16, 0xC0FFEE);
    let expected: Vec<u8> = (0..2).flat_map(|s| table.shard_image(s)).collect();
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .clients(2)
            .servers(2)
            .fault_plan(plan())
            .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
            .build(backend);
        table.install_cluster(&mut cluster).unwrap();
        let report = tc_workloads::run_multi_client_streams(
            &mut cluster,
            &tc_simnet::Platform::thor_bf2(),
            &table,
            4,
            10,
            tc_workloads::Window::new(4),
            0x5EED,
        )
        .unwrap();
        for c in 0..2 {
            assert_eq!(
                report.gathered[c], expected,
                "{backend}: client {c} gather must be exactly-once despite the chaos"
            );
            let starts = tc_workloads::chase_starts(&table, tc_core::ClientId(c), 4, 0x5EED);
            for (i, &start) in starts.iter().enumerate() {
                assert_eq!(
                    report.chased[c][i],
                    table.chase(start, 10),
                    "{backend}: client {c} chase {i}"
                );
            }
        }
        let metrics = cluster.metrics();
        assert!(metrics.retransmits > 0, "{backend}: recovery retransmitted");
        assert!(metrics.faults_injected > 0, "{backend}: faults fired");
        let chaos = cluster.snapshot().chaos.expect("chaos installed");
        assert!(
            chaos.partition_drops > 0,
            "{backend}: the partition must actually cut traffic"
        );
        // A wall-clock rank holds a frame back at its gate where the
        // simulator delays it: both kinds of fault must have fired there.
        if backend != Backend::Simnet {
            assert!(
                chaos.reorders > 0 && chaos.duplicates > 0,
                "{backend}: reorders and duplicates must fire at the gates: {chaos:?}"
            );
        }
        // Both client ranks keep their own reliability state: each acked
        // its own inbound stream (replies/results) independently.
        for c in 0..2 {
            let rel = cluster
                .transport()
                .node_reliability(c)
                .unwrap_or_else(|| panic!("{backend}: client {c} has reliability state"));
            assert!(
                rel.acks_sent > 0,
                "{backend}: client {c} acked its own inbound stream"
            );
        }
        cluster.shutdown();
    }
}

/// Chaos × multi-client, reporting-TSI shape: two clients pump increments
/// into the same two servers concurrently under 2% drop + partition heal.
/// Whatever the interleaving, exactly-once delivery makes the final counters
/// the exact sum of both clients' deltas, and per-link in-order delivery
/// makes every client's per-server report sequence strictly increasing
/// (each report is the post-increment counter value).
#[test]
fn two_client_reporting_tsi_under_chaos_is_exactly_once_in_order() {
    use tc_core::{ClientId, CompletionSet, Ready};
    use tc_workloads::reporting_tsi_payload;

    let plan = FaultPlan::seeded(0x77AA)
        .drop_rate(0.02)
        .duplicate_rate(0.02)
        .partition(&[3], 5, 14);
    let platform = tc_simnet::Platform::thor_bf2();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .clients(2)
        .servers(2)
        .fault_plan(plan)
        .build_sim();
    let lib = build_ifunc_library(
        &tc_workloads::tsi_reporting_module("chaos_mc_rtsi"),
        &platform_toolchain(&platform),
    )
    .unwrap();
    let handles = [
        cluster.on(ClientId(0)).unwrap().register_ifunc(lib.clone()),
        cluster.on(ClientId(1)).unwrap().register_ifunc(lib),
    ];

    const OPS: usize = 16;
    const WINDOW: usize = 4;
    let mut set = CompletionSet::new();
    let mut owner = std::collections::HashMap::new();
    let mut next = [0usize; 2];
    let mut inflight = [0usize; 2];
    // reported[c][op] = (server index, post-increment value)
    let mut reported = vec![vec![(0usize, 0u64); OPS]; 2];
    let mut done = 0usize;
    while done < 2 * OPS {
        for c in 0..2usize {
            while next[c] < OPS && inflight[c] < WINDOW {
                let op = next[c];
                let server = op % 2;
                let rank = cluster.server_rank(server);
                let mut on = cluster.on(ClientId(c)).unwrap();
                let slot = on.result_slot();
                let delta = 1 + (op as u64 % 3) + c as u64;
                let payload = reporting_tsi_payload::encode(c as u64, slot.slot(), delta, 1);
                let msg = on.bitcode_message(handles[c], payload).unwrap();
                on.send_ifunc(&msg, rank).unwrap();
                owner.insert(set.add_result(slot), (c, op, server));
                next[c] += 1;
                inflight[c] += 1;
            }
        }
        let (token, ready) = cluster.wait_any(&mut set).or_dump(&cluster);
        let (c, op, server) = owner.remove(&token).unwrap();
        match ready {
            Ready::Result(value) => {
                reported[c][op] = (server, value);
                inflight[c] -= 1;
                done += 1;
            }
            other => panic!("client {c} op {op} resolved as {other:?}"),
        }
    }
    cluster.run_until_idle(10_000_000).or_dump(&cluster);

    // Exactly-once: each server's counter is the exact sum of both clients'
    // deltas addressed to it.
    for server in 0..2usize {
        let expected: u64 = (0..2)
            .flat_map(|c| {
                (0..OPS)
                    .filter(move |op| op % 2 == server)
                    .map(move |op| 1 + (op as u64 % 3) + c as u64)
            })
            .sum();
        assert_eq!(
            cluster
                .read_u64(cluster.server_rank(server), TARGET_REGION_BASE)
                .unwrap(),
            expected,
            "server {server}: dedup must keep both clients' streams exactly-once"
        );
    }
    // In order per (client, server) link: post-increment reports strictly
    // increase in send order.
    for (c, per_client) in reported.iter().enumerate() {
        for server in 0..2usize {
            let seq: Vec<u64> = per_client
                .iter()
                .filter(|(s, _)| *s == server)
                .map(|(_, v)| *v)
                .collect();
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "client {c} reports on server {server} must be strictly increasing: {seq:?}"
            );
        }
    }
    let m = cluster.metrics();
    assert!(m.retransmits > 0, "the partition must force retransmission");
    assert!(m.faults_injected > 0);
}

/// The adaptive RTO estimator on the simulated backend: same seed → the
/// *same estimator trajectory*, sampled batch by batch through
/// `link_health`; delay faults must push the measured SRTT above the
/// fault-free baseline (the cluster-level half of the widen-then-retighten
/// unit tests in `reliable.rs`); and exactly-once delivery holds throughout.
#[test]
fn adaptive_estimator_trajectory_is_deterministic_on_sim() {
    use tc_core::LinkHealth;

    let run = |delay: f64| -> (Vec<Vec<(u32, LinkHealth)>>, Vec<u64>) {
        let mut plan = FaultPlan::seeded(0xADA7).drop_rate(0.02);
        if delay > 0.0 {
            plan = plan.delay_rate(delay);
        }
        let platform = tc_simnet::Platform::thor_bf2();
        let mut cluster = ClusterBuilder::new()
            .platform(platform)
            .servers(2)
            .fault_plan(plan)
            .build_sim();
        let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
        let handle = cluster.register_ifunc(tsi);
        let msg = cluster.bitcode_message(handle, vec![1]).unwrap();
        let mut trajectory = Vec::new();
        for _ in 0..6 {
            for server in 1..=2 {
                for _ in 0..4 {
                    cluster.send_ifunc(&msg, server).unwrap();
                }
            }
            cluster.run_until_idle(10_000_000).or_dump(&cluster);
            trajectory.push(cluster.link_health());
        }
        let counters = (1..=2)
            .map(|s| cluster.read_u64(s, TARGET_REGION_BASE).unwrap())
            .collect();
        (trajectory, counters)
    };

    let (t1, c1) = run(0.0);
    let (t2, c2) = run(0.0);
    assert_eq!(c1, vec![24, 24], "exactly-once under the estimator");
    assert_eq!(c2, c1);
    assert_eq!(
        t1, t2,
        "same seed on virtual time must reproduce the estimator trajectory \
         snapshot for snapshot"
    );
    let final_srtt = |t: &Vec<Vec<(u32, LinkHealth)>>, peer: u32| -> u64 {
        t.last()
            .unwrap()
            .iter()
            .find(|(rank, h)| *rank == 0 && h.peer == peer)
            .map(|(_, h)| h.srtt)
            .unwrap_or(0)
    };
    assert!(
        final_srtt(&t1, 1) > 0,
        "the client link must have RTT samples"
    );

    // Heavy delay faults: the client's smoothed RTT must sit above the
    // fault-free baseline on at least one server link.
    let (t3, c3) = run(0.9);
    assert_eq!(c3, c1, "delays never break exactly-once");
    assert!(
        (1..=2).any(|peer| final_srtt(&t3, peer) > final_srtt(&t1, peer)),
        "delay faults must widen the measured SRTT (baseline {:?}, delayed {:?})",
        (final_srtt(&t1, 1), final_srtt(&t1, 2)),
        (final_srtt(&t3, 1), final_srtt(&t3, 2)),
    );
}

/// What the RTO estimator buys, decided exactly in virtual time: 2 000
/// dependent 512 B GETs over links that drop 2 % of frames and delay 20 %,
/// under three timer regimes.  With a floor below the round trip the
/// estimator lifts the timeout clear of the delayed acks; pinned at that
/// floor the timer also fires on frames that were only late (no slower here,
/// but three times the copies for the receiver to drop).  A fixed timeout
/// provisioned for the delayed frames repairs exactly the real losses and
/// waits that long for each one.
#[test]
fn adaptive_rto_against_both_fixed_provisionings_is_exact_on_sim() {
    use tc_core::RelConfig;

    #[derive(Debug)]
    struct Arm {
        now: u64,
        retransmits: u64,
        dup_drops: u64,
    }
    const OPS: usize = 2_000;
    const LEN: usize = 512;
    let image: Vec<u8> = (0..4 * LEN).map(|i| ((i * 31) >> 3) as u8).collect();
    let run = |cfg: RelConfig| {
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(2)
            .fault_plan(FaultPlan::seeded(0x1EC0).drop_rate(0.02).delay_rate(0.2))
            .rel_config(cfg)
            .build_sim();
        for server in 1..=2 {
            cluster
                .write_memory(server, DATA_REGION_BASE, &image)
                .unwrap();
        }
        for i in 0..OPS {
            let at = (i % 4) * LEN;
            let handle = cluster
                .get(1 + i % 2, DATA_REGION_BASE + at as u64, LEN as u64)
                .unwrap();
            let data = cluster.wait(&handle).or_dump(&cluster);
            assert_eq!(data, image[at..][..LEN], "GET {i}");
        }
        let m = cluster.metrics();
        Arm {
            now: cluster.transport().now().as_nanos(),
            retransmits: m.retransmits,
            dup_drops: m.dup_drops,
        }
    };

    let low = RelConfig {
        rto: 5_000,
        rto_max: 2_000_000,
        adaptive: true,
    };
    let adaptive = run(low);
    let fixed_low = run(low.fixed());
    let fixed_high = run(RelConfig {
        rto: 500_000,
        ..low.fixed()
    });
    assert_eq!(
        adaptive.retransmits, fixed_high.retransmits,
        "the estimator must re-send what a timeout above every delay re-sends"
    );
    assert!(
        fixed_high.now >= 3 * adaptive.now,
        "{fixed_high:?} {adaptive:?}"
    );
    assert!(
        fixed_low.dup_drops >= 2 * adaptive.dup_drops,
        "{fixed_low:?} {adaptive:?}"
    );
    // Deterministic: a change to the estimator or to `on_gap` shows up here
    // as a diff.
    assert_eq!(
        (adaptive.now, fixed_low.now, fixed_high.now),
        (15_491_284, 14_631_587, 62_033_558)
    );
}

/// Adaptive vs fixed RTO on the threaded backend: with the default adaptive
/// config the estimator takes real wall-clock samples; with
/// `RelConfig::fixed()` it must take none and pin the RTO at the floor.
/// Both arms stay exactly-once.
#[test]
fn threaded_backend_samples_rtt_only_in_adaptive_mode() {
    use tc_core::RelConfig;

    let run = |cfg: RelConfig| {
        let platform = tc_simnet::Platform::thor_bf2();
        let mut cluster = ClusterBuilder::new()
            .platform(platform)
            .servers(2)
            .fault_plan(FaultPlan::seeded(0xF1))
            .rel_config(cfg)
            .build_threaded();
        let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
        let handle = cluster.register_ifunc(tsi);
        let msg = cluster.bitcode_message(handle, vec![1]).unwrap();
        for server in 1..=2 {
            for _ in 0..8 {
                cluster.send_ifunc(&msg, server).unwrap();
            }
        }
        cluster.run_until_idle(10_000_000).or_dump(&cluster);
        for server in 1..=2 {
            assert_eq!(cluster.read_u64(server, TARGET_REGION_BASE).unwrap(), 8);
        }
        let health = cluster.link_health();
        cluster.shutdown();
        health
    };

    let base = RelConfig::threads_default();
    let adaptive = run(base);
    let client_links: Vec<_> = adaptive.iter().filter(|(rank, _)| *rank == 0).collect();
    assert!(!client_links.is_empty(), "client links must report health");
    assert!(
        client_links.iter().any(|(_, h)| h.srtt > 0),
        "adaptive mode must sample the real RTT: {adaptive:?}"
    );
    for (_, h) in &adaptive {
        assert!(h.rto >= base.rto && h.rto <= base.rto_max, "{h:?}");
    }

    let fixed = run(base.fixed());
    for (_, h) in &fixed {
        assert_eq!(h.srtt, 0, "fixed mode takes no samples: {h:?}");
        assert_eq!(h.rto, base.rto, "fixed mode pins the RTO: {h:?}");
    }
}

#[test]
fn crash_window_heals_and_delivery_resumes() {
    // Crash server 1 for its first 6 traversals: the very first sends are
    // blackholed, the restart happens, retransmits complete the job.
    let plan = FaultPlan::seeded(5).crash(1, 0, 6);
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_bf2())
        .servers(1)
        .fault_plan(plan)
        .build_sim();
    let platform = tc_simnet::Platform::thor_bf2();
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(handle, vec![4]).unwrap();
    for _ in 0..5 {
        cluster.send_ifunc(&msg, 1).unwrap();
    }
    cluster.run_until_idle(10_000_000).or_dump(&cluster);
    assert_eq!(cluster.read_u64(1, TARGET_REGION_BASE).unwrap(), 20);
    let chaos = cluster.snapshot().chaos.unwrap();
    assert!(chaos.crash_drops > 0, "the crash window must have fired");
    assert!(cluster.metrics().retransmits > 0);
}
