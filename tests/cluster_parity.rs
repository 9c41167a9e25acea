//! Backend parity: the same TSI and X-RDMA scenarios run through one
//! `ClusterBuilder` on all three first-class transports — the calibrated
//! discrete-event simulation, real OS threads, and separate OS processes
//! over Unix-domain sockets — and must produce identical functional results
//! (counter values, execution counts, result values).  Timing is
//! backend-specific by design; function is not.

use std::sync::Arc;
use tc_bitir::{BinOp, Module, ModuleBuilder, ScalarType};
use tc_core::layout::TARGET_REGION_BASE;
use tc_core::{
    build_ifunc_library, Backend, Cluster, ClusterBuilder, CoreError, NativeAmHandler, Transport,
};
use tc_workloads::{platform_toolchain, tsi_module};

const SERVERS: usize = 4;
const SENDS_PER_SERVER: u64 = 5;

/// What a scenario observed on one backend; compared across backends.
#[derive(Debug, PartialEq, Eq)]
struct ScenarioOutcome {
    counters: Vec<u64>,
    ifuncs_executed: Vec<u64>,
    jit_compilations: Vec<u64>,
    truncated_frames: Vec<u64>,
    am_counter: u64,
    doubled: u64,
    dropped: u64,
}

/// An ifunc that doubles a payload value and returns it through the X-RDMA
/// result mailbox.  Payload: `[client u64][slot u64][value u64]`.
fn doubler_module() -> Module {
    let mut mb = ModuleBuilder::new("parity_doubler");
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

/// The shared scenario, written once against the unified API and oblivious
/// to which transport is underneath.
fn run_scenario<T: Transport>(cluster: &mut Cluster<T>) -> ScenarioOutcome {
    let platform = tc_simnet::Platform::thor_bf2();

    // 1. TSI over ifuncs: first send ships code and JITs, the rest ride the
    //    sender cache as truncated frames.
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let tsi_handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(tsi_handle, vec![3]).unwrap();
    for _ in 0..SENDS_PER_SERVER {
        for server in 1..=SERVERS {
            cluster.send_ifunc(&msg, server).unwrap();
        }
    }

    // 2. The AM baseline next to it on server 1.
    cluster
        .deploy_am("parity_tsi_am", tsi_am_handler())
        .unwrap();
    cluster.send_am("parity_tsi_am", 1, vec![7]).unwrap();

    // 3. X-RDMA: ship the doubler to server 2 and wait on the typed handle.
    let doubler = build_ifunc_library(&doubler_module(), &platform_toolchain(&platform)).unwrap();
    let doubler_handle = cluster.register_ifunc(doubler);
    let slot = cluster.result_slot();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&slot.slot().to_le_bytes());
    payload.extend_from_slice(&21u64.to_le_bytes());
    let dmsg = cluster.bitcode_message(doubler_handle, payload).unwrap();
    cluster.send_ifunc(&dmsg, 2).unwrap();
    let doubled = cluster.wait(&slot).unwrap();

    // 4. Let everything settle, then observe through the transport.
    cluster.run_until_idle(1_000_000).unwrap();
    let mut outcome = ScenarioOutcome {
        counters: Vec::new(),
        ifuncs_executed: Vec::new(),
        jit_compilations: Vec::new(),
        truncated_frames: Vec::new(),
        am_counter: 0,
        doubled,
        dropped: cluster.metrics().messages_dropped,
    };
    for server in 1..=SERVERS {
        let stats = cluster.stats(server).unwrap();
        outcome.ifuncs_executed.push(stats.ifuncs_executed);
        outcome.jit_compilations.push(stats.jit_compilations);
        outcome
            .truncated_frames
            .push(stats.truncated_frames_received);
        outcome
            .counters
            .push(cluster.read_u64(server, TARGET_REGION_BASE).unwrap());
    }
    // The AM incremented server 1's counter past the ifunc contribution.
    outcome.am_counter = outcome.counters[0];
    outcome
}

#[test]
fn same_scenario_identical_results_on_both_backends() {
    let builder = || {
        ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(SERVERS)
    };

    let mut sim = builder().build(Backend::Simnet);
    let sim_outcome = run_scenario(&mut sim);

    let mut threaded = builder().build(Backend::Threads);
    let threaded_outcome = run_scenario(&mut threaded);
    threaded.shutdown();

    let mut socket = builder()
        .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
        .build(Backend::Socket);
    let socket_outcome = run_scenario(&mut socket);
    socket.shutdown();

    // Functional parity: every observable agrees across backends.
    assert_eq!(sim_outcome, threaded_outcome);
    assert_eq!(
        sim_outcome, socket_outcome,
        "cross-process backend must match the in-process ones"
    );

    // Sanity: and both match the analytic expectation.
    assert_eq!(sim_outcome.doubled, 42);
    assert_eq!(sim_outcome.dropped, 0);
    for (rank0, &counter) in sim_outcome.counters.iter().enumerate() {
        let expected = 3 * SENDS_PER_SERVER + if rank0 == 0 { 7 } else { 0 };
        assert_eq!(counter, expected, "server {} counter", rank0 + 1);
    }
    for (rank0, &n) in sim_outcome.ifuncs_executed.iter().enumerate() {
        let expected = SENDS_PER_SERVER + if rank0 == 1 { 1 } else { 0 }; // +doubler
        assert_eq!(n, expected, "server {} executions", rank0 + 1);
    }
    for (rank0, &n) in sim_outcome.jit_compilations.iter().enumerate() {
        let expected = 1 + if rank0 == 1 { 1 } else { 0 }; // tsi (+doubler on 2)
        assert_eq!(n, expected, "server {} JITs", rank0 + 1);
    }
}

/// The same scenario over a *lossy* socket: 25% of reliable frames on every
/// link are dropped by the chaos engine, yet the outcome must be identical
/// to the lossless run — exactly-once, in-order delivery across real
/// process boundaries, with the reliability counters proving the recovery
/// came from retransmission rather than luck.
#[test]
fn lossy_socket_run_matches_lossless_results_via_retransmission() {
    let builder = || {
        ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(SERVERS)
    };
    let mut sim = builder().build(Backend::Simnet);
    let lossless = run_scenario(&mut sim);

    let mut socket = builder()
        .fault_plan(tc_core::FaultPlan::seeded(0x50CC).drop_rate(0.25))
        .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
        .build(Backend::Socket);
    let lossy = run_scenario(&mut socket);
    let metrics = socket.metrics();
    let chaos = socket.snapshot().chaos.expect("chaos installed");
    socket.shutdown();

    assert_eq!(
        lossless, lossy,
        "a 25%-drop socket run must be functionally indistinguishable from lossless"
    );
    assert_eq!(lossy.dropped, 0, "chaos drops are not fabric drops");
    assert!(
        chaos.total_injected() > 0,
        "the plan must actually inject faults"
    );
    assert!(
        metrics.retransmits > 0,
        "recovery must come from retransmission"
    );
}

#[test]
fn simulated_backend_still_produces_a_populated_timing_log() {
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(2)
        .build_sim();
    let platform = tc_simnet::Platform::thor_xeon();
    let tsi = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(tsi);
    let msg = cluster.bitcode_message(handle, vec![1]).unwrap();
    // Let the full frame land before the truncated one chases it (the tiny
    // cached frame has lower fabric latency and would otherwise overtake the
    // code-carrying frame).
    cluster.send_ifunc(&msg, 1).unwrap();
    cluster.run_until_idle(10_000).unwrap();
    cluster.send_ifunc(&msg, 1).unwrap();
    cluster.run_until_idle(10_000).unwrap();

    let timings = cluster.transport().timings();
    assert!(
        !timings.records.is_empty(),
        "simnet path must keep its TimingLog"
    );
    let first = timings
        .last_of_kind(tc_core::OutcomeKind::IfuncExecutedFirstArrival)
        .expect("first-arrival record");
    assert!(first.jit.as_millis_f64() > 0.0);
    let cached = timings
        .last_of_kind(tc_core::OutcomeKind::IfuncExecutedCached)
        .expect("cached record");
    assert!(cached.end_to_end() < first.end_to_end());
}

/// The driver's control/observation plane is written once over the
/// transport primitives, so `write_memory` / `read_memory` / `stats` on
/// client ranks, server ranks and a rank beyond the cluster must answer with
/// identical bytes — or the same typed error kind — on all three backends.
#[test]
fn memory_and_stats_plane_is_identical_on_every_rank_class_and_backend() {
    use tc_core::layout::DATA_REGION_BASE;
    use tc_core::CoreError;

    /// Everything observed, errors reduced to their kind.
    fn observe(backend: Backend) -> Vec<String> {
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .clients(2)
            .servers(2)
            .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
            .build(backend);
        let ranks = cluster.node_count();
        let mut seen = Vec::new();
        let mut note = |what: &str, rank: usize, outcome: Result<String, CoreError>| {
            let outcome = match outcome {
                Ok(value) => value,
                Err(CoreError::Transport(_)) => "Err(Transport)".into(),
                Err(other) => format!("Err({other:?})"),
            };
            seen.push(format!("{what}@{rank}: {outcome}"));
        };
        // Ranks 0..2 are clients, 2..4 servers, `ranks` is out of range.
        for rank in 0..=ranks {
            let image: Vec<u8> = (0..48u8).map(|i| i ^ rank as u8).collect();
            let wrote = cluster.write_memory(rank, DATA_REGION_BASE + 8, &image);
            note("write", rank, wrote.map(|()| "ok".into()));
            let read = cluster.read_memory(rank, DATA_REGION_BASE, 64);
            note("read", rank, read.map(|bytes| format!("{bytes:?}")));
            // A length no reply could ever carry (the serving side used to
            // allocate it as asked, and abort).
            let huge = cluster.read_memory(rank, DATA_REGION_BASE, 1 << 60);
            note(
                "read-huge",
                rank,
                huge.map(|b| format!("{} bytes", b.len())),
            );
            let stats = cluster.stats(rank);
            note("stats", rank, stats.map(|s| format!("{s:?}")));
        }
        cluster.shutdown();
        seen
    }

    let sim = observe(Backend::Simnet);
    // The table is not vacuous: in-range ranks round-trip their image, the
    // huge read on each of them and everything on the out-of-range rank is
    // a typed transport error, and nothing fails any other way.
    assert!(sim[0].ends_with("ok") && sim[1].contains("[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2"));
    let errors = sim.iter().filter(|l| l.contains("Err(")).count();
    let typed = sim.iter().filter(|l| l.ends_with("Err(Transport)")).count();
    assert_eq!((errors, typed), (4 + 4, 4 + 4), "{sim:#?}");
    for backend in [Backend::Threads, Backend::Socket] {
        let live = observe(backend);
        for (s, l) in sim.iter().zip(&live) {
            assert_eq!(s, l, "{backend} diverges from the simulated oracle");
        }
        assert_eq!(sim.len(), live.len());
    }
}

/// One observation surface: after the same seeded chaos scenario — a plan
/// that consults the chaos engine on every traversal and runs the reliable
/// layer, with rates of zero and a window of one so that no retransmission
/// timer decides a count — every backend's snapshot sums to its `metrics()`
/// field for field, lists every rank exactly once, and the three agree on the
/// chaos counters and on each client rank's reliability counters.
#[test]
fn snapshots_agree_with_metrics_and_across_backends_under_a_seeded_plan() {
    use tc_core::cluster::{RankState, RelConfig, Snapshot};
    use tc_core::layout::DATA_REGION_BASE;
    use tc_core::{ClientId, FaultPlan};

    const CLIENTS: usize = 2;
    const ROUNDS: u64 = 6;

    fn observe(backend: Backend) -> Snapshot {
        // An RTO no round trip of this scenario approaches, on either clock.
        let patient = RelConfig {
            rto: 5_000_000_000,
            rto_max: 10_000_000_000,
            adaptive: true,
        };
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .clients(CLIENTS)
            .servers(2)
            .fault_plan(FaultPlan::seeded(0x0B5E))
            .rel_config(patient)
            .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
            .build(backend);
        for round in 0..ROUNDS {
            for c in 0..CLIENTS {
                let (client, server) = (ClientId(c), cluster.server_rank((round as usize + c) % 2));
                let addr = DATA_REGION_BASE + 64 * c as u64;
                let word = (round << 8 | c as u64).to_le_bytes();
                let put = cluster
                    .on(client)
                    .unwrap()
                    .put_confirmed(server, addr, word.to_vec())
                    .unwrap();
                cluster.wait(&put).unwrap();
                let get = cluster.on(client).unwrap().get(server, addr, 8).unwrap();
                assert_eq!(cluster.wait(&get).unwrap(), word, "{backend}");
            }
        }
        cluster.run_until_idle(1_000_000).unwrap();

        let snapshot = cluster.snapshot();
        assert_eq!(
            snapshot.totals(),
            cluster.metrics(),
            "{backend}:\n{snapshot}"
        );
        assert_eq!(snapshot.backend, cluster.backend_name());
        assert_eq!(snapshot.pending_claims, 0, "{backend}:\n{snapshot}");
        let ranks: Vec<usize> = snapshot.ranks.iter().map(|r| r.rank as usize).collect();
        assert_eq!(ranks, (0..cluster.node_count()).collect::<Vec<_>>());
        for r in &snapshot.ranks {
            let client = (r.rank as usize) < CLIENTS;
            assert_eq!(r.stats.is_some(), client, "{backend}:\n{snapshot}");
            assert_eq!(r.state, RankState::Live);
            assert!(r.digest.is_some(), "{backend}: a fault plan is installed");
        }
        cluster.shutdown();
        snapshot
    }

    let sim = observe(Backend::Simnet);
    let chaos = sim.chaos.expect("chaos installed");
    // Per operation: the request, the reply that carries its ack, and the
    // client's pure ack of the reply.
    assert_eq!(chaos.decisions, 3 * 2 * ROUNDS * CLIENTS as u64, "{sim}");
    assert_eq!(chaos.total_injected(), 0);
    for backend in [Backend::Threads, Backend::Socket] {
        let live = observe(backend);
        assert_eq!(live.chaos, sim.chaos, "{backend}:\n{live}\nvs\n{sim}");
        for c in 0..CLIENTS {
            let rel = |s: &Snapshot| s.ranks[c].digest.expect("reliable").metrics;
            assert_eq!(
                rel(&live),
                rel(&sim),
                "{backend} client {c}:\n{live}\nvs\n{sim}"
            );
            assert_eq!(
                live.ranks[c].stats, sim.ranks[c].stats,
                "{backend} client {c}"
            );
        }
    }
}

/// `main` posts first and traps after: with `forwards`, it forwards itself
/// to server rank 2 once (payload `[slot u64][hops u64]`, hops then 0) and
/// traps with code 2; otherwise, and on the forwarded arrival, it returns
/// `value` into client 0's result slot `slot`, and traps with code 1 unless
/// it arrived forwarded.
fn posts_then_traps(name: &str, forwards: bool, value: u64) -> Module {
    let mut mb = ModuleBuilder::new(name);
    let mut f = mb.entry_function();
    let (payload, len) = (f.param(0), f.param(1));
    let slot = f.load(ScalarType::U64, payload, 0);
    let (forward, result) = (f.new_block(), f.new_block());
    if forwards {
        let hops = f.load(ScalarType::U64, payload, 8);
        f.br_if(hops, forward, result);
    } else {
        f.br(result);
    }
    f.switch_to(forward);
    let (zero, server) = (f.const_u64(0), f.const_u64(2));
    f.store(ScalarType::U64, zero, payload, 8);
    f.call_ext("tc_forward_self", vec![server, payload, len], true);
    f.trap(2);
    f.switch_to(result);
    let (client, value) = (f.const_u64(0), f.const_u64(value));
    f.call_ext("tc_return_result", vec![client, slot, value], true);
    if forwards {
        let z = f.const_i64(0);
        f.ret(z);
    } else {
        f.trap(1);
    }
    f.finish();
    mb.build()
}

/// What executing code posted stays posted when the code traps later (the
/// runtime's rule since posts leave as they are made).  At cluster level, on
/// every backend: an ifunc that returns a result and then traps, and one
/// that forwards itself and then traps, each complete their result exactly
/// once; each trap reaches the backend's `errors()` and `Snapshot.errors`;
/// and no completion is left unclaimed.  On threads the first arrival at an
/// idle server runs on the caller's thread, the forward on server 2's own.
#[test]
fn a_trap_after_a_post_completes_what_was_posted_and_reports_the_error_on_every_backend() {
    fn run<T: Transport>(
        mut cluster: Cluster<T>,
        errors: fn(&Cluster<T>) -> &[CoreError],
    ) -> Vec<String> {
        let toolchain = platform_toolchain(&tc_simnet::Platform::thor_bf2());
        let mut texts = Vec::new();
        for (name, forwards, value) in [
            ("returns_then_traps", false, 7),
            ("forwards_then_traps", true, 9),
        ] {
            let library =
                build_ifunc_library(&posts_then_traps(name, forwards, value), &toolchain).unwrap();
            let handle = cluster.register_ifunc(library);
            let slot = cluster.result_slot();
            let payload = [slot.slot(), 1]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let msg = cluster.bitcode_message(handle, payload).unwrap();
            cluster.send_ifunc(&msg, 1).unwrap();
            assert_eq!(cluster.wait(&slot).unwrap(), value, "{name}");
            cluster.run_until_idle(1_000_000).unwrap();
            // Barriers behind each server's data: its error report is in.
            let (first, second) = (cluster.stats(1).unwrap(), cluster.stats(2).unwrap());
            assert_eq!(cluster.try_claim(&slot), None, "{name}: completed twice");
            let snapshot = cluster.snapshot();
            assert_eq!(snapshot.pending_claims, 0, "{name}: an orphaned completion");
            assert_eq!(snapshot.errors, errors(&cluster).len(), "{name}");
            assert_eq!(
                first.ifuncs_executed, 0,
                "{name}: the trapped run is no execution"
            );
            assert_eq!(second.ifuncs_executed, u64::from(forwards), "{name}");
            assert_eq!(first.ifunc_full_sends, u64::from(forwards), "{name}");
            texts.push(
                errors(&cluster)
                    .iter()
                    .map(|e| match e {
                        CoreError::Transport(msg) => msg.clone(),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
        }
        texts
    }
    let builder = || {
        ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_bf2())
            .servers(2)
    };
    let sim = run(builder().build_sim(), |c| c.transport().errors());
    let threads = run(builder().build_threaded(), |c| c.transport().errors());
    let socket = builder()
        .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
        .build_socket();
    let socket = run(socket.unwrap(), |c| c.transport().errors());
    let trap = |code, name| {
        format!("target-side JIT error: execution trapped: explicit trap (code {code}) in `{name}`")
    };
    let one = trap(1, "main");
    assert_eq!(sim, [one.clone(), format!("{one} | {}", trap(2, "main"))]);
    assert_eq!(threads, sim);
    assert_eq!(socket, sim);
}
