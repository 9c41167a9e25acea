//! Real-concurrency integration tests: the cluster API on the thread-backed
//! transport.  Node runtimes run on OS threads connected by channels and
//! exchange genuine ifunc frames — no virtual time is involved.  This checks
//! that the framework's state machines (auto-registration, caching,
//! execution, result return) are correct under actual parallelism, driven
//! through exactly the same `ClusterBuilder` API as the simulated backend.

use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, ClientId, ClusterBuilder, Transport};
use tc_ucx::{UcpOp, WorkerAddr};
use tc_workloads::{platform_toolchain, tsi_module};

#[test]
fn threaded_servers_execute_ifuncs_concurrently_and_cache_code() {
    const SERVERS: usize = 6;
    const SENDS_PER_SERVER: usize = 8;

    let platform = tc_simnet::Platform::thor_bf2();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(SERVERS)
        .build_threaded();

    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![3]).unwrap();

    // Interleave sends across all servers; the sender-side cache ships the
    // full frame only on each server's first send and truncated frames after.
    for round in 0..SENDS_PER_SERVER {
        for server in 1..=SERVERS {
            let bytes = cluster.send_ifunc(&message, server).unwrap();
            if round == 0 {
                assert!(bytes > 2_000, "first frame to {server} must carry code");
            } else {
                assert!(
                    bytes < 64,
                    "subsequent frames to {server} must be truncated"
                );
            }
        }
    }

    // The control plane is FIFO-ordered behind the data plane on each node's
    // channel, so a stats query is a per-server barrier: no sleeps needed.
    for server in 1..=SERVERS {
        let stats = cluster.stats(server).unwrap();
        assert_eq!(
            stats.ifuncs_executed, SENDS_PER_SERVER as u64,
            "server {server}"
        );
        assert_eq!(
            stats.jit_compilations, 1,
            "server {server} must JIT exactly once"
        );
        assert_eq!(
            stats.truncated_frames_received,
            SENDS_PER_SERVER as u64 - 1,
            "server {server}"
        );
        let counter = cluster.read_u64(server, TARGET_REGION_BASE).unwrap();
        assert_eq!(
            counter,
            3 * SENDS_PER_SERVER as u64,
            "server {server} counter"
        );
    }

    let metrics = cluster.metrics();
    assert_eq!(metrics.messages_dropped, 0);
    assert!(cluster.transport().errors().is_empty());
    cluster.shutdown();
}

#[test]
fn threaded_truncated_frame_to_cold_server_is_rejected_not_crashing() {
    let platform = tc_simnet::Platform::thor_bf2();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(1)
        .build_threaded();
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![1]).unwrap();

    // Forge a truncated frame to a server that has never seen the code,
    // bypassing the sender cache.
    let truncated = message.frame.encode_truncated();
    cluster
        .on(ClientId::PRIMARY)
        .unwrap()
        .runtime()
        .worker
        .post(WorkerAddr(1), UcpOp::IfuncFrame { bytes: truncated });
    cluster.flush().unwrap();

    // The server reports the failure through the transport's error channel;
    // the stats barrier guarantees it has already handled the frame.
    // The external channel is FIFO, so the node's error report arrives (and
    // is collected) before the stats reply that follows it.
    let stats = cluster.stats(1).unwrap();
    assert_eq!(stats.ifuncs_executed, 0);
    let errors = cluster.transport().errors();
    assert!(
        errors
            .iter()
            .any(|e| e.to_string().contains("never registered")),
        "expected a registration error, got {errors:?}"
    );
    assert_eq!(cluster.read_u64(1, TARGET_REGION_BASE).unwrap(), 0);
    cluster.shutdown();
}

#[test]
fn idle_cluster_detects_quiescence_and_shuts_down_fast() {
    // The transport parks on `recv_timeout` (woken instantly by enqueues)
    // and consults the fabric's pending-message counter, so an idle cluster
    // must be detected and torn down in well under 100 ms — the former
    // fixed polling budget was ~0.5 s.
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_bf2())
        .servers(8)
        .build_threaded();
    let start = std::time::Instant::now();
    cluster.run_until_idle(1_000).unwrap();
    cluster.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "idle 8-node cluster took {elapsed:?} to quiesce and shut down"
    );
}

#[test]
fn large_put_and_get_payloads_cross_the_cluster_unchanged() {
    // End-to-end exercise of the scatter-gather data plane: a large PUT
    // travels as a shared payload segment, and the GET reply of the same
    // region round-trips bit-exact.
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(2)
        .build_threaded();
    let addr = tc_core::layout::DATA_REGION_BASE;
    let payload: tc_ucx::Bytes = (0..192 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    cluster.put(2, addr, payload.clone()).unwrap();
    let handle = cluster.get(2, addr, payload.len() as u64).unwrap();
    let fetched = cluster.wait(&handle).unwrap();
    assert_eq!(fetched, payload);
    // And via the control plane, which reads the node's memory directly.
    let peeked = cluster.read_memory(2, addr, payload.len()).unwrap();
    assert_eq!(peeked, payload);
    assert_eq!(cluster.metrics().messages_dropped, 0);
    cluster.shutdown();
}

#[test]
fn threaded_sends_to_unknown_ranks_are_counted_not_lost_silently() {
    let platform = tc_simnet::Platform::thor_xeon();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(2)
        .build_threaded();
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![1]).unwrap();

    cluster.send_ifunc(&message, 99).unwrap(); // no such rank
    assert_eq!(cluster.metrics().messages_dropped, 1);

    // Deliverable traffic still flows.
    cluster.send_ifunc(&message, 1).unwrap();
    assert_eq!(cluster.stats(1).unwrap().ifuncs_executed, 1);
    cluster.shutdown();
}

/// Both rank classes drain the fabric's default burst per pass.  A client
/// side that read one envelope per wakeup would show under a zero-rate fault
/// plan: a carrier that closes its pass after every reply owes — and sends —
/// a pure ack per reply instead of one per burst.
#[test]
fn a_pass_over_a_burst_of_replies_acks_once_for_the_burst() {
    const OPS: u64 = 2_000;
    const WINDOW: u64 = 16;
    // Patient enough that a loaded test host never retransmits.
    let patient = tc_core::RelConfig {
        rto: 250_000_000,
        rto_max: 1_000_000_000,
        adaptive: true,
    };
    let mut cluster = ClusterBuilder::new()
        .servers(1)
        .fault_plan(tc_core::FaultPlan::seeded(11))
        .rel_config(patient)
        .build_threaded();
    cluster.write_u64(1, DATA_REGION_BASE, 0xBA7C).unwrap();
    for _ in 0..OPS / WINDOW {
        let handles: Vec<_> = (0..WINDOW)
            .map(|_| cluster.post_get(1, DATA_REGION_BASE, 8))
            .collect();
        cluster.flush().unwrap();
        for h in &handles {
            let data = cluster.wait(h).unwrap();
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xBA7C);
        }
    }
    cluster.run_until_idle(1_000).unwrap();
    assert_eq!(cluster.stats(1).unwrap().gets_served, OPS);
    let client = cluster.transport().node_reliability(0).unwrap();
    let server = cluster.transport().node_reliability(1).unwrap();
    assert!(
        client.acks_sent <= OPS / 2,
        "client sent {} pure acks for {OPS} GETs: it closes a pass per reply",
        client.acks_sent
    );
    assert_eq!(server.acks_sent, 0, "every server ack rides a GET reply");
    cluster.shutdown();
}

/// The driver's `flush_client` interleaves with the response flushes of the
/// passes its waits run on the same client: the driver posts a seeded mix of
/// GETs and ifunc sends and flushes late, with waits in between.  Whoever
/// takes an operation must also have put it on the wire before the next is
/// taken, or a link's sequence numbers leave out of order (and a cached-id
/// ifunc frame overtakes the frame that ships its code).  Under a zero-rate
/// fault plan the servers' reliable links count exactly that.
#[test]
fn driver_flush_racing_the_worker_flush_keeps_every_link_in_order() {
    const SEED: u64 = 0x0F1A_5EED;
    let platform = tc_simnet::Platform::thor_xeon();
    // Patient enough that a loaded test host never retransmits, so a
    // duplicate can only come from misordering.
    let patient = tc_core::RelConfig {
        rto: 250_000_000,
        rto_max: 1_000_000_000,
        adaptive: true,
    };
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(2)
        .fault_plan(tc_core::FaultPlan::seeded(SEED))
        .rel_config(patient)
        .build_threaded();
    for server in 1..=2 {
        cluster.write_u64(server, DATA_REGION_BASE, 0xD00D).unwrap();
        cluster.write_u64(server, TARGET_REGION_BASE, 0).unwrap();
    }
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![1]).unwrap();

    let mut rng = tc_simnet::SplitMix64::new(SEED);
    let mut ifuncs = [0u64; 2];
    let mut gets = Vec::new();
    for _ in 0..3_000 {
        for _ in 0..1 + rng.next_u64() % 8 {
            let server = 1 + (rng.next_u64() % 2) as usize;
            if rng.next_u64().is_multiple_of(3) {
                // Posted, not flushed: the first one per server ships the
                // code, every later one only its id.
                cluster
                    .on(ClientId::PRIMARY)
                    .unwrap()
                    .runtime()
                    .send_ifunc(&message, WorkerAddr(server as u32));
                ifuncs[server - 1] += 1;
            } else {
                gets.push(cluster.post_get(server, DATA_REGION_BASE, 8));
            }
            // A seeded pause between two posts: replies of earlier rounds
            // queue up meanwhile.
            for _ in 0..rng.next_u64() % 2_000 {
                std::hint::spin_loop();
            }
        }
        cluster.flush().unwrap();
        if rng.next_u64().is_multiple_of(16) {
            for h in gets.drain(..) {
                let data = cluster.wait(&h).unwrap();
                assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xD00D);
            }
        }
    }
    for h in &gets {
        cluster.wait(h).unwrap();
    }
    cluster.run_until_idle(100_000).unwrap();
    for server in 1..=2 {
        assert_eq!(
            cluster.read_u64(server, TARGET_REGION_BASE).unwrap(),
            ifuncs[server - 1]
        );
        assert_eq!(
            cluster.stats(server).unwrap().ifuncs_executed,
            ifuncs[server - 1]
        );
    }
    for rank in 0..3 {
        let rel = cluster.transport().node_reliability(rank).unwrap();
        assert_eq!(
            (rel.out_of_order, rel.dup_drops, rel.retransmits),
            (0, 0, 0),
            "rank {rank}"
        );
    }
    assert!(cluster.transport().errors().is_empty());
    cluster.shutdown();
}

/// A threaded cluster of `C` clients and `S` servers starts `S` threads: the
/// caller carries the clients.  No thread of this process is ever named
/// `tc-client-*`, whatever other tests run beside this one.
#[cfg(target_os = "linux")]
#[test]
fn no_thread_is_started_for_a_client_rank() {
    let mut cluster = ClusterBuilder::new().clients(2).servers(2).build_threaded();
    for s in 0..2 {
        let rank = cluster.server_rank(s);
        cluster.write_u64(rank, DATA_REGION_BASE, 0xC0DE).unwrap();
    }
    for c in 0..2 {
        let client = ClientId(c);
        let rank = cluster.server_rank(c);
        let handle = cluster
            .on(client)
            .unwrap()
            .get(rank, DATA_REGION_BASE, 8)
            .unwrap();
        let data = cluster.wait(&handle).unwrap();
        assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xC0DE);
    }
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("tc-node-")),
        "the servers' threads are visible: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("tc-client-")),
        "a client rank has a thread of its own: {names:?}"
    );
    cluster.shutdown();
}

/// Under a fault plan the caller's park is ended by the fabric's clock, and a
/// tick can land microseconds behind a real envelope: a silent park is no
/// longer a cadence of silence.  Quiescence never rested on how long the
/// silence lasted — only on nothing unacked on any rank, nothing queued for a
/// node and nothing queued for the caller — so `run_until_idle` still returns
/// only once every frame is acked and every posted operation is claimable,
/// whatever the plan dropped or reordered on the way.
#[test]
fn a_tick_close_behind_an_envelope_does_not_make_quiescence_eager() {
    const GETS: u64 = 32;
    const PUTS: u64 = 8;
    let rel = tc_core::RelConfig {
        rto: 2_000_000,
        rto_max: 16_000_000,
        adaptive: true,
    };
    let (mut faults, mut retransmits) = (0, 0);
    for seed in 0..100u64 {
        let plan = tc_core::FaultPlan::seeded(0x71C4_0000 + seed)
            .drop_rate(0.05)
            .reorder_rate(0.05);
        let mut cluster = ClusterBuilder::new()
            .servers(2)
            .fault_plan(plan)
            .rel_config(rel)
            .build_threaded();
        let value = |server: u64, i: u64| (seed << 16) | (server << 8) | i;
        for server in 1..=2 {
            for i in 0..GETS / 2 {
                let at = DATA_REGION_BASE + 8 * i;
                cluster
                    .write_u64(server as usize, at, value(server, i))
                    .unwrap();
            }
        }
        let gets: Vec<_> = (0..GETS)
            .map(|n| {
                let (server, i) = (1 + n % 2, n / 2);
                let handle = cluster.post_get(server as usize, DATA_REGION_BASE + 8 * i, 8);
                (handle, value(server, i))
            })
            .collect();
        let puts: Vec<_> = (0..PUTS)
            .map(|n| {
                let at = TARGET_REGION_BASE + 8 * n;
                cluster.post_put_confirmed(1 + (n % 2) as usize, at, n.to_le_bytes().to_vec())
            })
            .collect();
        cluster.flush().unwrap();
        cluster.run_until_idle(u64::MAX).unwrap();

        let snapshot = cluster.snapshot();
        for rank in &snapshot.ranks {
            let unacked = rank.digest.map(|d| d.unacked);
            assert_eq!(unacked, Some(0), "seed {seed}: idle with\n{snapshot}");
        }
        for (handle, want) in &gets {
            let data = cluster.try_claim(handle);
            let data = data.unwrap_or_else(|| panic!("seed {seed}: idle with\n{snapshot}"));
            assert_eq!(data.as_slice(), want.to_le_bytes(), "seed {seed}");
        }
        for handle in &puts {
            let confirmed = cluster.try_claim(handle);
            assert!(confirmed.is_some(), "seed {seed}: idle with\n{snapshot}");
        }
        assert_eq!(cluster.pending_completions(), 0, "seed {seed}");
        faults += snapshot.totals().faults_injected;
        retransmits += snapshot.totals().retransmits;
        cluster.shutdown();
    }
    assert!(
        faults >= 100 && retransmits >= 100,
        "the plans must bite: {faults} faults, {retransmits} retransmits"
    );
}

/// A redeployment is a control request, so it is served behind the AMs
/// already flushed toward the server: the AM posted under the first handler
/// runs the first handler even while the server is still busy with the one
/// ahead of it.  (The simulated backend deploys in place, at once, so there
/// the same sequence logs `[2, 2]`.)
#[test]
fn an_am_posted_before_a_redeploy_runs_the_handler_it_was_posted_under() {
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};
    use tc_core::NativeAmHandler;

    let mut cluster = ClusterBuilder::new().servers(1).build_threaded();
    let log = Arc::new(Mutex::new(Vec::new()));
    let tag = |version: u64| -> NativeAmHandler {
        let log = Arc::clone(&log);
        Arc::new(move |_, _| {
            log.lock().unwrap().push(version);
            0
        })
    };
    let spin: NativeAmHandler = Arc::new(|_, _| {
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        0
    });
    cluster.deploy_am("spin", spin).unwrap();
    cluster.deploy_am("tag", tag(1)).unwrap();
    cluster.send_am("spin", 1, vec![]).unwrap();
    cluster.send_am("tag", 1, vec![]).unwrap();
    cluster.deploy_am("tag", tag(2)).unwrap();
    cluster.send_am("tag", 1, vec![]).unwrap();
    assert_eq!(cluster.stats(1).unwrap().ams_executed, 3);
    assert_eq!(*log.lock().unwrap(), [1, 2]);
}
