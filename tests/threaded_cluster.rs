//! Real-concurrency integration tests: the cluster API on the thread-backed
//! transport.  Node runtimes run on OS threads connected by channels and
//! exchange genuine ifunc frames — no virtual time is involved.  This checks
//! that the framework's state machines (auto-registration, caching,
//! execution, result return) are correct under actual parallelism, driven
//! through exactly the same `ClusterBuilder` API as the simulated backend.

use tc_core::layout::TARGET_REGION_BASE;
use tc_core::{build_ifunc_library, ClusterBuilder};
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
        .client_mut()
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

#[test]
fn thread_tuning_is_configurable_through_the_builder() {
    // The former hard-coded scheduling constants (park timeout, batch caps,
    // idle grace, control timeout) are builder-configurable; a deliberately
    // unusual combination must still run the scenario correctly.
    let platform = tc_simnet::Platform::thor_bf2();
    let tuning = tc_core::Tuning {
        step_timeout: std::time::Duration::from_millis(5),
        idle_grace: 4,
        node_batch: 4,
        control_timeout: std::time::Duration::from_secs(2),
        ..tc_core::Tuning::default()
    };
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(3)
        .tuning(tuning)
        .build_threaded();
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![2]).unwrap();
    for _ in 0..10 {
        for server in 1..=3 {
            cluster.send_ifunc(&message, server).unwrap();
        }
    }
    cluster.run_until_idle(100_000).unwrap();
    for server in 1..=3 {
        assert_eq!(cluster.read_u64(server, TARGET_REGION_BASE).unwrap(), 20);
        assert_eq!(cluster.stats(server).unwrap().ifuncs_executed, 10);
    }
    cluster.shutdown();
}
