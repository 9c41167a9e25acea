//! Cross-backend multi-client parity suite.
//!
//! `C ∈ {1, 2, 4}` driver-side clients, same seed, each running an
//! independent gather + pointer-chase stream through one merged completion
//! set: the per-client artifacts must be byte-identical across
//! `SimTransport` and `ThreadTransport`, equal to ground truth, and must
//! never leak across clients (client *i*'s mailbox only ever holds client
//! *i*'s completions — exercised deliberately, since every client allocates
//! the *same* numeric request ids and mailbox slots).
//!
//! Also the regression half of the satellite "audit every rank-0
//! assumption": each latent single-client assumption found during the
//! refactor (results hardwired to client rank 0, servers addressed as
//! `owner + 1`, chaser hops computed as `idx/shard + 1`) has a test here
//! that fails against the pre-fix behaviour on a multi-client layout.

mod common;

use common::OrDump;
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{Backend, ClientId, Cluster, ClusterBuilder, CompletionSet, Ready, Transport};
use tc_workloads::{
    chase_starts, gather_entries_from, multi_client_get_burst, run_multi_client_streams,
    run_pipelined_chases_from, run_reporting_tsi_from, MultiClientReport, PointerTable, Window,
};

const SEED: u64 = 0x5EED_C11E;

fn builder(clients: usize, servers: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .clients(clients)
        .servers(servers)
}

/// Same layout on the cross-process backend: servers are spawned OS
/// processes (`tc-socket-server`) over a Unix-domain socket.
fn socket_builder(clients: usize, servers: usize) -> ClusterBuilder {
    builder(clients, servers).server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
}

/// The shared scenario: every client gathers the table and chases pointers.
fn run_streams(
    cluster: &mut Cluster<Box<dyn Transport>>,
    table: &PointerTable,
) -> MultiClientReport {
    table.install_cluster(cluster).unwrap();
    run_multi_client_streams(
        cluster,
        &tc_simnet::Platform::thor_xeon(),
        table,
        5,
        12,
        Window::new(6),
        SEED,
    )
    .or_dump(cluster)
}

fn assert_report_matches_ground_truth(
    report: &MultiClientReport,
    table: &PointerTable,
    clients: usize,
) {
    let expected: Vec<u8> = (0..table.num_servers)
        .flat_map(|s| table.shard_image(s))
        .collect();
    assert_eq!(report.gathered.len(), clients);
    for c in 0..clients {
        assert_eq!(report.gathered[c], expected, "client {c} gathered image");
        let starts = chase_starts(table, ClientId(c), 5, SEED);
        for (i, &start) in starts.iter().enumerate() {
            assert_eq!(
                report.chased[c][i],
                table.chase(start, 12),
                "client {c} chase {i}"
            );
        }
    }
}

fn parity_for_clients(clients: usize) {
    let table = PointerTable::generate(2, 24, 0xAB + clients as u64);

    let mut sim = builder(clients, 2).build(Backend::Simnet);
    let sim_report = run_streams(&mut sim, &table);

    let mut threaded = builder(clients, 2).build(Backend::Threads);
    let threaded_report = run_streams(&mut threaded, &table);
    threaded.shutdown();

    let mut socket = socket_builder(clients, 2).build(Backend::Socket);
    let socket_report = run_streams(&mut socket, &table);
    socket.shutdown();

    assert_eq!(
        sim_report, threaded_report,
        "{clients}-client run must be byte-identical across backends"
    );
    assert_eq!(
        sim_report, socket_report,
        "{clients}-client run must be byte-identical on the cross-process backend"
    );
    assert_report_matches_ground_truth(&sim_report, &table, clients);
}

#[test]
fn one_client_streams_identical_across_backends() {
    parity_for_clients(1);
}

#[test]
fn two_client_streams_identical_across_backends() {
    parity_for_clients(2);
}

#[test]
fn four_client_streams_identical_across_backends() {
    parity_for_clients(4);
}

#[test]
fn sim_multi_client_run_is_deterministic_under_a_fixed_seed() {
    let table = PointerTable::generate(3, 16, 99);
    let run = |_: u32| {
        let mut cluster = builder(4, 3).build_sim();
        table.install_cluster(&mut cluster).unwrap();
        run_multi_client_streams(
            &mut cluster,
            &tc_simnet::Platform::thor_xeon(),
            &table,
            4,
            9,
            Window::new(5),
            SEED,
        )
        .unwrap()
    };
    assert_eq!(run(0), run(1), "same seed ⇒ identical virtual-time run");
}

/// Completions never leak across clients: both clients post GETs whose
/// request ids collide numerically, against *different* servers; claiming
/// with the wrong client's handle must find nothing, and each handle must
/// deliver its own client's bytes.
#[test]
fn completions_never_leak_across_clients() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder(2, 2).build(backend);
        let addr = DATA_REGION_BASE;
        cluster
            .write_memory(cluster.server_rank(0), addr, &[0x11; 8])
            .unwrap();
        cluster
            .write_memory(cluster.server_rank(1), addr, &[0x22; 8])
            .unwrap();

        // Same per-client request-id space: both handles carry request 0.
        let h0 = cluster
            .get_from(ClientId(0), cluster.server_rank(0), addr, 8)
            .unwrap();
        let h1 = cluster
            .get_from(ClientId(1), cluster.server_rank(1), addr, 8)
            .unwrap();
        assert_eq!(h0.request(), h1.request(), "ids collide by construction");

        // Wait for client 1's reply first.
        let d1 = cluster.wait(&h1).or_dump(&cluster);
        assert_eq!(&d1[..], &[0x22; 8], "{backend}: client 1 got its bytes");

        // Client 1's completion is claimed; re-claiming with client 1's
        // identity must find nothing even when client 0's completion (the
        // same numeric request id!) is already buffered — the pre-refactor
        // table, keyed on the bare id, would hand it over here.
        assert!(
            cluster.try_claim(&h1).is_none(),
            "{backend}: client 0's completion must not satisfy client 1"
        );

        let d0 = cluster.wait(&h0).or_dump(&cluster);
        assert_eq!(&d0[..], &[0x11; 8], "{backend}: client 0 got its bytes");
        cluster.shutdown();
    }
}

/// Result mailboxes are per-client: equal slot numbers on different clients
/// hold different values, and a wrong-client result handle never claims.
#[test]
fn result_mailboxes_are_per_client() {
    let mut cluster = builder(2, 2).build_sim();
    let table = PointerTable::generate(2, 16, 5);
    table.install_cluster(&mut cluster).unwrap();

    // Both clients run a one-chase stream; slot allocators both hand out
    // slot 0.
    let report = run_multi_client_streams(
        &mut cluster,
        &tc_simnet::Platform::thor_xeon(),
        &table,
        1,
        7,
        Window::new(1),
        SEED,
    )
    .unwrap();
    let s0 = chase_starts(&table, ClientId(0), 1, SEED)[0];
    let s1 = chase_starts(&table, ClientId(1), 1, SEED)[0];
    assert_eq!(report.chased[0][0], table.chase(s0, 7));
    assert_eq!(report.chased[1][0], table.chase(s1, 7));

    // The values landed in each client's own mailbox memory (slot 0 of rank
    // 0 vs slot 0 of rank 1).
    let addr = tc_core::ResultHandle::for_slot(0).mailbox_addr();
    let m0 = cluster.read_memory(0, addr, 16).unwrap();
    let m1 = cluster.read_memory(1, addr, 16).unwrap();
    assert_ne!(m0, vec![0u8; 16], "client 0 slot 0 was written");
    assert_ne!(m1, vec![0u8; 16], "client 1 slot 0 was written");
    if report.chased[0][0] != report.chased[1][0] {
        assert_ne!(m0, m1, "distinct results in the per-client mailboxes");
    }
}

/// A merged completion set over two clients resolves each registration with
/// its own client's payload, in arrival order, on both backends.
#[test]
fn merged_completion_set_routes_by_client() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder(2, 1).build(backend);
        let addr = DATA_REGION_BASE;
        cluster
            .write_memory(cluster.server_rank(0), addr, &[0x7A; 8])
            .unwrap();
        let mut set = CompletionSet::new();
        let mut tokens = Vec::new();
        for c in 0..2 {
            for _ in 0..4 {
                let h = cluster
                    .post_get_from(ClientId(c), cluster.server_rank(0), addr, 8)
                    .unwrap();
                tokens.push((set.add_get(h), c));
            }
            cluster.flush_from(ClientId(c)).unwrap();
        }
        let mut resolved = 0;
        while !set.is_empty() {
            let (_token, ready) = cluster.wait_any(&mut set).or_dump(&cluster);
            match ready {
                Ready::Get(data) => assert_eq!(&data[..], &[0x7A; 8]),
                other => panic!("{backend}: unexpected readiness {other:?}"),
            }
            resolved += 1;
        }
        assert_eq!(resolved, 8, "{backend}: all 8 registrations resolve");
        cluster.shutdown();
    }
}

// --- regressions for latent single-client assumptions ----------------------

/// REGRESSION: `run_reporting_tsi` hardwired client rank 0 into the kernel
/// payload, so on a multi-client cluster every result (and every prefix sum)
/// of a non-primary client was delivered to the wrong mailbox.  Driving the
/// stream from client 1 must work and return exact per-server sums.
#[test]
fn reporting_tsi_from_a_secondary_client_routes_results_home() {
    let platform = tc_simnet::Platform::thor_xeon();
    let mut cluster = builder(2, 2).build_sim();
    let lib = tc_core::build_ifunc_library(
        &tc_workloads::tsi_reporting_module("mc_rtsi"),
        &tc_workloads::platform_toolchain(&platform),
    )
    .unwrap();
    let client = ClientId(1);
    let handle = cluster.register_ifunc_on(client, lib).unwrap();
    let mut mk = move |c: &mut Cluster<tc_core::SimTransport>, payload: Vec<u8>| {
        c.bitcode_message_on(client, handle, payload)
    };
    let out = run_reporting_tsi_from(&mut cluster, client, &mut mk, 20, Window::new(4), 2).unwrap();
    let mut expect = vec![0u64; 2];
    for op in 0..20usize {
        expect[op % 2] += 1 + (op as u64 % 7);
    }
    assert_eq!(out.counters, expect, "per-server sums exact from client 1");
    // In-order per link: the last report per server equals the final sum.
    assert_eq!(out.reported[18], expect[0]);
    assert_eq!(out.reported[19], expect[1]);
    // Nothing ever landed in client 0's mailbox.
    let addr = tc_core::ResultHandle::for_slot(0).mailbox_addr();
    assert_eq!(
        cluster.read_memory(0, addr, 16).unwrap(),
        vec![0u8; 16],
        "client 0's mailbox stays untouched"
    );
}

/// REGRESSION: the chaser kernel computed hop owners as `idx/shard + 1` —
/// on a 2-client cluster that addresses *client 1* for shard 0, so a chase
/// issued from client 1 either errored or never completed.  The first-server
/// rank now travels in the payload.
#[test]
fn pipelined_chases_from_a_secondary_client_hop_correct_servers() {
    let platform = tc_simnet::Platform::thor_xeon();
    let table = PointerTable::generate(2, 16, 21);
    let mut cluster = builder(2, 2).build_sim();
    table.install_cluster(&mut cluster).unwrap();
    let lib = tc_core::build_ifunc_library(
        &tc_workloads::chaser_module("mc_reg_chaser"),
        &tc_workloads::platform_toolchain(&platform),
    )
    .unwrap();
    let client = ClientId(1);
    let handle = cluster.register_ifunc_on(client, lib).unwrap();
    let mut mk = move |c: &mut Cluster<tc_core::SimTransport>, payload: Vec<u8>| {
        c.bitcode_message_on(client, handle, payload)
    };
    let starts: Vec<u64> = (0..8).map(|i| (i * 3) % 32).collect();
    let values = run_pipelined_chases_from(
        &mut cluster,
        client,
        &mut mk,
        &table,
        &starts,
        10,
        Window::new(4),
    )
    .unwrap();
    for (i, &start) in starts.iter().enumerate() {
        assert_eq!(values[i], table.chase(start, 10), "chase from {start}");
    }
    // Multi-hop chases really crossed servers (the kernel's owner
    // arithmetic was exercised, not just the first send).
    let hops: u64 = (0..2)
        .map(|s| {
            cluster
                .stats(cluster.server_rank(s))
                .unwrap()
                .ifuncs_executed
        })
        .sum();
    assert!(hops > 8, "chases must hop between servers, saw {hops}");
}

/// REGRESSION: `gather_entries` addressed servers as `owner_index + 1`; on a
/// multi-client cluster rank 1 is a *client*, so a gather from any client
/// read zeroes out of another client's empty memory instead of the shard.
#[test]
fn gather_from_secondary_client_reads_servers_not_clients() {
    let table = PointerTable::generate(2, 16, 31);
    let expected: Vec<u8> = (0..2).flat_map(|s| table.shard_image(s)).collect();
    let mut cluster = builder(3, 2).build_sim();
    table.install_cluster(&mut cluster).unwrap();
    for c in 0..3 {
        let image = gather_entries_from(&mut cluster, ClientId(c), &table, Window::new(8)).unwrap();
        assert_eq!(image, expected, "client {c} image");
    }
}

/// REGRESSION: `PointerTable::install_cluster` wrote shard `s` to rank
/// `s + 1`; with clients at ranks 0..C that poked shard images into client
/// memory.  Install on a 2-client cluster must leave client 1's data region
/// untouched and populate the true server ranks.
#[test]
fn install_cluster_targets_server_ranks() {
    let table = PointerTable::generate(2, 8, 77);
    let mut cluster = builder(2, 2).build_sim();
    table.install_cluster(&mut cluster).unwrap();
    assert_eq!(
        cluster.read_memory(1, DATA_REGION_BASE, 64).unwrap(),
        vec![0u8; 64],
        "client 1's data region must stay empty"
    );
    for s in 0..2 {
        assert_eq!(
            cluster
                .read_memory(cluster.server_rank(s), DATA_REGION_BASE, 64)
                .unwrap(),
            table.shard_image(s),
            "server {s} shard image"
        );
    }
}

/// Per-client result-slot allocators are independent, and reservations on
/// one client never shift another client's allocation stream.
#[test]
fn result_slot_allocators_are_per_client() {
    let mut cluster = builder(3, 1).build_sim();
    let r = cluster.reserve_result_slot_on(ClientId(1), 0).unwrap();
    assert_eq!(r.slot(), 0);
    assert_eq!(r.client(), ClientId(1));
    // Client 0 and 2 still allocate from 0; client 1 skips its reservation.
    let mut next = |c| cluster.result_slot_on(ClientId(c)).unwrap().slot();
    assert_eq!(next(0), 0);
    assert_eq!(next(1), 1);
    assert_eq!(next(2), 0);
    assert_eq!(next(0), 1);
}

/// The aggregate burst driver completes every operation for every client
/// count on both backends.
#[test]
fn get_burst_scales_across_client_counts_on_both_backends() {
    for backend in [Backend::Simnet, Backend::Threads] {
        for clients in [1usize, 2, 4] {
            let mut cluster = builder(clients, 2).build(backend);
            let addr = DATA_REGION_BASE;
            for s in 0..2 {
                cluster
                    .write_memory(cluster.server_rank(s), addr, &[0x5A; 256])
                    .unwrap();
            }
            let done = multi_client_get_burst(&mut cluster, 32, addr, 256, Window::new(8)).unwrap();
            assert_eq!(done, 32 * clients, "{backend}, {clients} clients");
            cluster.shutdown();
        }
    }
}

/// REGRESSION: client↔client traffic is loopback-class on the threaded
/// backend (all clients live on the driving thread, delivered locally) —
/// the simulated backend must exempt it from the fault model too, or the
/// backends' chaos schedules and metrics diverge.  Under a plan that drops
/// *everything*, a cross-client PUT still delivers exactly once on both
/// backends, with zero retransmits attributable to it.
#[test]
fn cross_client_traffic_bypasses_the_fault_plan_on_both_backends() {
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = socket_builder(2, 1)
            .fault_plan(tc_core::FaultPlan::seeded(3).drop_rate(1.0))
            .build(backend);
        cluster
            .put_from(ClientId(0), 1, DATA_REGION_BASE, vec![0xEE; 8])
            .unwrap();
        cluster.run_until_idle(100_000).or_dump(&cluster);
        assert_eq!(
            cluster.read_memory(1, DATA_REGION_BASE, 8).unwrap(),
            vec![0xEE; 8],
            "{backend}: client 0 → client 1 PUT must land despite 100% drop"
        );
        assert_eq!(
            cluster.metrics().retransmits,
            0,
            "{backend}: loopback-class traffic never enters the reliable layer"
        );
        cluster.shutdown();
    }
}

/// Layout sanity: `ClusterBuilder::clients(4)` on both backends yields the
/// documented rank layout and per-client runtimes at the right ranks.
#[test]
fn four_client_layout_is_consistent_on_both_backends() {
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = socket_builder(4, 3).build(backend);
        assert_eq!(cluster.client_count(), 4);
        assert_eq!(cluster.server_count(), 3);
        assert_eq!(cluster.node_count(), 7);
        assert_eq!(cluster.first_server_rank(), 4);
        assert_eq!(cluster.server_rank(2), 6);
        for c in 0..4 {
            assert_eq!(
                cluster
                    .client_runtime(ClientId(c))
                    .unwrap()
                    .node_id()
                    .index(),
                c,
                "{backend}: client {c} rank"
            );
        }
        // A client the cluster does not have is a typed error, not a panic.
        let refused = cluster.get_from(ClientId(4), cluster.server_rank(0), DATA_REGION_BASE, 8);
        assert!(
            matches!(&refused, Err(tc_core::CoreError::Transport(m)) if m.contains("no client")),
            "{backend}: {refused:?}"
        );
        // TSI through every client against every server: counters add up.
        for s in 0..3 {
            cluster
                .write_u64(cluster.server_rank(s), TARGET_REGION_BASE, 0)
                .unwrap();
        }
        let platform = tc_simnet::Platform::thor_xeon();
        let lib = tc_core::build_ifunc_library(
            &tc_workloads::tsi_module(),
            &tc_workloads::platform_toolchain(&platform),
        )
        .unwrap();
        for c in 0..4 {
            let handle = cluster.register_ifunc_on(ClientId(c), lib.clone()).unwrap();
            let msg = cluster
                .bitcode_message_on(ClientId(c), handle, vec![c as u8 + 1])
                .unwrap();
            for s in 0..3 {
                cluster
                    .send_ifunc_from(ClientId(c), &msg, cluster.server_rank(s))
                    .unwrap();
            }
        }
        cluster.run_until_idle(1_000_000).or_dump(&cluster);
        for s in 0..3 {
            assert_eq!(
                cluster
                    .read_u64(cluster.server_rank(s), TARGET_REGION_BASE)
                    .unwrap(),
                (1 + 2 + 3 + 4) as u64,
                "{backend}: server {s} saw all four clients"
            );
        }
        cluster.shutdown();
    }
}

/// Control round trips issued while data is in flight share the driver's
/// receive path with it (one external queue on threads, one inbox on the
/// socket backend): whatever arrives ahead of a control reply must be
/// delivered to its client, not discarded as "not the reply".
#[test]
fn control_round_trips_do_not_eat_data_in_flight() {
    const PER_CLIENT: u64 = 32;
    for backend in [Backend::Threads, Backend::Socket] {
        let mut cluster = socket_builder(2, 2).build(backend);
        let value = |c: u64, i: u64| (c + 1) << 32 | i;
        let addr = |c: u64, i: u64| DATA_REGION_BASE + 8 * (c * PER_CLIENT + i);
        for s in 0..2 {
            for c in 0..2 {
                for i in 0..PER_CLIENT {
                    cluster
                        .write_u64(cluster.server_rank(s), addr(c, i), value(c, i))
                        .unwrap();
                }
            }
        }
        let mut set = CompletionSet::new();
        let mut expected = std::collections::HashMap::new();
        for c in 0..2 {
            for i in 0..PER_CLIENT {
                let server = cluster.server_rank((i % 2) as usize);
                let h = cluster
                    .post_get_from(ClientId(c as usize), server, addr(c, i), 8)
                    .unwrap();
                assert_eq!(h.client(), ClientId(c as usize));
                expected.insert(set.add_get(h), value(c, i));
            }
        }
        cluster.flush_all().unwrap();
        // Each control call queues behind the GETs on its server, so the
        // replies to those are what it has to step over.
        for s in 0..2 {
            let rank = cluster.server_rank(s);
            let bytes = cluster.read_memory(rank, addr(1, 5), 8).unwrap();
            assert_eq!(bytes, value(1, 5).to_le_bytes(), "{backend}");
            assert_eq!(
                cluster.stats(rank).unwrap().gets_served,
                PER_CLIENT,
                "{backend}: the stats request is a barrier behind the GETs"
            );
            cluster.write_u64(rank, TARGET_REGION_BASE, 1).unwrap();
        }
        let resolved = cluster.wait_all(&mut set).or_dump(&cluster);
        assert_eq!(resolved.len(), 2 * PER_CLIENT as usize, "{backend}");
        for (token, ready) in resolved {
            // Each token resolves once, with the bytes its own client asked for.
            let want = expected.remove(&token).expect("a token resolved twice");
            match ready {
                Ready::Get(data) => assert_eq!(data.as_slice(), want.to_le_bytes(), "{backend}"),
                other => panic!("{backend}: unexpected readiness {other:?}"),
            }
        }
        assert!(expected.is_empty());
        assert_eq!(cluster.pending_completions(), 0, "{backend}");
        cluster.shutdown();
    }
}
