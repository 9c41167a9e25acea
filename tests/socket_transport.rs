//! Cross-process socket backend: lifecycle, pipelined data plane, TCP,
//! externally launched servers, and peer-death error mapping.
//!
//! Every test spawns real OS processes (the `tc-socket-server` binary this
//! package builds) and talks to them over Unix-domain or TCP sockets, so
//! this suite is the proof that the deployment model in README.md actually
//! works end to end — including the part where things die.

mod common;

use common::OrDump;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tc_core::cluster::{CompletionSet, Event, EventKind, RankState, Snapshot, SocketSpec};
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{Backend, ClusterBuilder, CoreError, FaultPlan, Ready, Transport};

/// What the event ring of `snapshot` says happened to `rank`, oldest first.
fn events_of(snapshot: &Snapshot, rank: usize) -> impl Iterator<Item = &EventKind> {
    let of_rank = move |e: &&Event| e.rank == Some(rank as u32);
    snapshot.events.iter().filter(of_rank).map(|e| &e.kind)
}

fn server_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tc-socket-server")
}

fn builder(servers: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(servers)
        .server_bin(server_bin())
}

/// The acceptance workload: a driver plus four server processes over
/// Unix-domain sockets complete a 256-operation pipelined GET stream
/// (window 16) and shut down without leaving a single orphan process.
#[test]
fn four_server_processes_complete_a_pipelined_get_workload() {
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    const WINDOW: usize = 16;

    let mut cluster = builder(SERVERS).build_socket().expect("cluster starts");
    let addr = DATA_REGION_BASE;
    for s in 0..SERVERS {
        let rank = cluster.server_rank(s);
        let pattern = vec![0xA0 + s as u8; SIZE];
        cluster.write_memory(rank, addr, &pattern).unwrap();
    }

    let mut set = CompletionSet::new();
    let mut issued = 0usize;
    let mut done = 0usize;
    while done < OPS {
        let mut posted = false;
        while issued < OPS && set.len() < WINDOW {
            let rank = cluster.server_rank(issued % SERVERS);
            set.add_get(cluster.post_get(rank, addr, SIZE as u64));
            issued += 1;
            posted = true;
        }
        if posted {
            cluster.flush().unwrap();
        }
        let (_, ready) = cluster.wait_any(&mut set).or_dump(&cluster);
        match ready {
            Ready::Get(data) => {
                assert_eq!(data.len(), SIZE);
                assert!(
                    data.iter()
                        .all(|&b| (0xA0..0xA0 + SERVERS as u8).contains(&b)),
                    "payload bytes must come from a server's pattern"
                );
            }
            other => panic!("unexpected readiness {other:?}"),
        }
        done += 1;
    }

    // Clean teardown: every spawned process must be gone.
    let mut transport = cluster.shutdown();
    assert_eq!(transport.live_children(), 0, "no orphaned server processes");
}

/// Effects before acks, on the threaded backend and on server processes:
/// a server acks a frame — piggybacked on a reply or as the batch's pure
/// ack, and at once for a duplicate — only after polling its operation.  So
/// whenever the client sees nothing unacked after a burst of unconfirmed
/// PUTs (lossy links, so retransmits and duplicate acks are in play), a
/// control-plane read already shows every one of them.
#[test]
fn an_acked_put_is_already_applied_on_threads_and_socket() {
    const PUTS: u64 = 48;
    for backend in [Backend::Threads, Backend::Socket] {
        let plan = FaultPlan::seeded(0xACED)
            .drop_rate(0.05)
            .duplicate_rate(0.05);
        let mut cluster = builder(1).fault_plan(plan).build(backend);
        let server = cluster.server_rank(0);
        for round in 1..=6u64 {
            for i in 0..PUTS {
                let value = (round << 32 | i).to_le_bytes().to_vec();
                cluster
                    .put(server, DATA_REGION_BASE + 8 * i, value)
                    .unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let client_rows = cluster.link_health().into_iter().filter(|(r, _)| *r == 0);
                if client_rows.map(|(_, h)| h.unacked).sum::<u64>() == 0 {
                    break;
                }
                assert!(Instant::now() < deadline, "{backend}: PUTs never acked");
                cluster.transport_mut().step().unwrap();
            }
            for i in 0..PUTS {
                assert_eq!(
                    cluster.read_u64(server, DATA_REGION_BASE + 8 * i).unwrap(),
                    round << 32 | i,
                    "{backend}: PUT {i} of round {round} was acked before it was applied"
                );
            }
        }
        assert!(
            cluster.metrics().retransmits > 0,
            "{backend}: the plan must have forced retransmits"
        );
        cluster.shutdown();
    }
}

/// Byte-level round trips over real TCP (loopback, ephemeral port), both
/// directions, both sizes of the wire codec (inline and scatter-gather).
#[test]
fn tcp_transport_round_trips_puts_and_gets() {
    let mut cluster = builder(1)
        .socket_addr(SocketSpec::Tcp("127.0.0.1:0".into()))
        .build_socket()
        .expect("TCP cluster starts");
    let rank = cluster.server_rank(0);
    let addr = DATA_REGION_BASE;

    // Small (inline) and large (vectored scatter-gather ≥ 512 B) payloads.
    for size in [64usize, 64 * 1024] {
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        cluster.put(rank, addr, payload.clone()).unwrap();
        let handle = cluster.get(rank, addr, size as u64).unwrap();
        let data = cluster.wait(&handle).or_dump(&cluster);
        assert_eq!(&data[..], &payload[..], "TCP round trip of {size} bytes");
    }
    cluster.shutdown();
}

/// A name missing from the server processes' catalog is refused before any
/// rank deploys it, so the handler ids of the next deployment still agree
/// between the clients and the servers.
#[test]
fn a_refused_am_deployment_leaves_handler_ids_in_step() {
    let mut cluster = builder(2).build_socket().expect("cluster starts");
    let noop: tc_core::NativeAmHandler = std::sync::Arc::new(|_, _| 0);
    assert!(matches!(
        cluster.deploy_am("not_in_the_catalog", noop),
        Err(CoreError::UnknownAmHandler { .. })
    ));
    cluster
        .deploy_am("tsi_am", tc_workloads::tsi_am_handler())
        .unwrap();
    let server = cluster.server_rank(1);
    cluster.send_am("tsi_am", server, vec![5]).unwrap();
    cluster.run_until_idle(1_000_000).or_dump(&cluster);
    assert_eq!(
        cluster
            .read_u64(server, TARGET_REGION_BASE)
            .or_dump(&cluster),
        5
    );
    assert_eq!(cluster.stats(server).unwrap().ams_executed, 1);
    cluster.shutdown();
}

/// The external-deployment path: the driver binds a known endpoint and does
/// NOT spawn anything; server processes launched by "the operator" (this
/// test, standing in for a scheduler or a shell on another host) dial in
/// and the cluster works identically.
#[test]
fn externally_launched_servers_join_a_waiting_driver() {
    let sock = std::env::temp_dir().join(format!("tc-ext-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let spec = format!("unix:{}", sock.display());

    // Launch the servers first: connect_with_retry lets them out-wait the
    // driver's bind.
    let mut children: Vec<_> = (1..=2)
        .map(|rank| {
            Command::new(server_bin())
                .args(["--connect", &spec, "--rank", &rank.to_string()])
                .stdin(Stdio::null())
                .spawn()
                .expect("spawn external server")
        })
        .collect();

    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(2)
        .socket_addr(SocketSpec::parse(&spec).unwrap())
        .socket_external()
        .build_socket()
        .expect("driver accepts external servers");

    let addr = DATA_REGION_BASE;
    for s in 0..2 {
        let rank = cluster.server_rank(s);
        cluster.write_u64(rank, addr, 777 + s as u64).unwrap();
        assert_eq!(cluster.read_u64(rank, addr).unwrap(), 777 + s as u64);
    }
    cluster.shutdown();

    // SHUTDOWN (or driver close) must reach the external processes too.
    let deadline = Instant::now() + Duration::from_secs(10);
    for child in &mut children {
        loop {
            match child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "external server exits cleanly");
                    break;
                }
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("external server did not exit after driver shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Satellite: a server process dying mid-run must surface as a *typed*
/// error on the driver — never a panic, never a hang.  A GET against the
/// dead rank fails with `PeerDisconnected`/`ShortRead` (the socket saw the
/// death) or `WaitTimeout` (the transport went quiescent without the
/// reply); healthy ranks keep serving afterwards.
#[test]
fn killed_server_surfaces_typed_error_and_peers_keep_serving() {
    let mut cluster = builder(2).build_socket().expect("cluster starts");
    let addr = DATA_REGION_BASE;
    for s in 0..2 {
        let rank = cluster.server_rank(s);
        cluster.write_u64(rank, addr, 41 + s as u64).unwrap();
    }

    // Kill server index 0 (rank 1) dead, SIGKILL, no goodbye.
    cluster.transport_mut().kill_server(0);
    // Give the OS a moment to tear the socket down.
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let dead_rank = cluster.server_rank(0);
    let err = match cluster.get(dead_rank, addr, 8) {
        Err(e) => e,
        Ok(handle) => cluster
            .wait(&handle)
            .expect_err("a GET against a killed server process must fail"),
    };
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the failure must be detected, not waited out forever"
    );
    match &err {
        CoreError::PeerDisconnected { rank, .. } => assert_eq!(*rank, dead_rank),
        CoreError::ShortRead { rank, .. } => assert_eq!(*rank, dead_rank),
        CoreError::WaitTimeout { .. } => {}
        other => panic!("expected a typed peer-death error, got {other:?}"),
    }

    // The snapshot is local: it answers with a rank dead, and says so (no
    // recovery here, so the loss is terminal).
    let snapshot = cluster.snapshot();
    assert_eq!(
        snapshot.ranks[dead_rank].state,
        RankState::Failed,
        "{snapshot}"
    );
    assert!(
        matches!(
            events_of(&snapshot, dead_rank).last(),
            Some(EventKind::PeerLost(_))
        ),
        "{snapshot}"
    );

    // The surviving rank still answers on both planes.
    let live_rank = cluster.server_rank(1);
    assert_eq!(cluster.read_u64(live_rank, addr).unwrap(), 42);
    let handle = cluster.get(live_rank, addr, 8).unwrap();
    assert_eq!(cluster.wait(&handle).or_dump(&cluster).len(), 8);

    let mut transport = cluster.shutdown();
    assert_eq!(transport.live_children(), 0, "shutdown reaps everything");
}

/// The self-healing acceptance test: SIGKILL one server rank mid-workload
/// with recovery enabled.  The driver must detect the death, respawn the
/// process, re-handshake, restore control-plane state (recorded memory
/// writes), replay the in-flight reliable frames — and the workload must
/// complete byte-identical with no other rank's operations failing.
#[test]
fn sigkill_mid_workload_heals_and_completes_byte_identical() {
    const OPS: usize = 96;
    const SIZE: usize = 512;
    const SERVERS: usize = 3;
    const WINDOW: usize = 8;

    // A zero-rate seeded plan: the reliable layer (which recovery replays
    // through) is active, but no probabilistic fault can eat the replayed
    // frames — the heal itself is the only disturbance.
    let mut cluster = builder(SERVERS)
        .fault_plan(FaultPlan::seeded(0xB007))
        .socket_recovery(8)
        .build_socket()
        .expect("cluster starts");
    let addr = DATA_REGION_BASE;
    for s in 0..SERVERS {
        let rank = cluster.server_rank(s);
        let pattern = vec![0xC0 + s as u8; SIZE];
        // write_memory is recorded by the recovery log: the respawned
        // process must serve the same bytes.
        cluster.write_memory(rank, addr, &pattern).unwrap();
    }

    let mut set = CompletionSet::new();
    let mut owner: HashMap<_, usize> = HashMap::new();
    let mut issued = 0usize;
    let mut done = 0usize;
    let mut killed = false;
    while done < OPS {
        let mut posted = false;
        while issued < OPS && set.len() < WINDOW {
            let s = issued % SERVERS;
            let rank = cluster.server_rank(s);
            owner.insert(set.add_get(cluster.post_get(rank, addr, SIZE as u64)), s);
            issued += 1;
            posted = true;
        }
        if posted {
            cluster.flush().unwrap();
        }
        if !killed && done >= OPS / 3 {
            // SIGKILL, no goodbye, with a full window in flight.
            cluster.transport_mut().kill_server(0);
            killed = true;
        }
        let (token, ready) = cluster.wait_any(&mut set).or_dump(&cluster);
        let s = owner.remove(&token).unwrap();
        match ready {
            Ready::Get(data) => {
                assert_eq!(data.len(), SIZE);
                assert!(
                    data.iter().all(|&b| b == 0xC0 + s as u8),
                    "server {s}: payload must be byte-identical across the heal"
                );
            }
            other => panic!("operation on server {s} resolved as {other:?}"),
        }
        done += 1;
        // Dead, mid-heal or healed, the snapshot answers at once and lists
        // every rank.
        assert_eq!(cluster.snapshot().ranks.len(), 1 + SERVERS);
    }

    assert!(
        cluster.transport().failed_ranks().is_empty(),
        "the killed rank must be healed, not terminally failed"
    );
    let healed_rank = cluster.server_rank(0) as u32;
    let health = cluster.link_health();
    let table = tc_workloads::render_link_health("post-heal link health", &health);
    assert!(
        health
            .iter()
            .any(|(rank, h)| *rank == 0 && h.peer == healed_rank && h.unacked == 0),
        "client link to the healed rank must have drained:\n{table}"
    );

    // The ring tells the story of the killed rank, in order (a slow respawn
    // may take more than one attempt).
    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.heals, 1, "exactly one heal cycle:\n{snapshot}");
    let mut story: Vec<&str> = events_of(&snapshot, healed_rank as usize)
        .map(|kind| match kind {
            EventKind::Admit => "admit",
            EventKind::PeerLost(_) => "peer-lost",
            EventKind::Respawn(_) => "respawn",
            EventKind::HealStart => "heal-start",
            EventKind::HealDone(_) => "heal-done",
            _ => "other",
        })
        .collect();
    story.dedup();
    let expected = [
        "admit",
        "peer-lost",
        "respawn",
        "admit",
        "heal-start",
        "heal-done",
    ];
    assert_eq!(story, expected, "{snapshot}");

    let mut transport = cluster.shutdown();
    assert_eq!(transport.live_children(), 0, "shutdown reaps everything");
}

/// With recovery on but a zero respawn budget, a killed rank becomes
/// *terminally* failed — and `wait_any` must resolve handles pinned to it
/// as `Ready::PeerLost` eagerly instead of riding out the quiescence
/// timeout.  Other ranks keep serving.
#[test]
fn wait_any_resolves_peer_lost_when_the_respawn_budget_is_exhausted() {
    let mut cluster = builder(2)
        .fault_plan(FaultPlan::seeded(7))
        .socket_recovery(0)
        .build_socket()
        .expect("cluster starts");
    let addr = DATA_REGION_BASE;
    for s in 0..2 {
        let rank = cluster.server_rank(s);
        cluster.write_u64(rank, addr, 9 + s as u64).unwrap();
    }

    cluster.transport_mut().kill_server(0);
    std::thread::sleep(Duration::from_millis(50));

    let dead = cluster.server_rank(0);
    let mut set = CompletionSet::new();
    let token = set.add_get(cluster.post_get(dead, addr, 8));
    let _ = cluster.flush();
    let started = Instant::now();
    let (got, ready) = cluster.wait_any(&mut set).or_dump(&cluster);
    assert_eq!(got, token);
    assert_eq!(ready, Ready::PeerLost(dead as u32));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "PeerLost must surface eagerly, not as a quiescence timeout"
    );
    assert_eq!(cluster.transport().failed_ranks(), vec![dead]);
    let snapshot = cluster.snapshot();
    assert_eq!(
        events_of(&snapshot, dead).last(),
        Some(&EventKind::RespawnBudgetExhausted),
        "{snapshot}"
    );
    assert_eq!(snapshot.ranks[dead].state, RankState::Failed, "{snapshot}");

    // The surviving rank still answers on both planes.
    let live = cluster.server_rank(1);
    assert_eq!(cluster.read_u64(live, addr).unwrap(), 10);
    let handle = cluster.get(live, addr, 8).unwrap();
    assert_eq!(cluster.wait(&handle).or_dump(&cluster).len(), 8);
    cluster.shutdown();
}

/// Control-plane reads against a rank whose process died also come back as
/// typed errors (the link error is sticky and replayed, not panicked on).
#[test]
fn dead_link_errors_are_sticky_and_typed_on_the_control_plane() {
    let mut cluster = builder(1).build_socket().expect("cluster starts");
    let rank = cluster.server_rank(0);
    cluster.write_u64(rank, DATA_REGION_BASE, 7).unwrap();

    cluster.transport_mut().kill_server(0);
    std::thread::sleep(Duration::from_millis(50));

    let first = cluster.read_u64(rank, DATA_REGION_BASE);
    let second = cluster.read_u64(rank, DATA_REGION_BASE);
    for (which, res) in [("first", first), ("second", second)] {
        match res {
            Err(CoreError::PeerDisconnected { .. })
            | Err(CoreError::ShortRead { .. })
            | Err(CoreError::WaitTimeout { .. })
            | Err(CoreError::Transport(_)) => {}
            other => panic!("{which} read after peer death: expected a typed error, got {other:?}"),
        }
    }
    cluster.shutdown();
}
