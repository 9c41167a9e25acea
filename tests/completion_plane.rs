//! The async completion plane, end to end: `CompletionSet`/`wait_any`
//! multiplexing, pipelined drivers with hundreds of operations in flight,
//! per-handle deadlines, confirmed PUTs — plus the regression tests for the
//! completion-draining, quiescence-timeout and result-slot-collision bugs
//! this plane's design surfaced.

use tc_core::layout::DATA_REGION_BASE;
use tc_core::{
    build_ifunc_library, Backend, ClientId, Cluster, ClusterBuilder, CompletionSet, CoreError,
    FaultPlan, GetHandle, PutHandle, Ready, ResultHandle, Transport,
};
use tc_workloads::{
    chaser_module, gather_entries, platform_toolchain, run_reporting_tsi, tsi_reporting_module,
    PointerTable, Window,
};

const SERVERS: usize = 4;
const SHARD: usize = 128; // 4 × 128 = 512 entries ⇒ windows up to 512

fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(SERVERS)
}

fn reference_image(table: &PointerTable) -> Vec<u8> {
    (0..table.num_servers)
        .flat_map(|s| table.shard_image(s))
        .collect()
}

/// Acceptance criterion: a pipelined driver with ≥256 operations in flight
/// via `wait_any` produces byte-identical results to the sequential driver
/// on both backends, fault-free and under a 2% drop plan.
#[test]
fn pipelined_gather_is_byte_identical_across_backends_windows_and_faults() {
    let table = PointerTable::generate(SERVERS, SHARD, 0xFEED);
    let expected = reference_image(&table);
    for backend in [Backend::Simnet, Backend::Threads] {
        for plan in [None, Some(FaultPlan::seeded(42).drop_rate(0.02))] {
            for inflight in [1usize, 256] {
                // Sequential × pipelined × lossless × lossy: all identical.
                let mut b = builder();
                if let Some(plan) = plan.clone() {
                    b = b.fault_plan(plan);
                }
                let mut cluster = b.build(backend);
                table.install_cluster(&mut cluster).unwrap();
                let image = gather_entries(&mut cluster, &table, Window::new(inflight)).unwrap();
                assert_eq!(
                    image,
                    expected,
                    "gather on {backend} (inflight {inflight}, plan {:?})",
                    plan.is_some()
                );
                if plan.is_some() && inflight == 256 {
                    assert!(
                        cluster.metrics().faults_injected > 0,
                        "the 2% plan must actually have fired on {backend}"
                    );
                }
                cluster.shutdown();
            }
        }
    }
}

/// The reporting-TSI workload: identical counters and per-op prefix sums on
/// both backends at any window size.
#[test]
fn reporting_tsi_outcome_is_window_and_backend_invariant() {
    let platform = tc_simnet::Platform::thor_xeon();
    let lib = || {
        build_ifunc_library(
            &tsi_reporting_module("rtsi_par"),
            &platform_toolchain(&platform),
        )
        .unwrap()
    };
    let run = |backend: Backend, inflight: usize| {
        let mut cluster = builder().build(backend);
        let handle = cluster.register_ifunc(lib());
        let mut mk = move |c: &mut Cluster<Box<dyn Transport>>, payload: Vec<u8>| {
            c.bitcode_message(handle, payload)
        };
        let out = run_reporting_tsi(&mut cluster, &mut mk, 64, Window::new(inflight), 8).unwrap();
        cluster.shutdown();
        out
    };
    let baseline = run(Backend::Simnet, 1);
    for (backend, inflight) in [
        (Backend::Simnet, 64),
        (Backend::Threads, 1),
        (Backend::Threads, 64),
    ] {
        let out = run(backend, inflight);
        assert_eq!(out, baseline, "{backend} at window {inflight}");
    }
}

/// `wait_any` resolves mixed GET + X-RDMA result registrations in completion
/// arrival order, token by token.
#[test]
fn wait_any_orders_mixed_handles_by_arrival() {
    let platform = tc_simnet::Platform::thor_xeon();
    let mut cluster = builder().build_sim();
    cluster.write_u64(1, DATA_REGION_BASE, 0xABCD).unwrap();
    let lib = build_ifunc_library(
        &tsi_reporting_module("rtsi_mixed"),
        &platform_toolchain(&platform),
    )
    .unwrap();
    let handle = cluster.register_ifunc(lib);

    // The GET departs first and needs no JIT; the ifunc result requires
    // compile + execute + return PUT, so the GET completes first.
    let get = cluster.get(1, DATA_REGION_BASE, 8).unwrap();
    let slot = cluster.result_slot();
    let payload = tc_workloads::reporting_tsi_payload::encode(0, slot.slot(), 5, 0);
    let msg = cluster.bitcode_message(handle, payload).unwrap();
    cluster.send_ifunc(&msg, 2).unwrap();

    let mut set = CompletionSet::new();
    let t_result = set.add_result(slot);
    let t_get = set.add_get(get);

    let (first, ready) = cluster.wait_any(&mut set).unwrap();
    assert_eq!(first, t_get, "the earlier-arriving completion wins");
    assert!(matches!(ready, Ready::Get(d) if d.len() == 8));
    let (second, ready) = cluster.wait_any(&mut set).unwrap();
    assert_eq!(second, t_result);
    assert_eq!(ready, Ready::Result(5));
    assert!(set.is_empty());
}

/// One table, one arrival order, whatever the kind and whoever the client:
/// six completions of two clients (their mailbox slots collide) are
/// deposited one at a time, then claimed through a set registered newest
/// first — `wait_any` must follow the deposits, not the registrations, the
/// kinds or the client ids.
#[test]
fn wait_any_follows_arrival_order_across_two_clients() {
    enum Posted {
        Get(GetHandle),
        Put(PutHandle),
        Result(ResultHandle),
    }
    let platform = tc_simnet::Platform::thor_xeon();
    let mut cluster = builder().clients(2).build_sim();
    let lib = build_ifunc_library(
        &tsi_reporting_module("rtsi_two_clients"),
        &platform_toolchain(&platform),
    )
    .unwrap();
    let server = cluster.server_rank(0);
    let (c0, c1) = (ClientId(0), ClientId(1));
    let ifuncs = [c0, c1].map(|c| cluster.register_ifunc_on(c, lib.clone()).unwrap());
    let nobody = ResultHandle::for_slot(4000);

    let schedule = [
        (c1, 'g'),
        (c0, 'p'),
        (c1, 'r'),
        (c0, 'g'),
        (c0, 'r'),
        (c1, 'p'),
    ];
    let posted: Vec<Posted> = schedule
        .iter()
        .map(|&(client, kind)| {
            let posted = match kind {
                'g' => Posted::Get(
                    cluster
                        .get_from(client, server, DATA_REGION_BASE, 8)
                        .unwrap(),
                ),
                'p' => Posted::Put(
                    cluster
                        .put_confirmed_from(client, server, DATA_REGION_BASE, vec![7u8; 8])
                        .unwrap(),
                ),
                _ => {
                    let slot = cluster.result_slot_on(client).unwrap();
                    assert_eq!(slot.slot(), 0, "both clients use mailbox slot 0");
                    let payload = tc_workloads::reporting_tsi_payload::encode(
                        client.rank() as u64,
                        slot.slot(),
                        1,
                        0,
                    );
                    let msg = cluster
                        .bitcode_message_on(client, ifuncs[client.index()], payload)
                        .unwrap();
                    cluster.send_ifunc_from(client, &msg, server).unwrap();
                    Posted::Result(slot)
                }
            };
            // Complete it, and deposit it (a claim that finds nothing still
            // absorbs) before the next operation is even posted.
            cluster.run_until_idle(1_000_000).unwrap();
            assert_eq!(cluster.try_claim(&nobody), None);
            posted
        })
        .collect();
    assert_eq!(cluster.pending_completions(), schedule.len());

    let mut set = CompletionSet::new();
    let mut tokens: Vec<_> = posted
        .iter()
        .rev()
        .map(|posted| match posted {
            Posted::Get(h) => set.add_get(*h),
            Posted::Put(h) => set.add_put(*h),
            Posted::Result(h) => set.add_result(*h),
        })
        .collect();
    tokens.reverse(); // back to posting order
    let resolved = cluster.wait_all(&mut set).unwrap();
    for (i, (token, ready)) in resolved.iter().enumerate() {
        assert_eq!(*token, tokens[i], "resolution {i} follows deposit {i}");
        let kind = match ready {
            Ready::Get(_) => 'g',
            Ready::Put => 'p',
            Ready::Result(_) => 'r',
            other => panic!("resolution {i}: {other:?}"),
        };
        assert_eq!(kind, schedule[i].1, "resolution {i}");
    }
    assert_eq!(cluster.pending_completions(), 0);
}

/// A handle may name a client the cluster does not have (`ResultHandle`s are
/// constructible from plain numbers): it is a completion that never arrives,
/// not an index out of range.
#[test]
fn a_handle_for_an_unknown_client_times_out_instead_of_panicking() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder().build(backend);
        cluster.write_u64(1, DATA_REGION_BASE, 0x5EED).unwrap();
        let ghost = ResultHandle::for_client_slot(ClientId(9), 0);
        assert_eq!(cluster.try_claim(&ghost), None, "{backend}");
        assert!(
            matches!(cluster.wait(&ghost), Err(CoreError::WaitTimeout { .. })),
            "{backend}"
        );
        // Beside a live GET in one set: the GET resolves, the ghost times out.
        let mut set = CompletionSet::new();
        let t_ghost = set.add_result(ghost);
        let t_get = set.add_get(cluster.get(1, DATA_REGION_BASE, 8).unwrap());
        let (token, ready) = cluster.wait_any(&mut set).unwrap();
        assert_eq!(token, t_get, "{backend}");
        assert!(matches!(ready, Ready::Get(d) if d[..2] == [0xED, 0x5E]));
        assert!(
            matches!(
                cluster.wait_any(&mut set),
                Err(CoreError::WaitTimeout { .. })
            ),
            "{backend}"
        );
        assert!(set.remove(t_ghost), "{backend}: still registered");
        cluster.shutdown();
    }
}

/// Registering the same handle twice: exactly one token claims the
/// completion, the duplicate resolves through its deadline.
#[test]
fn duplicate_handle_claims_once_and_duplicate_deadlines() {
    let mut cluster = builder().build_sim();
    cluster.write_u64(1, DATA_REGION_BASE, 9).unwrap();
    let get = cluster.get(1, DATA_REGION_BASE, 8).unwrap();
    let mut set = CompletionSet::new();
    let t1 = set.add_get(get);
    let t2 = set.add_get(get);
    set.deadline(t2, 1_000_000_000);

    let (tok, ready) = cluster.wait_any(&mut set).unwrap();
    assert_eq!(tok, t1, "first registration claims");
    assert!(matches!(ready, Ready::Get(_)));
    let (tok, ready) = cluster.wait_any(&mut set).unwrap();
    assert_eq!(tok, t2, "duplicate cannot claim again");
    assert_eq!(ready, Ready::Deadline);
}

/// Per-handle deadlines expire on both backends: a result that never
/// arrives resolves as `Ready::Deadline` instead of hanging or erroring.
#[test]
fn deadline_expiry_resolves_never_completing_handles() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder().build(backend);
        let mut set = CompletionSet::new();
        let t = set.add_result(cluster.reserve_result_slot(4000));
        set.deadline(t, 50_000_000); // 50 ms (wall or virtual)
        let (tok, ready) = cluster.wait_any(&mut set).unwrap();
        assert_eq!((tok, ready), (t, Ready::Deadline), "{backend}");
        cluster.shutdown();
    }
}

/// Confirmed PUTs complete on both backends — including with a payload
/// large enough for the scatter-gather path — and the bytes are visible
/// remotely once the handle resolves.
#[test]
fn put_confirmed_completes_and_bytes_are_visible() {
    let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder().build(backend);
        let handle = cluster
            .put_confirmed(2, DATA_REGION_BASE, payload.clone())
            .unwrap();
        cluster.wait(&handle).unwrap();
        let read = cluster
            .read_memory(2, DATA_REGION_BASE, payload.len())
            .unwrap();
        assert_eq!(read, payload, "{backend}");
        cluster.shutdown();
    }
}

/// Confirmed PUTs stay exactly-once under a fault plan: the ack may be
/// dropped and retransmitted, but the handle resolves and the data is
/// intact.
#[test]
fn put_confirmed_survives_a_lossy_fabric() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder()
            .fault_plan(FaultPlan::seeded(7).drop_rate(0.05))
            .build(backend);
        let mut set = CompletionSet::new();
        for i in 0..8u64 {
            let h = cluster
                .put_confirmed(
                    1,
                    DATA_REGION_BASE + i * 8,
                    (100 + i).to_le_bytes().to_vec(),
                )
                .unwrap();
            set.add_put(h);
        }
        let resolved = cluster.wait_all(&mut set).unwrap();
        assert_eq!(resolved.len(), 8, "{backend}");
        assert!(resolved.iter().all(|(_, r)| *r == Ready::Put));
        for i in 0..8u64 {
            assert_eq!(
                cluster.read_u64(1, DATA_REGION_BASE + i * 8).unwrap(),
                100 + i,
                "{backend}"
            );
        }
        cluster.shutdown();
    }
}

/// REGRESSION (result-slot collisions): the allocator must skip reserved
/// slots so manually constructed `ResultHandle::for_slot` handles cannot
/// collide with allocated ones.
#[test]
fn result_slot_allocator_skips_reserved_slots() {
    let mut cluster = builder().build_sim();
    let manual = cluster.reserve_result_slot(0);
    assert_eq!(manual.slot(), ResultHandle::for_slot(0).slot());
    let a = cluster.result_slot();
    let b = cluster.result_slot();
    assert_ne!(a.slot(), 0, "allocator must not hand out the reserved slot");
    assert_ne!(b.slot(), 0);
    assert_ne!(a.slot(), b.slot());
    // Reserving ahead of the allocator cursor also works.
    let later = cluster.reserve_result_slot(b.slot() + 1);
    let c = cluster.result_slot();
    assert_ne!(c.slot(), later.slot());
}

/// REGRESSION (result-mailbox wrap): the mailbox has 4096 slots and
/// `result_slot_addr` wraps, so the allocator must wrap with it — it used to
/// count on forever, and the 4097th handle (slot 4096, delivered into slot
/// 0) never resolved.
#[test]
fn result_slot_allocator_wraps_with_the_mailbox() {
    let platform = tc_simnet::Platform::thor_xeon();
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder().build(backend);
        let lib = build_ifunc_library(
            &tsi_reporting_module("rtsi_wrap"),
            &platform_toolchain(&platform),
        )
        .unwrap();
        let handle = cluster.register_ifunc(lib);
        for i in 0..4_100u64 {
            let slot = cluster.result_slot();
            assert!(slot.slot() < tc_core::layout::RESULT_MAILBOX_SLOTS);
            let payload = tc_workloads::reporting_tsi_payload::encode(0, slot.slot(), 1, 0);
            let msg = cluster.bitcode_message(handle, payload).unwrap();
            cluster.send_ifunc(&msg, 1).unwrap();
            let got = cluster
                .wait(&slot)
                .unwrap_or_else(|e| panic!("handle {i} on {backend}: {e}"));
            assert_eq!(got, i + 1, "handle {i} on {backend}");
        }
        cluster.shutdown();
    }
}

/// REGRESSION (wait-timeout/RTO interplay, threaded backend): with the 20 ms
/// park below the reliable layer's 30 ms base RTO and 480 ms backoff cap, a
/// partition covering the first link traversals used
/// to make `wait()` report `WaitTimeout` while frames sat unacked with an
/// armed retransmission deadline.  Quiescence now out-waits the RTO backoff.
#[test]
fn threaded_wait_survives_partition_until_reliable_heal() {
    let plan = FaultPlan::seeded(11).partition(&[0], 0, 4);
    let mut cluster = ClusterBuilder::new()
        .servers(1)
        .fault_plan(plan)
        .build_threaded();
    cluster.write_u64(1, DATA_REGION_BASE, 0x50AF).unwrap();
    let handle = cluster.get(1, DATA_REGION_BASE, 8).unwrap();
    let data = cluster
        .wait(&handle)
        .expect("wait must ride out the partition through retransmission");
    assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0x50AF);
    assert!(
        cluster.metrics().retransmits > 0,
        "the partition must have forced retransmits"
    );
    cluster.shutdown();
}

/// The same interplay at a high probabilistic drop rate, on both backends:
/// typed waits never spuriously time out while the reliable layer is still
/// retransmitting.
#[test]
fn waits_survive_high_drop_rates_on_both_backends() {
    for backend in [Backend::Simnet, Backend::Threads] {
        let mut cluster = builder()
            .fault_plan(FaultPlan::seeded(3).drop_rate(0.25))
            .build(backend);
        cluster.write_u64(1, DATA_REGION_BASE, 7).unwrap();
        for i in 0..12u64 {
            let handle = cluster.get(1, DATA_REGION_BASE, 8).unwrap();
            let data = cluster
                .wait(&handle)
                .unwrap_or_else(|e| panic!("{backend}: GET {i} timed out: {e}"));
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 7);
        }
        assert!(cluster.metrics().retransmits > 0, "{backend}");
        cluster.shutdown();
    }
}

/// Pipelined chases on the threaded backend: 256 chases in flight with the
/// reporting chaser, values matching ground truth (the chaser hops between
/// real OS threads while the driver multiplexes mailbox slots).
#[test]
fn pipelined_chases_run_on_real_threads() {
    let platform = tc_simnet::Platform::thor_xeon();
    let table = PointerTable::generate(SERVERS, SHARD, 21);
    let mut cluster = builder().build_threaded();
    table.install_cluster(&mut cluster).unwrap();
    let lib =
        build_ifunc_library(&chaser_module("thr_chaser"), &platform_toolchain(&platform)).unwrap();
    let handle = cluster.register_ifunc(lib);
    let mut mk = move |c: &mut Cluster<tc_core::ThreadTransport>, payload: Vec<u8>| {
        c.bitcode_message(handle, payload)
    };
    let starts: Vec<u64> = (0..256u64).map(|i| (i * 31) % 512).collect();
    let values = tc_workloads::run_pipelined_chases(
        &mut cluster,
        &mut mk,
        &table,
        &starts,
        8,
        Window::new(256),
    )
    .unwrap();
    for (i, &start) in starts.iter().enumerate() {
        assert_eq!(values[i], table.chase(start, 8), "chase from {start}");
    }
    cluster.shutdown();
}
