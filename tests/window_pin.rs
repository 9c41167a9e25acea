//! The windowed drivers of `tc_workloads` pinned on the simulator: every
//! driver runs under a fixed seed, with and without a fault plan, and the
//! virtual clock and fabric metrics it leaves behind must equal the values
//! recorded before the drivers were folded into one window loop.  A change
//! to the order of posts, result-slot allocations, flushes or waits moves at
//! least one of these numbers.

use tc_core::{
    build_ifunc_library, ClientId, Cluster, ClusterBuilder, FaultPlan, SimTransport,
    TransportMetrics,
};
use tc_simnet::Platform;
use tc_workloads::{
    chaser_module, gather_entries, multi_client_get_burst, platform_toolchain,
    run_multi_client_streams, run_pipelined_chases, run_reporting_tsi, tsi_reporting_module,
    PointerTable, Window,
};

const SEED: u64 = 0x9E11_D0C5;

fn cluster(clients: usize, servers: usize, faulty: bool) -> Cluster<SimTransport> {
    let mut b = ClusterBuilder::new()
        .platform(Platform::thor_xeon())
        .clients(clients)
        .servers(servers);
    if faulty {
        b = b.fault_plan(
            FaultPlan::seeded(SEED)
                .drop_rate(0.03)
                .duplicate_rate(0.02)
                .reorder_rate(0.03),
        );
    }
    b.build_sim()
}

fn observe(cluster: &Cluster<SimTransport>) -> (u64, TransportMetrics) {
    (cluster.transport().now().as_nanos(), cluster.metrics())
}

fn gather(faulty: bool) -> (u64, TransportMetrics) {
    let table = PointerTable::generate(2, 32, SEED);
    let mut cluster = cluster(1, 2, faulty);
    table.install_cluster(&mut cluster).unwrap();
    let images =
        gather_entries(&mut cluster, &[ClientId::PRIMARY], &table, Window::new(8)).unwrap();
    let expected: Vec<u8> = (0..2).flat_map(|s| table.shard_image(s)).collect();
    assert_eq!(images, [expected]);
    observe(&cluster)
}

fn reporting_tsi(faulty: bool) -> (u64, TransportMetrics) {
    let platform = Platform::thor_xeon();
    let mut cluster = cluster(1, 2, faulty);
    let lib = build_ifunc_library(
        &tsi_reporting_module("pin_rtsi"),
        &platform_toolchain(&platform),
    )
    .unwrap();
    let handle = cluster.register_ifunc(lib);
    let mut mk = move |c: &mut Cluster<SimTransport>, _, payload: Vec<u8>| {
        c.bitcode_message(handle, payload)
    };
    let primary = &[ClientId::PRIMARY];
    let out = run_reporting_tsi(&mut cluster, primary, &mut mk, 24, Window::new(4), 2).unwrap();
    assert_eq!(
        out.counters.iter().sum::<u64>(),
        (0..24u64).map(|op| 1 + op % 7).sum()
    );
    observe(&cluster)
}

fn secondary_chases(faulty: bool) -> (u64, TransportMetrics) {
    let platform = Platform::thor_xeon();
    let table = PointerTable::generate(2, 16, SEED);
    let mut cluster = cluster(2, 2, faulty);
    table.install_cluster(&mut cluster).unwrap();
    let lib =
        build_ifunc_library(&chaser_module("pin_chaser"), &platform_toolchain(&platform)).unwrap();
    let client = ClientId(1);
    let handle = cluster.on(client).unwrap().register_ifunc(lib);
    let mut mk = move |c: &mut Cluster<SimTransport>, client, payload: Vec<u8>| {
        c.on(client)?.bitcode_message(handle, payload)
    };
    let starts: Vec<u64> = (0..8).map(|i| (i * 5) % 32).collect();
    let values = run_pipelined_chases(
        &mut cluster,
        &[client],
        &mut mk,
        &table,
        std::slice::from_ref(&starts),
        10,
        Window::new(4),
    )
    .unwrap();
    for (i, &start) in starts.iter().enumerate() {
        assert_eq!(values[0][i], table.chase(start, 10), "chase from {start}");
    }
    observe(&cluster)
}

fn streams(faulty: bool) -> (u64, TransportMetrics) {
    let table = PointerTable::generate(2, 16, SEED);
    let mut cluster = cluster(2, 2, faulty);
    table.install_cluster(&mut cluster).unwrap();
    let report = run_multi_client_streams(
        &mut cluster,
        &Platform::thor_xeon(),
        &table,
        3,
        6,
        Window::new(4),
        SEED,
    )
    .unwrap();
    assert_eq!(report.gathered.len(), 2);
    observe(&cluster)
}

fn get_burst(faulty: bool) -> (u64, TransportMetrics) {
    let mut cluster = cluster(2, 2, faulty);
    let addr = tc_core::layout::DATA_REGION_BASE;
    for s in 0..2 {
        cluster
            .write_memory(cluster.server_rank(s), addr, &[0x3C; 64])
            .unwrap();
    }
    let clients = [ClientId(0), ClientId(1)];
    let done =
        multi_client_get_burst(&mut cluster, &clients, 16, addr, 64, Window::new(4)).unwrap();
    assert_eq!(done, 32);
    observe(&cluster)
}

fn metrics(m: [u64; 7]) -> TransportMetrics {
    TransportMetrics {
        messages_delivered: m[0],
        messages_dropped: m[1],
        bytes_sent: m[2],
        retransmits: m[3],
        fast_retransmits: m[4],
        dup_drops: m[5],
        faults_injected: m[6],
    }
}

type Run = fn(bool) -> (u64, TransportMetrics);

/// `(driver, run, under the fault plan, virtual ns, [delivered, dropped,
/// bytes, retransmits, fast retransmits, dup drops, faults])`, recorded from
/// the per-driver loops the one window loop replaced.
#[rustfmt::skip]
const RECORDED: [(&str, Run, bool, u64, [u64; 7]); 10] = [
    ("gather", gather, false, 25167, [128, 0, 2048, 0, 0, 0, 0]),
    ("gather", gather, true, 38421, [128, 0, 2048, 6, 6, 4, 16]),
    ("reporting_tsi", reporting_tsi, false, 830303, [48, 0, 11434, 0, 0, 0, 0]),
    ("reporting_tsi", reporting_tsi, true, 834946, [48, 0, 11434, 17, 1, 18, 10]),
    ("secondary_chases", secondary_chases, false, 1691218, [50, 0, 10938, 0, 0, 0, 0]),
    ("secondary_chases", secondary_chases, true, 1694548, [50, 0, 10938, 25, 1, 22, 8]),
    ("streams", streams, false, 869149, [155, 0, 17984, 0, 0, 0, 0]),
    ("streams", streams, true, 1105040, [155, 0, 17984, 30, 7, 25, 27]),
    ("get_burst", get_burst, false, 12615, [64, 0, 1024, 0, 0, 0, 0]),
    ("get_burst", get_burst, true, 153061, [64, 0, 1024, 4, 2, 3, 6]),
];

#[test]
fn windowed_drivers_match_the_recorded_simulator_runs() {
    for (name, run, faulty, now, m) in RECORDED {
        let want = (now, metrics(m));
        assert_eq!(run(faulty), want, "{name} (fault plan: {faulty})");
    }
}
