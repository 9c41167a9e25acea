//! X-RDMA pointer chase: the paper's headline application.  A chaser ifunc is
//! injected into a cluster of DPU servers, hops from shard to shard by
//! recursively forwarding itself, and returns the final value to the client
//! through the one-sided result mailbox.  The same chase is also run with the
//! RDMA-GET baseline so the speedup is visible.
//!
//! ```text
//! cargo run --release --example xrdma_pointer_chase
//! ```

use tc_core::{build_ifunc_library, ClientId, ClusterBuilder};
use tc_simnet::Platform;
use tc_workloads::{
    chaser_module, platform_toolchain, run_pipelined_chases, ChaseConfig, ChaseMode,
    DapcExperiment, PointerTable, Window,
};

/// Drive `chases` independent chases through the async completion plane with
/// a bounded window of X-RDMA results in flight, returning virtual seconds.
fn pipelined_virtual_secs(
    platform: Platform,
    table: &PointerTable,
    depth: u64,
    chases: usize,
    window: usize,
) -> f64 {
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(table.num_servers)
        .build_sim();
    table.install_cluster(&mut cluster).expect("table installs");
    let lib = build_ifunc_library(
        &chaser_module("pipelined_chaser"),
        &platform_toolchain(&platform),
    )
    .expect("chaser library builds");
    let handle = cluster.register_ifunc(lib);
    let mut mk = move |c: &mut tc_core::Cluster<tc_core::SimTransport>, _, payload: Vec<u8>| {
        c.bitcode_message(handle, payload)
    };
    let primary = &[ClientId::PRIMARY];
    let starts: Vec<u64> = (0..chases as u64)
        .map(|i| (i * 7919) % table.total_entries() as u64)
        .collect();
    // Warm every server's code cache, then measure steady state.
    let warm: Vec<u64> = (0..table.num_servers as u64)
        .map(|s| s * table.shard_size as u64)
        .collect();
    run_pipelined_chases(
        &mut cluster,
        primary,
        &mut mk,
        table,
        &[warm],
        1,
        Window::new(1),
    )
    .expect("warm-up chases");
    let t0 = cluster.transport().now();
    let values = run_pipelined_chases(
        &mut cluster,
        primary,
        &mut mk,
        table,
        std::slice::from_ref(&starts),
        depth,
        Window::new(window),
    )
    .expect("pipelined chases")
    .remove(0);
    for (i, &start) in starts.iter().enumerate() {
        assert_eq!(values[i], table.chase(start, depth), "chase from {start}");
    }
    (cluster.transport().now() - t0).as_secs_f64()
}

fn main() {
    let config = ChaseConfig {
        servers: 8,
        shard_size: 512,
        depth: 1024,
        chases: 3,
        seed: 42,
    };
    println!(
        "Thor platform, {} BlueField-2 servers, {} entries/server, chase depth {}",
        config.servers, config.shard_size, config.depth
    );

    let mut experiment = DapcExperiment::new(Platform::thor_bf2(), &config);
    println!(
        "pointer table: {} entries, {:.1}% of successors remote",
        experiment.table().total_entries(),
        experiment.table().remote_fraction() * 100.0
    );

    for mode in [
        ChaseMode::Get,
        ChaseMode::ActiveMessage,
        ChaseMode::CachedBitcode,
        ChaseMode::CachedBinary,
    ] {
        let result = experiment.measure(mode, config.depth, config.chases);
        println!(
            "{:<28} {:>10.1} chases/s   ({:>10.1} µs per chase)",
            mode.label(),
            result.chases_per_second,
            result.chase_latency_us
        );
    }

    let get = experiment.measure(ChaseMode::Get, config.depth, 1);
    let dapc = experiment.measure(ChaseMode::CachedBitcode, config.depth, 1);
    println!(
        "\nX-RDMA DAPC vs GET baseline: {:+.1}%",
        (dapc.chases_per_second / get.chases_per_second - 1.0) * 100.0
    );

    // The async completion plane: the same chaser, but 256 independent
    // chases in flight at once, each reporting through its own result
    // mailbox slot and multiplexed with `wait_any`.
    let table = PointerTable::generate(config.servers, config.shard_size, config.seed);
    let chases = 256usize;
    let depth = 64u64;
    let sequential = pipelined_virtual_secs(Platform::thor_bf2(), &table, depth, chases, 1);
    let pipelined = pipelined_virtual_secs(Platform::thor_bf2(), &table, depth, chases, chases);
    println!(
        "\npipelined driver ({chases} chases of depth {depth}, window 1 vs {chases}):\n  \
         sequential {:>8.1} ms   pipelined {:>8.1} ms   speedup {:.1}x",
        sequential * 1e3,
        pipelined * 1e3,
        sequential / pipelined
    );
}
