//! Criterion benchmarks behind Tables I–VI: one benchmark per platform runs
//! the full TSI characterisation (AM, uncached bitcode, cached bitcode) and
//! one measures the steady-state cached-send loop in isolation.

use tc_bench::crit::{BenchmarkId, Criterion};
use tc_bench::{criterion_group, criterion_main};
use tc_simnet::Platform;
use tc_workloads::run_tsi;

// Small helper reused by the message-rate benchmark.
mod helpers {
    use tc_core::{build_ifunc_library, Cluster, ClusterBuilder, IfuncMessage, SimTransport};
    use tc_simnet::Platform;
    use tc_workloads::{platform_toolchain, tsi_module};

    /// Build a simulation with the TSI ifunc already cached on server 1.
    pub fn warmed_tsi_sim(platform: Platform) -> (Cluster<SimTransport>, IfuncMessage) {
        let mut sim = ClusterBuilder::new().platform(platform).build_sim();
        let lib = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
        let handle = sim.register_ifunc(lib);
        let msg = sim.bitcode_message(handle, vec![1]).unwrap();
        sim.send_ifunc(&msg, 1).unwrap();
        sim.run_until_idle(10_000).unwrap();
        (sim, msg)
    }
}

fn bench_tsi_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsi_overhead_tables");
    group.sample_size(10);
    for (name, platform) in [
        ("ookami", Platform::ookami()),
        ("thor_bf2", Platform::thor_bf2()),
        ("thor_xeon", Platform::thor_xeon()),
    ] {
        group.bench_with_input(BenchmarkId::new("run_tsi", name), &platform, |b, p| {
            b.iter(|| run_tsi(*p, 50));
        });
    }
    group.finish();
}

fn bench_cached_send_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsi_message_rate");
    group.sample_size(10);
    for (name, platform) in [
        ("ookami", Platform::ookami()),
        ("thor_bf2", Platform::thor_bf2()),
        ("thor_xeon", Platform::thor_xeon()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("cached_burst_100", name),
            &platform,
            |b, p| {
                b.iter_batched(
                    || helpers::warmed_tsi_sim(*p),
                    |(mut sim, msg)| {
                        for _ in 0..100 {
                            sim.send_ifunc(&msg, 1).unwrap();
                        }
                        sim.run_until_idle(100_000).unwrap();
                        sim.transport().now()
                    },
                    tc_bench::crit::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tsi_tables, bench_cached_send_loop);
criterion_main!(benches);
