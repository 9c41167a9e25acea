//! Ablation benchmarks for the design choices called out in `DESIGN.md`:
//! caching on/off and fat-bitcode vs single-target bitcode.

use tc_bench::crit::{BenchmarkId, Criterion};
use tc_bench::{criterion_group, criterion_main};
use tc_bitir::{FatBitcode, TargetTriple};
use tc_core::{build_ifunc_library, ClusterBuilder, ToolchainOptions};
use tc_jit::{OrcJit, SparseMemory};
use tc_simnet::Platform;
use tc_workloads::{platform_toolchain, tsi_module};

/// Caching ablation: cached (truncated-frame) sends vs. forcing the full
/// frame every time by forgetting the sender cache between sends.
fn bench_caching_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("caching_ablation");
    group.sample_size(10);

    let make_sim = || {
        let platform = Platform::thor_xeon();
        let mut sim = ClusterBuilder::new().platform(platform).build_sim();
        let lib = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
        let handle = sim.register_ifunc(lib);
        let msg = sim.bitcode_message(handle, vec![1]).unwrap();
        sim.send_ifunc(&msg, 1).unwrap();
        sim.run_until_idle(10_000).unwrap();
        (sim, msg)
    };

    group.bench_function("cached_sends_50", |b| {
        b.iter_batched(
            make_sim,
            |(mut sim, msg)| {
                for _ in 0..50 {
                    sim.send_ifunc(&msg, 1).unwrap();
                }
                sim.run_until_idle(100_000).unwrap();
                sim.transport().now()
            },
            tc_bench::crit::BatchSize::SmallInput,
        );
    });

    group.bench_function("uncached_full_frame_sends_50", |b| {
        b.iter_batched(
            make_sim,
            |(mut sim, msg)| {
                for _ in 0..50 {
                    // Encode the full frame manually to model caching being off.
                    let bytes = msg.frame.encode_full();
                    sim.client_mut()
                        .worker
                        .post(tc_ucx::WorkerAddr(1), tc_ucx::UcpOp::IfuncFrame { bytes });
                    sim.put(1, tc_core::layout::TARGET_REGION_BASE + 64, vec![0])
                        .unwrap();
                }
                sim.run_until_idle(100_000).unwrap();
                sim.transport().now()
            },
            tc_bench::crit::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Fat-bitcode ablation: archive construction and JIT intake cost with one,
/// two, and five target triples in the archive.
fn bench_fatbitcode_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fatbitcode_ablation");
    group.sample_size(20);
    let module = tsi_module();
    let target_sets: Vec<(&str, Vec<TargetTriple>)> = vec![
        ("1_target", vec![TargetTriple::THOR_XEON]),
        (
            "2_targets",
            vec![TargetTriple::THOR_XEON, TargetTriple::THOR_BF2],
        ),
        ("5_targets", TargetTriple::default_toolchain_targets()),
    ];
    for (name, targets) in &target_sets {
        group.bench_with_input(
            BenchmarkId::new("build_and_jit", name),
            targets,
            |b, targets| {
                b.iter(|| {
                    let fat = FatBitcode::from_module(&module, targets).unwrap();
                    let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
                    let mut mem = SparseMemory::new();
                    jit.add_fat_bitcode(&fat, &mut mem).unwrap();
                    fat.encoded_size()
                });
            },
        );
    }
    // The library build (toolchain) cost with the full default target set.
    group.bench_function("toolchain_default_targets", |b| {
        b.iter(|| build_ifunc_library(&module, &ToolchainOptions::default()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_caching_ablation, bench_fatbitcode_ablation);
criterion_main!(benches);
