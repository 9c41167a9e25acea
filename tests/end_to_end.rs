//! Cross-crate integration tests: the full pipeline from IR (builder API and
//! Chainlang) through the toolchain, the simulated fabric, remote JIT /
//! binary load, recursive X-RDMA forwarding and result return.

use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, ClusterBuilder, OutcomeKind, ToolchainOptions};
use tc_simnet::Platform;
use tc_workloads::{
    chaser_payload, platform_toolchain, run_tsi, ChaseConfig, ChaseMode, DapcExperiment,
    PointerTable,
};

#[test]
fn tsi_full_pipeline_on_all_platforms() {
    for platform in [
        Platform::ookami(),
        Platform::thor_bf2(),
        Platform::thor_xeon(),
    ] {
        let results = run_tsi(platform, 50);
        // Qualitative claims of Tables I–VI, per platform:
        // 1. the uncached path is much slower end-to-end than the cached one;
        assert!(
            results.uncached_rate.latency_us > 1.5 * results.cached_rate.latency_us,
            "{}: uncached {} vs cached {}",
            platform.name,
            results.uncached_rate.latency_us,
            results.cached_rate.latency_us
        );
        // 2. cached bitcode is within a few percent of Active Messages;
        let ratio = results.cached_rate.latency_us / results.am_rate.latency_us;
        assert!(
            ratio > 0.9 && ratio < 1.15,
            "{}: cached/AM ratio {ratio}",
            platform.name
        );
        // 3. cached bitcode sustains a higher message rate than AM;
        assert!(results.cached_rate.message_rate > results.am_rate.message_rate);
        // 4. JIT is a one-time, millisecond-scale cost.
        let jit = results.uncached_bitcode.jit_ms.unwrap();
        assert!(jit > 0.3 && jit < 10.0, "{}: jit {jit} ms", platform.name);
    }
}

#[test]
fn recursive_chaser_visits_many_servers_and_returns_correctly() {
    let config = ChaseConfig {
        servers: 8,
        shard_size: 64,
        depth: 200,
        chases: 1,
        seed: 3,
    };
    let mut exp = DapcExperiment::new(Platform::thor_bf2(), &config);
    let (value, elapsed_us) = exp.run_one_chase(ChaseMode::CachedBitcode, 0, 200);
    assert_eq!(value, exp.table().chase(0, 200));
    assert!(elapsed_us > 0.0);
    // The chase must actually have executed ifuncs on several servers.
    let servers_used = (1..=8)
        .filter(|&r| exp.sim().transport().node(r).stats.ifuncs_executed > 0)
        .count();
    assert!(
        servers_used >= 4,
        "only {servers_used} servers executed ifuncs"
    );
    // Each server JIT-compiled the chaser at most once (propagated code is
    // cached on every hop).
    for r in 1..=8 {
        assert!(exp.sim().transport().node(r).stats.jit_compilations <= 2);
    }
}

#[test]
fn binary_ifuncs_work_on_homogeneous_platform_and_match_bitcode_results() {
    let config = ChaseConfig {
        servers: 4,
        shard_size: 64,
        depth: 64,
        chases: 1,
        seed: 9,
    };
    let mut exp = DapcExperiment::new(Platform::thor_xeon(), &config);
    let (bin_value, _) = exp.run_one_chase(ChaseMode::CachedBinary, 5, 64);
    let (bc_value, _) = exp.run_one_chase(ChaseMode::CachedBitcode, 5, 64);
    assert_eq!(bin_value, bc_value);
}

#[test]
fn chainlang_ifunc_interoperates_with_builder_ifunc_on_heterogeneous_cluster() {
    let config = ChaseConfig {
        servers: 4,
        shard_size: 64,
        depth: 96,
        chases: 1,
        seed: 21,
    };
    let mut exp = DapcExperiment::new(Platform::thor_bf2(), &config);
    let (jl, _) = exp.run_one_chase(ChaseMode::CachedBitcodeChainlang, 7, 96);
    let (c, _) = exp.run_one_chase(ChaseMode::CachedBitcode, 7, 96);
    assert_eq!(jl, c, "Chainlang and builder chasers must agree");
}

#[test]
fn gbpc_reads_exactly_depth_entries_over_the_fabric() {
    let platform = Platform::thor_xeon();
    let mut sim = ClusterBuilder::new()
        .platform(platform)
        .servers(2)
        .build_sim();
    let table = PointerTable::generate(2, 32, 4);
    table.install_cluster(&mut sim).unwrap();
    let depth = 10u64;
    let mut idx = 0u64;
    for _ in 0..depth {
        let owner = table.owner_rank(idx);
        let get = sim.get(owner, table.entry_addr(idx), 8).unwrap();
        let data = sim.wait(&get).unwrap();
        idx = u64::from_le_bytes(data[..8].try_into().unwrap());
    }
    assert_eq!(idx, table.chase(0, depth));
    let served: u64 = (1..=2).map(|r| sim.stats(r).unwrap().gets_served).sum();
    assert_eq!(served, depth);
}

#[test]
fn ifunc_can_write_remote_memory_and_payload_roundtrips() {
    // An ifunc that copies its payload into the target region, byte-reversed,
    // built with the builder API and shipped to an A64FX server.
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};
    let mut mb = ModuleBuilder::new("reverse_copy");
    {
        let mut f = mb.entry_function();
        let payload = f.param(0);
        let len = f.param(1);
        let target = f.param(2);
        let one = f.const_u64(1);
        let i = f.const_u64(0);
        let header = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.br(header);
        f.switch_to(header);
        let cond = f.cmp(BinOp::CmpLt, ScalarType::U64, i, len);
        f.br_if(cond, body, done);
        f.switch_to(body);
        let src_addr = f.bin(BinOp::Add, ScalarType::U64, payload, i);
        let v = f.load(ScalarType::U8, src_addr, 0);
        let last = f.sub_i64(len, one);
        let rev = f.sub_i64(last, i);
        let dst_addr = f.bin(BinOp::Add, ScalarType::U64, target, rev);
        f.store(ScalarType::U8, v, dst_addr, 0);
        let ni = f.bin(BinOp::Add, ScalarType::U64, i, one);
        f.assign(i, ni);
        f.br(header);
        f.switch_to(done);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    let platform = Platform::ookami();
    let lib = build_ifunc_library(&mb.build(), &platform_toolchain(&platform)).unwrap();
    let mut sim = ClusterBuilder::new().platform(platform).build_sim();
    let handle = sim.register_ifunc(lib);
    let msg = sim.bitcode_message(handle, b"bitcode!".to_vec()).unwrap();
    sim.send_ifunc(&msg, 1).unwrap();
    sim.run_until_idle(100_000).unwrap();
    let out = sim.read_memory(1, TARGET_REGION_BASE, 8).unwrap();
    assert_eq!(&out, b"!edoctib");
    assert!(sim
        .transport()
        .timings()
        .last_of_kind(OutcomeKind::IfuncExecutedFirstArrival)
        .is_some());
}

#[test]
fn toolchain_options_match_paper_deployment_sizes() {
    // With exactly the client+server triples (as the paper's two-ISA TSI
    // archive), the uncached frame is kilobytes and the cached frame tens of
    // bytes — the 26 B / 5185 B split of Section V-A.
    let platform = Platform::thor_bf2();
    let lib =
        build_ifunc_library(&tc_workloads::tsi_module(), &platform_toolchain(&platform)).unwrap();
    let fat = tc_bitir::FatBitcode::decode(&lib.fat_bitcode_bytes).unwrap();
    assert_eq!(fat.triples().len(), 2);
    assert!((3_000..12_000).contains(&lib.fat_bitcode_bytes.len()));

    let opts = ToolchainOptions::default();
    assert!(opts.targets.len() >= 4, "default toolchain is multi-target");
}

#[test]
fn dapc_payload_layout_is_stable() {
    let p = chaser_payload::encode(1, 2, 3, 4, 5, 6);
    assert_eq!(p.len(), chaser_payload::SIZE);
    assert_eq!(chaser_payload::decode(&p).unwrap(), [1, 2, 3, 4, 5, 6]);
    assert_eq!(DATA_REGION_BASE, 0x4000_0000);
}
