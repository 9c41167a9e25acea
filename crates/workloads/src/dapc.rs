//! Distributed Adaptive Pointer Chasing (DAPC) and the Get-Based Pointer
//! Chasing (GBPC) baseline — the workloads behind Figures 5–12.

use crate::kernels::{chaser_module, chaser_module_chainlang, chaser_payload};
use crate::pointer_table::PointerTable;
use crate::tsi::platform_toolchain;
use std::sync::Arc;
use tc_core::layout::DATA_REGION_BASE;
use tc_core::{build_ifunc_library, Cluster, ClusterBuilder, NativeAmHandler, SimTransport};
use tc_jit::MemoryExt;
use tc_simnet::Platform;
use tc_ucx::WorkerAddr;

/// Execution mode of a pointer chase, matching the series of the paper's
/// figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseMode {
    /// Predeployed Active-Message handlers hop between servers.
    ActiveMessage,
    /// Client-driven RDMA GETs (the GBPC baseline).
    Get,
    /// Cached bitcode ifuncs hop between servers (built with the builder API,
    /// the paper's "C" implementation).
    CachedBitcode,
    /// Cached binary ifuncs (only meaningful when client and servers share an
    /// ISA, or when the client cross-builds for the server ISA).
    CachedBinary,
    /// Cached bitcode ifuncs generated by the Chainlang front-end (the
    /// paper's Julia implementation).
    CachedBitcodeChainlang,
}

impl ChaseMode {
    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ChaseMode::ActiveMessage => "Active Message",
            ChaseMode::Get => "Get",
            ChaseMode::CachedBitcode => "Cached Bitcode",
            ChaseMode::CachedBinary => "Cached Binary",
            ChaseMode::CachedBitcodeChainlang => "Cached Bitcode (Chainlang)",
        }
    }
}

/// Result of one DAPC/GBPC measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaseResult {
    /// Mode measured.
    pub mode: ChaseMode,
    /// Chase depth.
    pub depth: u64,
    /// Number of servers.
    pub servers: usize,
    /// Completed chases per second of virtual time.
    pub chases_per_second: f64,
    /// Average end-to-end time of one chase in microseconds.
    pub chase_latency_us: f64,
}

/// Configuration of a DAPC measurement.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Number of servers.
    pub servers: usize,
    /// Entries per server shard.
    pub shard_size: usize,
    /// Chase depth.
    pub depth: u64,
    /// Number of chases to run (averaged).
    pub chases: usize,
    /// RNG seed for the pointer table.
    pub seed: u64,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            servers: 4,
            shard_size: 256,
            depth: 64,
            chases: 4,
            seed: 0xDA9C,
        }
    }
}

/// The Active-Message implementation of one chase step: predeployed native
/// code that performs local lookups and hops to the owning server, returning
/// the final value through the X-RDMA result mailbox (the logic mirrors the
/// chaser ifunc exactly, it just never ships code).
pub fn dapc_am_handler() -> NativeAmHandler {
    Arc::new(|ctx, payload| {
        let Some([client, slot, mut idx, mut depth, base, shard]) = chaser_payload::decode(payload)
        else {
            return 1;
        };
        let me = u64::from(ctx.node_id);
        let mut cycles = 40u64;
        loop {
            // Shard s lives on rank base + s (base = first server rank).
            let owner = idx / shard + base;
            if owner != me {
                let payload = chaser_payload::encode(client, slot, idx, depth, base, shard);
                ctx.send_am("dapc_chase", WorkerAddr(owner as u32), payload);
                return cycles;
            }
            let addr = DATA_REGION_BASE + (idx % shard) * 8;
            let next = ctx.memory.read_u64(addr).unwrap_or(0);
            cycles += 30;
            depth -= 1;
            idx = next;
            if depth == 0 {
                ctx.return_result(WorkerAddr(client as u32), slot, idx);
                return cycles;
            }
        }
    })
}

/// A prepared DAPC experiment: a simulated cluster with the pointer table
/// installed and every mode's code path registered/predeployed.
pub struct DapcExperiment {
    sim: Cluster<SimTransport>,
    table: PointerTable,
    bitcode_handle: tc_core::IfuncHandle,
    chainlang_handle: tc_core::IfuncHandle,
    binary_handle: tc_core::IfuncHandle,
}

impl DapcExperiment {
    /// Set up the experiment on a platform.
    pub fn new(platform: Platform, config: &ChaseConfig) -> Self {
        let mut sim = ClusterBuilder::new()
            .platform(platform)
            .servers(config.servers)
            .build_sim();
        let table = PointerTable::generate(config.servers, config.shard_size, config.seed);
        table
            .install_cluster(&mut sim)
            .expect("shard images fit the data region");

        let toolchain = platform_toolchain(&platform);
        let bitcode_lib = build_ifunc_library(&chaser_module("dapc_chaser"), &toolchain)
            .expect("chaser library builds");
        let chainlang_lib =
            build_ifunc_library(&chaser_module_chainlang("dapc_chaser_jl"), &toolchain)
                .expect("chainlang chaser library builds");
        let binary_lib = build_ifunc_library(&chaser_module("dapc_chaser_bin"), &toolchain)
            .expect("binary chaser library builds");

        let bitcode_handle = sim.register_ifunc(bitcode_lib);
        let chainlang_handle = sim.register_ifunc(chainlang_lib);
        let binary_handle = sim.register_ifunc(binary_lib);
        sim.deploy_am("dapc_chase", dapc_am_handler())
            .expect("AM deploys");

        DapcExperiment {
            sim,
            table,
            bitcode_handle,
            chainlang_handle,
            binary_handle,
        }
    }

    /// Access the underlying pointer table (ground truth).
    pub fn table(&self) -> &PointerTable {
        &self.table
    }

    /// Access the simulation (e.g. for statistics inspection).
    pub fn sim(&self) -> &Cluster<SimTransport> {
        &self.sim
    }

    fn payload(&mut self, start: u64, depth: u64) -> (u64, Vec<u8>) {
        // Slots come from the cluster's allocator so they can never collide
        // with reserved/manual slots (see `Cluster::reserve_result_slot`).
        let slot = self.sim.result_slot().slot();
        let base = self.sim.first_server_rank() as u64;
        let payload =
            chaser_payload::encode(0, slot, start, depth, base, self.table.shard_size as u64);
        (slot, payload)
    }

    /// Run one chase in the given mode, returning `(result, elapsed_us)`.
    /// The result value is checked against the pointer table's ground truth.
    pub fn run_one_chase(&mut self, mode: ChaseMode, start: u64, depth: u64) -> (u64, f64) {
        let expected = self.table.chase(start, depth);
        let t0 = self.sim.transport().now();
        let value = match mode {
            ChaseMode::Get => {
                // Client-driven iterative GETs over the typed completion
                // plane: each hop waits on its own claimable handle.
                let mut idx = start;
                for _ in 0..depth {
                    let owner = self.table.owner_rank(idx);
                    let addr = self.table.entry_addr(idx);
                    let handle = self.sim.get(owner, addr, 8).expect("simulated GETs post");
                    let data = self.sim.wait(&handle).expect("GET did not complete");
                    idx = u64::from_le_bytes(data[..8].try_into().unwrap());
                }
                idx
            }
            ChaseMode::ActiveMessage => {
                let (slot, payload) = self.payload(start, depth);
                let owner = self.table.owner_rank(start);
                self.sim
                    .send_am("dapc_chase", owner, payload)
                    .expect("AM send");
                self.wait_for_result(slot)
            }
            ChaseMode::CachedBitcode
            | ChaseMode::CachedBitcodeChainlang
            | ChaseMode::CachedBinary => {
                let handle = match mode {
                    ChaseMode::CachedBitcode => self.bitcode_handle,
                    ChaseMode::CachedBitcodeChainlang => self.chainlang_handle,
                    _ => self.binary_handle,
                };
                let (slot, payload) = self.payload(start, depth);
                let owner = self.table.owner_rank(start);
                let msg = if mode == ChaseMode::CachedBinary {
                    let triple = self.sim.transport().platform().server_triple.to_string();
                    self.sim
                        .binary_message(handle, &triple, payload)
                        .expect("binary message")
                } else {
                    self.sim
                        .bitcode_message(handle, payload)
                        .expect("bitcode message")
                };
                self.sim.send_ifunc(&msg, owner).expect("ifunc send");
                self.wait_for_result(slot)
            }
        };
        assert_eq!(
            value,
            expected,
            "{} chase of depth {depth} from {start} returned the wrong value",
            mode.label()
        );
        let elapsed_us = (self.sim.transport().now() - t0).as_micros_f64();
        (value, elapsed_us)
    }

    /// The chase's result, from mailbox `slot`.  A result that never
    /// arrives fails loudly: the mailbox slot may be a reused one, so reading
    /// it instead could return an earlier chase's value.
    fn wait_for_result(&mut self, slot: u64) -> u64 {
        let handle = tc_core::ResultHandle::for_slot(slot);
        match self.sim.wait(&handle) {
            Ok(value) => value,
            Err(e) => panic!("chase result for slot {slot} never arrived: {e}"),
        }
    }

    /// Warm every server's code cache for the ifunc modes by running one
    /// short chase per server — the "cached" series of the paper measure
    /// steady state, after the one-time JIT/transfer cost has been paid.
    fn warm_caches(&mut self, mode: ChaseMode) {
        if matches!(mode, ChaseMode::Get | ChaseMode::ActiveMessage) {
            return;
        }
        for server in 0..self.table.num_servers {
            let start = (server * self.table.shard_size) as u64;
            let _ = self.run_one_chase(mode, start, 1);
        }
    }

    /// Measure one mode at one depth: `chases` sequential chases starting at
    /// deterministic offsets.
    pub fn measure(&mut self, mode: ChaseMode, depth: u64, chases: usize) -> ChaseResult {
        self.warm_caches(mode);
        let total_entries = self.table.total_entries() as u64;
        let t0 = self.sim.transport().now();
        for i in 0..chases {
            let start = (i as u64 * 7919) % total_entries;
            let _ = self.run_one_chase(mode, start, depth);
        }
        let elapsed = (self.sim.transport().now() - t0).as_secs_f64();
        let per_chase_us = elapsed * 1.0e6 / chases as f64;
        ChaseResult {
            mode,
            depth,
            servers: self.table.num_servers,
            chases_per_second: chases as f64 / elapsed,
            chase_latency_us: per_chase_us,
        }
    }
}

/// One point of a depth-sweep figure: every mode measured at one depth.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Chase depth (x axis).
    pub depth: u64,
    /// Per-mode results.
    pub results: Vec<ChaseResult>,
}

impl SweepPoint {
    /// Result for a given mode, if it was measured.
    pub fn rate(&self, mode: ChaseMode) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.mode == mode)
            .map(|r| r.chases_per_second)
    }

    /// The "Get − Bitcode % Diff" series of the figures: how much faster the
    /// cached-bitcode DAPC is than the GET baseline at this point.
    pub fn get_vs_bitcode_pct(&self) -> Option<f64> {
        let get = self.rate(ChaseMode::Get)?;
        let bitcode = self.rate(ChaseMode::CachedBitcode)?;
        Some((bitcode / get - 1.0) * 100.0)
    }
}

/// Run a depth sweep (Figures 5–8): for each depth, measure each mode on a
/// fresh experiment (fresh virtual clock) over the same pointer table seed.
pub fn depth_sweep(
    platform: Platform,
    servers: usize,
    shard_size: usize,
    depths: &[u64],
    modes: &[ChaseMode],
    chases: usize,
) -> Vec<SweepPoint> {
    depths
        .iter()
        .map(|&depth| {
            let config = ChaseConfig {
                servers,
                shard_size,
                depth,
                chases,
                ..Default::default()
            };
            let mut exp = DapcExperiment::new(platform, &config);
            let results = modes
                .iter()
                .map(|&mode| exp.measure(mode, depth, chases))
                .collect();
            SweepPoint { depth, results }
        })
        .collect()
}

/// Run a server-count scaling sweep at fixed depth (Figures 9–12).
pub fn scaling_sweep(
    platform: Platform,
    server_counts: &[usize],
    shard_size: usize,
    depth: u64,
    modes: &[ChaseMode],
    chases: usize,
) -> Vec<(usize, SweepPoint)> {
    server_counts
        .iter()
        .map(|&servers| {
            let config = ChaseConfig {
                servers,
                shard_size,
                depth,
                chases,
                ..Default::default()
            };
            let mut exp = DapcExperiment::new(platform, &config);
            let results = modes
                .iter()
                .map(|&mode| exp.measure(mode, depth, chases))
                .collect();
            (servers, SweepPoint { depth, results })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ChaseConfig {
        ChaseConfig {
            servers: 4,
            shard_size: 64,
            depth: 32,
            chases: 2,
            seed: 11,
        }
    }

    #[test]
    fn all_modes_return_correct_results() {
        let mut exp = DapcExperiment::new(Platform::thor_xeon(), &small_config());
        for mode in [
            ChaseMode::Get,
            ChaseMode::ActiveMessage,
            ChaseMode::CachedBitcode,
            ChaseMode::CachedBinary,
            ChaseMode::CachedBitcodeChainlang,
        ] {
            // run_one_chase asserts the value against the table ground truth.
            let (_value, elapsed) = exp.run_one_chase(mode, 3, 16);
            assert!(elapsed > 0.0, "{mode:?} took no time");
        }
    }

    #[test]
    fn dapc_beats_gbpc_and_am_is_close() {
        let mut exp = DapcExperiment::new(Platform::thor_xeon(), &small_config());
        let get = exp.measure(ChaseMode::Get, 64, 2);
        let bitcode = exp.measure(ChaseMode::CachedBitcode, 64, 2);
        let am = exp.measure(ChaseMode::ActiveMessage, 64, 2);
        assert!(
            bitcode.chases_per_second > get.chases_per_second,
            "DAPC ({}) must beat GBPC ({})",
            bitcode.chases_per_second,
            get.chases_per_second
        );
        // AM and cached bitcode are within ~15% of each other.
        let ratio = am.chases_per_second / bitcode.chases_per_second;
        assert!(ratio > 0.85 && ratio < 1.25, "AM/bitcode ratio {ratio}");
    }

    #[test]
    fn chase_rate_decreases_with_depth() {
        let points = depth_sweep(
            Platform::thor_bf2(),
            4,
            64,
            &[4, 64],
            &[ChaseMode::CachedBitcode],
            2,
        );
        let shallow = points[0].rate(ChaseMode::CachedBitcode).unwrap();
        let deep = points[1].rate(ChaseMode::CachedBitcode).unwrap();
        assert!(shallow > 4.0 * deep, "shallow {shallow} vs deep {deep}");
    }

    #[test]
    fn gbpc_is_flat_across_server_counts_but_dapc_declines() {
        let sweep = scaling_sweep(
            Platform::thor_xeon(),
            &[2, 8],
            64,
            128,
            &[ChaseMode::Get, ChaseMode::CachedBitcode],
            2,
        );
        let get_2 = sweep[0].1.rate(ChaseMode::Get).unwrap();
        let get_8 = sweep[1].1.rate(ChaseMode::Get).unwrap();
        let dapc_2 = sweep[0].1.rate(ChaseMode::CachedBitcode).unwrap();
        let dapc_8 = sweep[1].1.rate(ChaseMode::CachedBitcode).unwrap();
        // GET is within ~10% regardless of server count.
        assert!((get_2 / get_8 - 1.0).abs() < 0.15, "get {get_2} vs {get_8}");
        // DAPC loses throughput as the remote fraction grows.
        assert!(dapc_2 > dapc_8, "dapc {dapc_2} vs {dapc_8}");
    }
}
