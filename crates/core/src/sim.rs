//! Timing records of the simulated backend.
//!
//! The discrete-event engine itself lives in
//! [`crate::cluster::SimTransport`] (build one with
//! [`ClusterBuilder::build_sim`](crate::cluster::ClusterBuilder::build_sim));
//! this module keeps [`DeliveryRecord`] / [`TimingLog`] — one record per
//! delivered-and-processed fabric operation, decomposed the way the paper
//! decomposes end-to-end latency (transmission / lookup / JIT / execution).

use crate::metrics::OutcomeKind;
use tc_simnet::{SimDuration, SimTime};

/// One record per delivered-and-processed fabric operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// Node that processed the operation.
    pub node: u32,
    /// Virtual time at which the operation arrived.
    pub arrival: SimTime,
    /// Virtual time at which processing finished.
    pub done: SimTime,
    /// What the processing was.
    pub kind: OutcomeKind,
    /// Bytes the operation put on the wire.
    pub wire_bytes: usize,
    /// Fabric latency charged for the operation.
    pub transmission: SimDuration,
    /// Lookup / dispatch overhead charged.
    pub lookup: SimDuration,
    /// JIT compilation time charged (zero unless this was a first arrival of
    /// a bitcode ifunc).
    pub jit: SimDuration,
    /// Binary-load time charged (zero unless this was a first arrival of a
    /// binary ifunc).
    pub binary_load: SimDuration,
    /// Execution time charged for the kernel itself.
    pub exec: SimDuration,
}

impl DeliveryRecord {
    /// Total target-side processing time (lookup + JIT + load + exec).
    pub fn processing(&self) -> SimDuration {
        self.lookup + self.jit + self.binary_load + self.exec
    }

    /// End-to-end time for this operation (transmission + processing).
    pub fn end_to_end(&self) -> SimDuration {
        self.transmission + self.processing()
    }
}

/// The accumulated log of all deliveries in a simulation.
#[derive(Debug, Default, Clone)]
pub struct TimingLog {
    /// Records in processing order.
    pub records: Vec<DeliveryRecord>,
}

impl TimingLog {
    /// The most recent record of a given outcome kind.
    pub fn last_of_kind(&self, kind: OutcomeKind) -> Option<&DeliveryRecord> {
        self.records.iter().rev().find(|r| r.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterBuilder, SimTransport};
    use crate::ifunc::{build_ifunc_library, IfuncHandle, ToolchainOptions};
    use crate::layout::TARGET_REGION_BASE;
    use crate::runtime::NativeAmHandler;
    use std::sync::Arc;
    use tc_bitir::{BinOp, Module, ModuleBuilder, ScalarType};
    use tc_jit::MemoryExt;
    use tc_simnet::Platform;

    fn tsi_module() -> Module {
        let mut mb = ModuleBuilder::new("tsi");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let delta = f.load(ScalarType::U8, payload, 0);
            let counter = f.load(ScalarType::U64, target, 0);
            let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
            f.store(ScalarType::U64, sum, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    fn sim_with_tsi(platform: Platform, servers: usize) -> (Cluster<SimTransport>, IfuncHandle) {
        let mut sim = ClusterBuilder::new()
            .platform(platform)
            .servers(servers)
            .build_sim();
        let lib = build_ifunc_library(&tsi_module(), &ToolchainOptions::default()).unwrap();
        let handle = sim.register_ifunc(lib);
        (sim, handle)
    }

    #[test]
    fn uncached_then_cached_latency_shape_matches_paper() {
        let (mut sim, handle) = sim_with_tsi(Platform::thor_xeon(), 1);
        sim.write_u64(1, TARGET_REGION_BASE, 0).unwrap();
        let msg = sim.bitcode_message(handle, vec![1]).unwrap();

        // First (uncached) send: transmission of the full frame + JIT.
        sim.send_ifunc(&msg, 1).unwrap();
        sim.run_until_idle(1_000).unwrap();
        let first = *sim
            .transport()
            .timings()
            .last_of_kind(OutcomeKind::IfuncExecutedFirstArrival)
            .expect("first arrival record");
        assert!(first.jit.as_millis_f64() > 0.3, "JIT time {:?}", first.jit);
        assert!(first.transmission.as_micros_f64() > 2.0);

        // Second (cached) send: truncated frame, no JIT, µs-scale end-to-end.
        sim.send_ifunc(&msg, 1).unwrap();
        sim.run_until_idle(1_000).unwrap();
        let cached = *sim
            .transport()
            .timings()
            .last_of_kind(OutcomeKind::IfuncExecutedCached)
            .expect("cached record");
        assert_eq!(cached.jit, SimDuration::ZERO);
        assert!(cached.transmission < first.transmission);
        assert!(cached.end_to_end().as_micros_f64() < 3.0);
        // Both sends actually incremented the counter.
        assert_eq!(sim.read_u64(1, TARGET_REGION_BASE).unwrap(), 2);
    }

    #[test]
    fn injection_gap_bounds_message_rate() {
        let (mut sim, handle) = sim_with_tsi(Platform::thor_xeon(), 1);
        let msg = sim.bitcode_message(handle, vec![1]).unwrap();
        // Prime the cache.
        sim.send_ifunc(&msg, 1).unwrap();
        sim.run_until_idle(1_000).unwrap();
        let start = sim.transport().now();

        let n = 200usize;
        for _ in 0..n {
            sim.send_ifunc(&msg, 1).unwrap();
        }
        sim.run_until_idle(100_000).unwrap();
        let elapsed = (sim.transport().now() - start).as_secs_f64();
        let rate = n as f64 / elapsed;
        // Thor Xeon cached-bitcode rate is ~7.3 M msg/s in the paper; the
        // pipelined rate here must land in the right order of magnitude
        // (latency would only allow ~0.65 M/s, so this also checks that the
        // gap — not the latency — is what bounds throughput).
        assert!(rate > 2.0e6, "rate {rate}");
        assert!(rate < 20.0e6, "rate {rate}");
    }

    #[test]
    fn am_baseline_runs_through_the_simulator() {
        let (mut sim, _handle) = sim_with_tsi(Platform::thor_bf2(), 2);
        let handler: NativeAmHandler = Arc::new(|ctx, payload| {
            let delta = u64::from(payload.first().copied().unwrap_or(0));
            let old = ctx.memory.read_u64(TARGET_REGION_BASE).unwrap_or(0);
            let _ = ctx.memory.write_u64(TARGET_REGION_BASE, old + delta);
            25
        });
        sim.deploy_am("tsi_am", handler).unwrap();
        sim.send_am("tsi_am", 2, vec![9]).unwrap();
        sim.run_until_idle(100).unwrap();
        assert_eq!(sim.read_u64(2, TARGET_REGION_BASE).unwrap(), 9);
        let timings = sim.transport().timings();
        let rec = timings.last_of_kind(OutcomeKind::AmExecuted).unwrap();
        assert!(rec.end_to_end().as_micros_f64() < 3.0);
        assert!(sim.transport().errors().is_empty());
    }

    #[test]
    fn get_roundtrip_latency_is_two_transfers() {
        let (mut sim, _handle) = sim_with_tsi(Platform::thor_xeon(), 1);
        sim.write_u64(1, crate::layout::DATA_REGION_BASE, 777)
            .unwrap();
        let start = sim.transport().now();
        let get = sim.get(1, crate::layout::DATA_REGION_BASE, 8).unwrap();
        let data = sim.wait(&get).unwrap();
        assert_eq!(data[..], 777u64.to_le_bytes());
        let rtt = (sim.transport().now() - start).as_micros_f64();
        // One GET + one reply over a ~1.5 µs fabric: 3–4 µs round trip.
        assert!(rtt > 2.5 && rtt < 6.0, "rtt {rtt}");
    }

    #[test]
    fn heterogeneous_platform_jit_is_slower_on_dpu() {
        let (mut sim_bf2, h1) = sim_with_tsi(Platform::thor_bf2(), 1);
        let msg = sim_bf2.bitcode_message(h1, vec![1]).unwrap();
        sim_bf2.send_ifunc(&msg, 1).unwrap();
        sim_bf2.run_until_idle(1_000).unwrap();
        let bf2_jit = sim_bf2
            .transport()
            .timings()
            .last_of_kind(OutcomeKind::IfuncExecutedFirstArrival)
            .unwrap()
            .jit;

        let (mut sim_xeon, h2) = sim_with_tsi(Platform::thor_xeon(), 1);
        let msg = sim_xeon.bitcode_message(h2, vec![1]).unwrap();
        sim_xeon.send_ifunc(&msg, 1).unwrap();
        sim_xeon.run_until_idle(1_000).unwrap();
        let xeon_jit = sim_xeon
            .transport()
            .timings()
            .last_of_kind(OutcomeKind::IfuncExecutedFirstArrival)
            .unwrap()
            .jit;

        assert!(
            bf2_jit.as_nanos() > 3 * xeon_jit.as_nanos(),
            "DPU JIT ({bf2_jit}) must be several times slower than Xeon JIT ({xeon_jit})"
        );
    }

    #[test]
    fn misaddressed_messages_are_dropped_without_panic() {
        let (mut sim, handle) = sim_with_tsi(Platform::ookami(), 1);
        let msg = sim.bitcode_message(handle, vec![1]).unwrap();
        sim.send_ifunc(&msg, 17).unwrap(); // no such rank
        sim.run_until_idle(100).unwrap();
        assert!(sim.transport().errors().is_empty());
        assert_eq!(sim.stats(1).unwrap().ifuncs_executed, 0);
        // The drop is visible in the transport metrics, not silent.
        assert_eq!(sim.metrics().messages_dropped, 1);
    }
}
