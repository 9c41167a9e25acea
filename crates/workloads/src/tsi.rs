//! The Target-Side Increment (TSI) microbenchmark: overhead breakdown,
//! latency and message rate — the data behind Tables I–VI.

use crate::kernels::tsi_module;
use std::sync::Arc;
use tc_bitir::TargetTriple;
use tc_core::layout::TARGET_REGION_BASE;
use tc_core::{
    build_ifunc_library, ClusterBuilder, NativeAmHandler, OutcomeKind, ToolchainOptions,
};
use tc_jit::MemoryExt;
use tc_simnet::{FabricOp, Platform};

/// Per-mode timing breakdown (one column of Tables I–III).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TsiBreakdown {
    /// Lookup + execution time on the target, in microseconds.
    pub lookup_exec_us: f64,
    /// One-time JIT compilation time in milliseconds (bitcode first arrival
    /// only; reported separately and not added to the total, as in the paper).
    pub jit_ms: Option<f64>,
    /// Transmission time in microseconds.
    pub transmission_us: f64,
    /// Total (transmission + lookup + exec) in microseconds.
    pub total_us: f64,
    /// Message size on the wire in bytes.
    pub message_bytes: usize,
}

/// Per-mode latency and message rate (one row pair of Tables IV–VI).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TsiRate {
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Sustained message rate in messages/second.
    pub message_rate: f64,
}

/// The complete TSI result set for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct TsiResults {
    /// Platform name.
    pub platform: String,
    /// Active-Message baseline breakdown.
    pub active_message: TsiBreakdown,
    /// Uncached (first-arrival) bitcode ifunc breakdown.
    pub uncached_bitcode: TsiBreakdown,
    /// Cached bitcode ifunc breakdown.
    pub cached_bitcode: TsiBreakdown,
    /// Active-Message latency and rate.
    pub am_rate: TsiRate,
    /// Uncached-bitcode latency and rate.
    pub uncached_rate: TsiRate,
    /// Cached-bitcode latency and rate.
    pub cached_rate: TsiRate,
}

impl TsiResults {
    /// Latency "speedup" of cached bitcode over Active Messages, as the paper
    /// reports it (positive = AM slower).
    pub fn am_vs_cached_latency_pct(&self) -> f64 {
        (self.am_rate.latency_us / self.cached_rate.latency_us - 1.0) * 100.0
    }

    /// Latency overhead of uncached vs cached bitcode in percent.
    pub fn uncached_vs_cached_latency_pct(&self) -> f64 {
        (self.uncached_rate.latency_us / self.cached_rate.latency_us - 1.0) * 100.0
    }

    /// Message-rate improvement of cached bitcode over Active Messages in
    /// percent.
    pub fn cached_vs_am_rate_pct(&self) -> f64 {
        (self.cached_rate.message_rate / self.am_rate.message_rate - 1.0) * 100.0
    }

    /// Message-rate improvement of cached over uncached bitcode in percent.
    pub fn cached_vs_uncached_rate_pct(&self) -> f64 {
        (self.cached_rate.message_rate / self.uncached_rate.message_rate - 1.0) * 100.0
    }
}

/// The TSI Active-Message handler: predeployed native code that increments
/// the target counter by the payload's first byte.
pub fn tsi_am_handler() -> NativeAmHandler {
    Arc::new(|ctx, payload| {
        let delta = u64::from(payload.first().copied().unwrap_or(0));
        let old = ctx.memory.read_u64(TARGET_REGION_BASE).unwrap_or(0);
        let _ = ctx
            .memory
            .write_u64(TARGET_REGION_BASE, old.wrapping_add(delta));
        // The increment itself is a handful of instructions.
        24
    })
}

/// Toolchain options matching the paper's deployment: the fat-bitcode archive
/// covers one x86-64 and one AArch64 entry (the paper's TSI archive "supports
/// both x86_64 and AArch64 processors" and is ~5 KiB), using the platform's
/// own triples where they apply.
pub fn platform_toolchain(platform: &Platform) -> ToolchainOptions {
    let client = TargetTriple::parse(platform.client_triple).expect("client triple");
    let server = TargetTriple::parse(platform.server_triple).expect("server triple");
    let mut targets = vec![client];
    if !targets.contains(&server) {
        targets.push(server);
    }
    // Mirror the paper's two-ISA archive even on homogeneous platforms.
    if !targets.iter().any(|t| t.isa == tc_bitir::Isa::X86_64) {
        targets.push(TargetTriple::X86_64_GENERIC);
    }
    if !targets.iter().any(|t| t.isa == tc_bitir::Isa::Aarch64) {
        targets.push(TargetTriple::AARCH64_GENERIC);
    }
    ToolchainOptions {
        targets,
        ..Default::default()
    }
}

/// Run the full TSI characterisation for a platform: overhead breakdown
/// (Tables I–III) plus latency and message rate (Tables IV–VI).
///
/// `rate_messages` controls how many back-to-back messages the rate phase
/// sends (the paper saturates the link; a few hundred is enough for the
/// steady-state rate to emerge in the model).
pub fn run_tsi(platform: Platform, rate_messages: usize) -> TsiResults {
    let mut sim = ClusterBuilder::new().platform(platform).build_sim();
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform))
        .expect("TSI library builds");
    let handle = sim.register_ifunc(library);
    sim.deploy_am("tsi_am", tsi_am_handler())
        .expect("AM deploys");

    let msg = sim.bitcode_message(handle, vec![1]).expect("message");

    // --- Active Message breakdown -------------------------------------------
    let am_bytes = sim.send_am("tsi_am", 1, vec![1]).expect("am send");
    sim.run_until_idle(1_000).expect("sim steps");
    let am_rec = *sim
        .transport()
        .timings()
        .last_of_kind(OutcomeKind::AmExecuted)
        .expect("AM record");

    // --- Uncached bitcode (first arrival, includes JIT) ----------------------
    let uncached_bytes = sim.send_ifunc(&msg, 1).expect("ifunc send");
    sim.run_until_idle(1_000).expect("sim steps");
    let uncached_rec = *sim
        .transport()
        .timings()
        .last_of_kind(OutcomeKind::IfuncExecutedFirstArrival)
        .expect("uncached record");

    // --- Cached bitcode -------------------------------------------------------
    let cached_bytes = sim.send_ifunc(&msg, 1).expect("ifunc send");
    sim.run_until_idle(1_000).expect("sim steps");
    let cached_rec = *sim
        .transport()
        .timings()
        .last_of_kind(OutcomeKind::IfuncExecutedCached)
        .expect("cached record");

    let breakdown = |rec: &tc_core::DeliveryRecord, bytes: usize, with_jit: bool| TsiBreakdown {
        lookup_exec_us: (rec.lookup + rec.exec).as_micros_f64(),
        jit_ms: if with_jit {
            Some(rec.jit.as_millis_f64())
        } else {
            None
        },
        transmission_us: rec.transmission.as_micros_f64(),
        // As in the paper, the one-time JIT cost is reported separately and
        // excluded from the per-message total.
        total_us: (rec.transmission + rec.lookup + rec.exec).as_micros_f64(),
        message_bytes: bytes,
    };

    let active_message = breakdown(&am_rec, am_bytes, false);
    let uncached_bitcode = breakdown(&uncached_rec, uncached_bytes, true);
    let cached_bitcode = breakdown(&cached_rec, cached_bytes, false);

    // --- Message rates --------------------------------------------------------
    // Rates are injection-gap bound; measure by sending a burst and dividing.
    let fabric = platform.fabric;
    let am_gap = fabric.injection_gap(FabricOp::ActiveMessage, am_bytes);
    let cached_gap = fabric.injection_gap(FabricOp::Put, cached_bytes);
    let uncached_gap = fabric.injection_gap(FabricOp::Put, uncached_bytes);
    let _ = rate_messages; // burst length is immaterial to the steady-state gap model
    let rate = |gap: tc_simnet::SimDuration| 1.0e9 / gap.as_nanos() as f64;

    let am_rate = TsiRate {
        latency_us: active_message.total_us,
        message_rate: rate(am_gap),
    };
    let cached_rate = TsiRate {
        latency_us: cached_bitcode.total_us,
        message_rate: rate(cached_gap),
    };
    let uncached_rate = TsiRate {
        latency_us: uncached_bitcode.total_us,
        message_rate: rate(uncached_gap),
    };

    TsiResults {
        platform: platform.name.to_string(),
        active_message,
        uncached_bitcode,
        cached_bitcode,
        am_rate,
        uncached_rate,
        cached_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thor_xeon_breakdown_matches_table_three_shape() {
        let r = run_tsi(Platform::thor_xeon(), 100);
        // JIT is a sub-millisecond-to-millisecond one-time cost on the Xeon.
        let jit = r.uncached_bitcode.jit_ms.unwrap();
        assert!(jit > 0.4 && jit < 1.6, "jit {jit} ms");
        // Cached total ≈ 1.5 µs, uncached total ≈ 3.6 µs (paper: 1.53 / 3.59).
        assert!(
            (r.cached_bitcode.total_us - 1.53).abs() < 0.4,
            "{:?}",
            r.cached_bitcode
        );
        assert!(r.uncached_bitcode.total_us > 2.0 * r.cached_bitcode.total_us * 0.8);
        // Cached bitcode message rate beats AM (Table VI: 7.30 vs 6.75 M/s).
        assert!(r.cached_rate.message_rate > r.am_rate.message_rate);
        assert!(r.cached_vs_uncached_rate_pct() > 100.0);
    }

    #[test]
    fn ookami_uncached_roughly_doubles_latency() {
        let r = run_tsi(Platform::ookami(), 50);
        // Paper: uncached 91% slower than cached on Ookami.
        let pct = r.uncached_vs_cached_latency_pct();
        assert!(pct > 40.0 && pct < 200.0, "uncached vs cached {pct}%");
        // AM latency is slightly better than cached bitcode on Ookami.
        assert!(r.active_message.total_us <= r.cached_bitcode.total_us * 1.1);
        // JIT on the A64FX is multiple milliseconds.
        assert!(r.uncached_bitcode.jit_ms.unwrap() > 3.0);
    }

    #[test]
    fn bf2_dpu_jit_slower_than_xeon() {
        let bf2 = run_tsi(Platform::thor_bf2(), 50);
        let xeon = run_tsi(Platform::thor_xeon(), 50);
        assert!(bf2.uncached_bitcode.jit_ms.unwrap() > 2.0 * xeon.uncached_bitcode.jit_ms.unwrap());
    }

    #[test]
    fn cached_message_is_paper_scale() {
        let r = run_tsi(Platform::thor_bf2(), 10);
        assert!(r.cached_bitcode.message_bytes < 64);
        assert!(r.uncached_bitcode.message_bytes > 3_000);
    }

    /// The caching ablation: after the same warm-up, 50 sends through the
    /// sender-side cache against 50 frames that carry the code every time
    /// (what a sender without the cache would post).
    #[test]
    fn cached_sends_finish_earlier_and_carry_fewer_bytes_than_full_frames() {
        use tc_core::cluster::ClientId;
        use tc_ucx::{Bytes, UcpOp, WorkerAddr};

        let platform = Platform::thor_xeon();
        let run = |cached: bool| {
            let mut sim = ClusterBuilder::new().platform(platform).build_sim();
            let lib = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform)).unwrap();
            let handle = sim.register_ifunc(lib);
            let msg = sim.bitcode_message(handle, vec![1]).unwrap();
            sim.send_ifunc(&msg, 1).unwrap();
            sim.run_until_idle(10_000).unwrap();
            let (start, warm) = (
                sim.transport().now().as_nanos(),
                sim.transport().timings().records.len(),
            );
            for _ in 0..50 {
                if cached {
                    sim.send_ifunc(&msg, 1).unwrap();
                } else {
                    let (bytes, code) = (msg.frame.encode_full(), Bytes::new());
                    sim.on(ClientId::PRIMARY)
                        .unwrap()
                        .runtime()
                        .worker
                        .post(WorkerAddr(1), UcpOp::IfuncFrame { bytes, code });
                    sim.flush().unwrap();
                }
            }
            sim.run_until_idle(100_000).unwrap();
            assert_eq!(sim.read_u64(1, TARGET_REGION_BASE).unwrap(), 51);
            // What the fabric carried, not the sender's own accounting: a
            // hand-posted frame bypasses `RuntimeStats::bytes_sent`.
            let carried: usize = sim.transport().timings().records[warm..]
                .iter()
                .map(|r| r.wire_bytes)
                .sum();
            (sim.transport().now().as_nanos() - start, carried)
        };
        let (cached_ns, cached_bytes) = run(true);
        let (full_ns, full_bytes) = run(false);
        assert!(cached_ns < full_ns, "{cached_ns} ns vs {full_ns} ns");
        assert!(
            cached_bytes < full_bytes,
            "{cached_bytes} B vs {full_bytes} B"
        );
    }
}
