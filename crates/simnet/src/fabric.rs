//! The RDMA fabric model.
//!
//! The paper's evaluation runs over 100 Gb/s InfiniBand with RDMA PUT/GET and
//! UCX active messages.  The reproduction replaces the fabric with an
//! analytic model: a message of `n` bytes delivered by operation class `op`
//! experiences
//!
//! * an end-to-end **latency** `L(op, n) = base(op) + n · per_byte`, and
//! * a sender-side **injection gap** `G(op, n) = gap_base(op) + n · gap_per_byte`
//!   that bounds the achievable message rate when operations are pipelined
//!   (message rate ≈ 1 / G).
//!
//! The distinction matters because the paper reports both latency *and*
//! message rate, and the two are not reciprocal: pipelined small messages
//! achieve far higher rates than 1/latency.  Per-platform constants are
//! calibrated in [`crate::platform`].

use crate::time::SimDuration;

/// Class of fabric operation, used to select base overheads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricOp {
    /// One-sided RDMA PUT (used for ifunc message frames).
    Put,
    /// One-sided RDMA GET (used by the GBPC baseline).
    Get,
    /// Two-sided active message (used by the AM baseline).
    ActiveMessage,
}

/// Analytic fabric model for one platform's interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Base one-way latency of a PUT in nanoseconds.
    pub put_base_ns: f64,
    /// Base one-way latency of a GET (includes the response) in nanoseconds.
    pub get_base_ns: f64,
    /// Base one-way latency of an Active Message in nanoseconds.
    pub am_base_ns: f64,
    /// Marginal latency per payload byte in nanoseconds.
    pub per_byte_ns: f64,
    /// Base sender-side injection gap in nanoseconds (PUT/ifunc path).
    pub gap_base_ns: f64,
    /// Marginal injection gap per byte in nanoseconds.
    pub gap_per_byte_ns: f64,
    /// Extra injection gap for Active Messages (handler registration and
    /// two-sided matching overhead on the send path).
    pub am_gap_extra_ns: f64,
}

impl FabricProfile {
    /// End-to-end latency of an operation carrying `bytes` of data.
    pub fn latency(&self, op: FabricOp, bytes: usize) -> SimDuration {
        let base = match op {
            FabricOp::Put => self.put_base_ns,
            FabricOp::Get => self.get_base_ns,
            FabricOp::ActiveMessage => self.am_base_ns,
        };
        SimDuration::from_nanos_f64(base + bytes as f64 * self.per_byte_ns)
    }

    /// Sender-side injection gap (pipelined issue cost) of an operation
    /// carrying `bytes`.
    pub fn injection_gap(&self, op: FabricOp, bytes: usize) -> SimDuration {
        let extra = match op {
            FabricOp::ActiveMessage => self.am_gap_extra_ns,
            _ => 0.0,
        };
        SimDuration::from_nanos_f64(self.gap_base_ns + extra + bytes as f64 * self.gap_per_byte_ns)
    }

    /// Achievable message rate (messages/second) for back-to-back operations
    /// of `bytes` each.
    pub fn message_rate(&self, op: FabricOp, bytes: usize) -> f64 {
        let gap = self.injection_gap(op, bytes).as_nanos() as f64;
        if gap <= 0.0 {
            f64::INFINITY
        } else {
            1.0e9 / gap
        }
    }

    /// InfiniBand ConnectX-6 on the Ookami Apollo 80 system, calibrated to
    /// Table I/IV (A64FX endpoints make small-message costs relatively high).
    pub fn ookami_connectx6() -> Self {
        FabricProfile {
            name: "Ookami ConnectX-6 100Gb/s (A64FX endpoints)",
            put_base_ns: 2_608.0,
            get_base_ns: 2_560.0,
            am_base_ns: 2_485.0,
            per_byte_ns: 0.4652,
            gap_base_ns: 590.0,
            gap_per_byte_ns: 0.3622,
            am_gap_extra_ns: 156.0,
        }
    }

    /// Thor fabric between BlueField-2 DPU endpoints, calibrated to
    /// Table II/V.
    pub fn thor_bf2_fabric() -> Self {
        FabricProfile {
            name: "Thor ConnectX-6/BlueField-2 100Gb/s (DPU endpoints)",
            put_base_ns: 1_842.0,
            get_base_ns: 1_815.0,
            am_base_ns: 1_860.0,
            per_byte_ns: 0.3101,
            gap_base_ns: 755.0,
            gap_per_byte_ns: 0.3167,
            am_gap_extra_ns: 262.0,
        }
    }

    /// Thor fabric between Xeon host endpoints, calibrated to Table III/VI.
    pub fn thor_xeon_fabric() -> Self {
        FabricProfile {
            name: "Thor ConnectX-6 100Gb/s (Xeon endpoints)",
            put_base_ns: 1_500.0,
            get_base_ns: 1_480.0,
            am_base_ns: 1_537.0,
            per_byte_ns: 0.4012,
            gap_base_ns: 135.0,
            gap_per_byte_ns: 0.0686,
            am_gap_extra_ns: 11.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sizes (in bytes) of the messages the TSI microbenchmark sends, as
    // reported in Section V-A of the paper.
    /// A cached bitcode ifunc message (header + 1-byte payload, code elided).
    const CACHED_IFUNC_BYTES: usize = 26;
    /// An Active Message request (payload + function index).
    const ACTIVE_MESSAGE_BYTES: usize = 33;
    /// An uncached bitcode ifunc message (full frame with fat-bitcode).
    const UNCACHED_IFUNC_BYTES: usize = 5_185;

    #[test]
    fn ookami_latencies_match_table_one() {
        let f = FabricProfile::ookami_connectx6();
        let cached = f.latency(FabricOp::Put, CACHED_IFUNC_BYTES).as_micros_f64();
        let uncached = f
            .latency(FabricOp::Put, UNCACHED_IFUNC_BYTES)
            .as_micros_f64();
        let am = f
            .latency(FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES)
            .as_micros_f64();
        assert!((cached - 2.62).abs() < 0.1, "cached {cached}");
        assert!((uncached - 5.02).abs() < 0.2, "uncached {uncached}");
        assert!((am - 2.50).abs() < 0.1, "am {am}");
    }

    #[test]
    fn thor_bf2_latencies_match_table_two() {
        let f = FabricProfile::thor_bf2_fabric();
        assert!((f.latency(FabricOp::Put, CACHED_IFUNC_BYTES).as_micros_f64() - 1.85).abs() < 0.1);
        assert!(
            (f.latency(FabricOp::Put, UNCACHED_IFUNC_BYTES)
                .as_micros_f64()
                - 3.45)
                .abs()
                < 0.2
        );
        assert!(
            (f.latency(FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES)
                .as_micros_f64()
                - 1.87)
                .abs()
                < 0.1
        );
    }

    #[test]
    fn thor_xeon_latencies_match_table_three() {
        let f = FabricProfile::thor_xeon_fabric();
        assert!((f.latency(FabricOp::Put, CACHED_IFUNC_BYTES).as_micros_f64() - 1.51).abs() < 0.1);
        assert!(
            (f.latency(FabricOp::Put, UNCACHED_IFUNC_BYTES)
                .as_micros_f64()
                - 3.58)
                .abs()
                < 0.2
        );
    }

    #[test]
    fn message_rates_match_tables_four_to_six() {
        // Table IV: Ookami — AM 1.32 M/s, cached 1.669 M/s, uncached 405 K/s.
        let ookami = FabricProfile::ookami_connectx6();
        let rate = |f: &FabricProfile, op, n| f.message_rate(op, n) / 1.0e6;
        assert!((rate(&ookami, FabricOp::Put, CACHED_IFUNC_BYTES) - 1.669).abs() < 0.2);
        assert!((rate(&ookami, FabricOp::Put, UNCACHED_IFUNC_BYTES) - 0.405).abs() < 0.05);
        assert!((rate(&ookami, FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES) - 1.32).abs() < 0.15);

        // Table V: BF2 — AM 0.974, cached 1.311, uncached 0.417 M/s.
        let bf2 = FabricProfile::thor_bf2_fabric();
        assert!((rate(&bf2, FabricOp::Put, CACHED_IFUNC_BYTES) - 1.311).abs() < 0.15);
        assert!((rate(&bf2, FabricOp::Put, UNCACHED_IFUNC_BYTES) - 0.417).abs() < 0.05);
        assert!((rate(&bf2, FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES) - 0.974).abs() < 0.1);

        // Table VI: Xeon — AM 6.754, cached 7.302, uncached 2.037 M/s.
        let xeon = FabricProfile::thor_xeon_fabric();
        assert!((rate(&xeon, FabricOp::Put, CACHED_IFUNC_BYTES) - 7.302).abs() < 0.8);
        assert!((rate(&xeon, FabricOp::Put, UNCACHED_IFUNC_BYTES) - 2.037).abs() < 0.25);
        assert!((rate(&xeon, FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES) - 6.754).abs() < 0.7);
    }

    #[test]
    fn cached_ifunc_beats_am_on_message_rate_everywhere() {
        // The paper's headline observation for the TSI rate benchmark.
        for f in [
            FabricProfile::ookami_connectx6(),
            FabricProfile::thor_bf2_fabric(),
            FabricProfile::thor_xeon_fabric(),
        ] {
            assert!(
                f.message_rate(FabricOp::Put, CACHED_IFUNC_BYTES)
                    > f.message_rate(FabricOp::ActiveMessage, ACTIVE_MESSAGE_BYTES),
                "{}",
                f.name
            );
        }
    }

    #[test]
    fn latency_monotone_in_size() {
        let f = FabricProfile::thor_xeon_fabric();
        let mut prev = SimDuration::ZERO;
        for n in [0usize, 32, 1024, 4096, 65536] {
            let l = f.latency(FabricOp::Put, n);
            assert!(l >= prev);
            prev = l;
        }
    }
}
