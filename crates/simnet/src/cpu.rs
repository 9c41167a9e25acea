//! CPU profiles: how fast a processing element executes ifuncs, dispatches
//! handlers, and JIT-compiles bitcode.
//!
//! The three profiles that matter for the reproduction are the Fujitsu A64FX
//! (Ookami compute nodes), the Intel Xeon E5-2697A v4 (Thor hosts) and the
//! Arm Cortex-A72 cores of the BlueField-2 DPU (Thor adapters).  The numbers
//! are calibrated against the paper's Tables I–III rather than measured from
//! hardware; `EXPERIMENTS.md` sets the resulting columns beside the paper's.

use crate::time::SimDuration;

/// A processing element's speed parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Effective clock used to convert interpreter cycles to time, in GHz.
    pub clock_ghz: f64,
    /// Fixed overhead of dispatching an Active-Message handler
    /// (the paper's "Lookup+Exec" for the AM mode, minus the kernel itself).
    pub am_dispatch_ns: f64,
    /// Fixed overhead of looking up and launching an already-cached ifunc.
    pub cached_lookup_ns: f64,
    /// Fixed overhead of registering a newly-arrived ifunc (cache-miss path,
    /// excluding JIT compilation which is modelled separately).
    pub uncached_lookup_ns: f64,
    /// Fixed component of a JIT compilation (ORC session setup).
    pub jit_base_ns: f64,
    /// Marginal JIT compilation cost per byte of bitcode.
    pub jit_ns_per_byte: f64,
    /// Fixed cost of loading a binary ifunc (GOT patch + buffer setup);
    /// binary code "arrives ready to be executed" so this is small.
    pub binary_load_ns: f64,
}

impl CpuProfile {
    /// Fujitsu A64FX (Ookami).  Calibrated against Table I: Lookup+Exec
    /// 0.05–0.10 µs, JIT ≈ 6.59 ms for the TSI kernel.  The marginal cost is
    /// expressed per byte of the *selected single-target* bitcode (~2.6 KiB
    /// for the TSI kernel — the paper's 5159 B archive covers two ISAs).
    pub fn a64fx() -> Self {
        CpuProfile {
            name: "Fujitsu A64FX",
            clock_ghz: 1.8,
            am_dispatch_ns: 55.0,
            cached_lookup_ns: 25.0,
            uncached_lookup_ns: 75.0,
            jit_base_ns: 300_000.0,
            jit_ns_per_byte: 2_440.0,
            binary_load_ns: 900.0,
        }
    }

    /// Intel Xeon E5-2697A v4 (Thor hosts).  Calibrated against Table III:
    /// Lookup+Exec 0.01–0.02 µs, JIT ≈ 0.83 ms for the TSI kernel's
    /// single-target bitcode.
    pub fn xeon_e5() -> Self {
        CpuProfile {
            name: "Intel Xeon E5-2697A v4",
            clock_ghz: 2.6,
            am_dispatch_ns: 7.0,
            cached_lookup_ns: 14.0,
            uncached_lookup_ns: 8.0,
            jit_base_ns: 60_000.0,
            jit_ns_per_byte: 300.0,
            binary_load_ns: 250.0,
        }
    }

    /// Arm Cortex-A72 (BlueField-2 DPU cores).  Calibrated against Table II:
    /// Lookup+Exec 0.01–0.04 µs, JIT ≈ 4.50 ms for the TSI kernel's
    /// single-target bitcode.
    pub fn bf2_cortex_a72() -> Self {
        CpuProfile {
            name: "BlueField-2 Cortex-A72",
            clock_ghz: 2.0,
            am_dispatch_ns: 8.0,
            cached_lookup_ns: 8.0,
            uncached_lookup_ns: 30.0,
            jit_base_ns: 180_000.0,
            jit_ns_per_byte: 1_675.0,
            binary_load_ns: 600.0,
        }
    }

    /// Convert a retired interpreter cycle count to execution time.
    pub fn exec_time(&self, cycles: u64) -> SimDuration {
        SimDuration::from_nanos_f64(cycles as f64 / self.clock_ghz)
    }

    /// Predicted JIT compilation time for `bitcode_bytes`.
    pub fn jit_time(&self, bitcode_bytes: usize) -> SimDuration {
        SimDuration::from_nanos_f64(self.jit_base_ns + self.jit_ns_per_byte * bitcode_bytes as f64)
    }

    /// Dispatch overhead of an Active-Message handler invocation.
    pub fn am_dispatch(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.am_dispatch_ns)
    }

    /// Lookup overhead for a cached ifunc.
    pub fn cached_lookup(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.cached_lookup_ns)
    }

    /// Registration overhead for an uncached ifunc (excluding JIT).
    pub fn uncached_lookup(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.uncached_lookup_ns)
    }

    /// Load cost for a binary ifunc (GOT patching and buffer setup).
    pub fn binary_load(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.binary_load_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the single-target TSI bitcode the receiving JIT actually
    /// compiles (the paper's 5159 B archive covers two ISAs, ≈ 2.6 KiB each).
    const TSI_SELECTED_BITCODE_BYTES: usize = 2_580;

    #[test]
    fn jit_times_match_paper_order() {
        // Table I/II/III: A64FX 6.59 ms, BF2 4.50 ms, Xeon 0.83 ms.
        let a64fx = CpuProfile::a64fx().jit_time(TSI_SELECTED_BITCODE_BYTES);
        let bf2 = CpuProfile::bf2_cortex_a72().jit_time(TSI_SELECTED_BITCODE_BYTES);
        let xeon = CpuProfile::xeon_e5().jit_time(TSI_SELECTED_BITCODE_BYTES);
        assert!(a64fx > bf2 && bf2 > xeon);
        assert!(
            (a64fx.as_millis_f64() - 6.59).abs() < 0.7,
            "a64fx {}",
            a64fx
        );
        assert!((bf2.as_millis_f64() - 4.50).abs() < 0.5, "bf2 {}", bf2);
        assert!((xeon.as_millis_f64() - 0.83).abs() < 0.15, "xeon {}", xeon);
    }

    #[test]
    fn exec_time_scales_with_clock() {
        let fast = CpuProfile::xeon_e5();
        let slow = CpuProfile::a64fx();
        assert!(fast.exec_time(10_000) < slow.exec_time(10_000));
    }

    #[test]
    fn lookup_overheads_are_sub_microsecond() {
        for cpu in [
            CpuProfile::a64fx(),
            CpuProfile::xeon_e5(),
            CpuProfile::bf2_cortex_a72(),
        ] {
            assert!(cpu.cached_lookup().as_nanos() < 1_000);
            assert!(cpu.am_dispatch().as_nanos() < 1_000);
            assert!(cpu.uncached_lookup().as_nanos() < 1_000);
            assert!(cpu.binary_load().as_nanos() < 5_000);
        }
    }
}
