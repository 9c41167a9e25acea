//! Compile-time and execution-time cost models.
//!
//! The paper measures JIT compilation of the TSI kernel at 6.59 ms on the
//! A64FX, 4.50 ms on the BlueField-2 DPU cores, and 0.83 ms on the Xeon
//! (Tables I–III) — a one-time cost paid on the first arrival of an uncached
//! bitcode ifunc.  The reproduction cannot measure LLVM, so it *models* the
//! compile time as a function of bitcode size and a per-platform speed
//! factor, and the execution time as a function of the
//! interpreter's retired cycle count and a per-platform clock.  The platform
//! parameters live in `tc-simnet::platform` so all calibration is in one
//! place; this module defines the formulas.

/// Compile-time model: `time_ns = base_ns + ns_per_byte * bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileCostModel {
    /// Fixed per-compilation overhead (ORC session setup, symbol table
    /// construction) in nanoseconds.
    pub base_ns: f64,
    /// Marginal cost per byte of bitcode in nanoseconds.
    pub ns_per_byte: f64,
}

impl CompileCostModel {
    /// Model with explicit parameters.
    pub fn new(base_ns: f64, ns_per_byte: f64) -> Self {
        CompileCostModel {
            base_ns,
            ns_per_byte,
        }
    }

    /// Predicted JIT compile time in nanoseconds for `bitcode_bytes` of input.
    pub fn compile_time_ns(&self, bitcode_bytes: usize) -> f64 {
        self.base_ns + self.ns_per_byte * bitcode_bytes as f64
    }
}

/// Execution-time model: `time_ns = cycles / effective_ghz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecCostModel {
    /// Effective clock in GHz after accounting for the interpreter's coarse
    /// cycle model (i.e. cycles-per-nanosecond).
    pub effective_ghz: f64,
}

impl ExecCostModel {
    /// Model with an explicit effective clock.
    pub fn new(effective_ghz: f64) -> Self {
        ExecCostModel { effective_ghz }
    }

    /// Predicted execution time in nanoseconds for a retired cycle count.
    pub fn exec_time_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.effective_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_time_scales_with_size() {
        let model = CompileCostModel::new(50_000.0, 1_000.0);
        assert_eq!(model.compile_time_ns(0), 50_000.0);
        assert!(model.compile_time_ns(100) < model.compile_time_ns(10_000));
    }

    #[test]
    fn paper_scale_jit_times_are_reachable() {
        // Xeon-like: ~0.83 ms for ~5.2 KiB of bitcode.
        let xeon = CompileCostModel::new(100_000.0, 140.0);
        let t = xeon.compile_time_ns(5159);
        assert!(t > 0.5e6 && t < 1.5e6, "xeon-like JIT time {t} ns");

        // A64FX-like: ~6.6 ms for the same input.
        let a64fx = CompileCostModel::new(400_000.0, 1_200.0);
        let t = a64fx.compile_time_ns(5159);
        assert!(t > 4.0e6 && t < 9.0e6, "a64fx-like JIT time {t} ns");
    }

    #[test]
    fn exec_time_inverse_to_clock() {
        let fast = ExecCostModel::new(2.6);
        let slow = ExecCostModel::new(1.8);
        assert!(fast.exec_time_ns(1000) < slow.exec_time_ns(1000));
        assert_eq!(ExecCostModel::new(1.0).exec_time_ns(500) as u64, 500);
    }
}
