//! Per-target lowering of portable modules.
//!
//! The paper's toolchain runs Clang once per target triple, producing a
//! distinct `.bc` file for each: the IR embeds the data layout, the atomics
//! strategy and whatever µarch-specific hints the front-end chose.  Our
//! lowering pass plays that role: it takes a *portable* module (no triple)
//! and produces a target-flavoured clone carrying a [`LowerInfo`] record,
//! which the JIT later uses for instruction selection (SIMD width, LSE vs
//! CAS-loop atomics).

use crate::error::{BitirError, Result};
use crate::ir::{LowerInfo, Module};
use crate::types::TargetTriple;
use crate::verify::verify_module;

/// Lower a portable module for a specific target triple.
///
/// Returns a new module with `triple` and `lower_info` populated.  Lowering a
/// module that already carries a triple is an error unless the triples match
/// (re-lowering is idempotent) — matching LLVM's refusal to re-target a
/// module with a conflicting datalayout.
pub fn lower_for_target(module: &Module, target: TargetTriple) -> Result<Module> {
    if let Some(existing) = module.triple {
        if existing != target {
            return Err(BitirError::Lower(format!(
                "module `{}` already lowered for {existing}, cannot re-lower for {target}",
                module.name
            )));
        }
    }
    verify_module(module)?;

    let features = target.features();
    let mut lowered = module.clone();
    lowered.triple = Some(target);
    lowered.lower_info = Some(LowerInfo {
        vector: features.vector,
        atomics: features.atomics,
        ptr_bytes: features.ptr_bytes,
    });
    Ok(lowered)
}

/// Lower a portable module for every triple in `targets`, returning the
/// lowered modules in the same order.  This is what the toolchain does when
/// building a fat-bitcode archive.
pub fn lower_for_targets(module: &Module, targets: &[TargetTriple]) -> Result<Vec<Module>> {
    targets
        .iter()
        .map(|t| lower_for_target(module, *t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rough estimate of how much larger/smaller the lowered bitcode will be per
    /// target, relative to the portable form.  Wider-vector targets carry more
    /// metadata (intrinsics declarations, predication attributes), narrower ones
    /// carry less.  Only used for size accounting in tests and benches.
    fn lowering_size_factor(target: TargetTriple) -> f64 {
        match target.features().vector.bits() {
            0 => 0.95,
            128 => 1.0,
            256 => 1.05,
            _ => 1.10,
        }
    }
    use crate::builder::ModuleBuilder;
    use crate::types::{AtomicsExt, ScalarType, VectorExt};

    fn portable_module() -> Module {
        let mut mb = ModuleBuilder::new("lower_test");
        {
            let mut f = mb.entry_function();
            let target = f.param(2);
            let (one, zero) = (f.const_u64(1), f.const_u64(0));
            f.atomic(
                crate::AtomicOp::FetchAdd,
                ScalarType::U64,
                target,
                one,
                zero,
            );
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    #[test]
    fn lowering_attaches_target_features() {
        let m = portable_module();
        let a64fx = lower_for_target(&m, TargetTriple::OOKAMI_A64FX).unwrap();
        assert_eq!(a64fx.triple, Some(TargetTriple::OOKAMI_A64FX));
        let info = a64fx.lower_info.unwrap();
        assert_eq!(info.vector, VectorExt::Simd512);
        assert_eq!(info.atomics, AtomicsExt::Lse);

        let bf2 = lower_for_target(&m, TargetTriple::THOR_BF2).unwrap();
        assert_eq!(bf2.lower_info.unwrap().atomics, AtomicsExt::CasLoop);
    }

    #[test]
    fn relowering_same_target_is_idempotent() {
        let m = portable_module();
        let once = lower_for_target(&m, TargetTriple::THOR_XEON).unwrap();
        let twice = lower_for_target(&once, TargetTriple::THOR_XEON).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn relowering_for_other_target_rejected() {
        let m = portable_module();
        let xeon = lower_for_target(&m, TargetTriple::THOR_XEON).unwrap();
        let err = lower_for_target(&xeon, TargetTriple::OOKAMI_A64FX).unwrap_err();
        assert!(err.to_string().contains("already lowered"));
    }

    #[test]
    fn lowering_verifies_first() {
        let mut broken = portable_module();
        broken.functions[0].blocks[0].insts.pop(); // remove terminator
        assert!(lower_for_target(&broken, TargetTriple::THOR_XEON).is_err());
    }

    #[test]
    fn lower_for_all_default_targets() {
        let m = portable_module();
        let targets = TargetTriple::default_toolchain_targets();
        let lowered = lower_for_targets(&m, &targets).unwrap();
        assert_eq!(lowered.len(), targets.len());
        for (lm, t) in lowered.iter().zip(&targets) {
            assert_eq!(lm.triple, Some(*t));
        }
    }

    #[test]
    fn size_factor_monotone_in_vector_width() {
        assert!(
            lowering_size_factor(TargetTriple::OOKAMI_A64FX)
                > lowering_size_factor(TargetTriple::THOR_XEON)
        );
        assert!(
            lowering_size_factor(TargetTriple::THOR_XEON)
                > lowering_size_factor(TargetTriple::THOR_BF2)
                || (lowering_size_factor(TargetTriple::THOR_XEON)
                    - lowering_size_factor(TargetTriple::THOR_BF2))
                .abs()
                    > 0.0
        );
    }
}
