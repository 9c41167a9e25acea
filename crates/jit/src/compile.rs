//! Compilation of IR modules into machine code.
//!
//! The compiler is the back-end half of the ORC-JIT analogue: it takes a
//! (target-lowered) [`tc_bitir::Module`], verifies it, selects instructions
//! based on the module's [`tc_bitir::LowerInfo`] (SIMD lane count, LSE vs CAS-loop
//! atomics), runs its two peephole passes (redundant-move elimination,
//! constant folding) and produces a [`MachModule`] the execution engine can
//! run.
//!
//! The *time* compilation takes on a given CPU is modelled separately, by
//! `tc-simnet`'s `CpuProfile::jit_time`; this module only does the
//! functional work.

use crate::error::Result;
use crate::machine::{Blocks, MReg, MachInst, MachModule, Signature};
use std::borrow::Cow;
use tc_bitir::{AtomicsExt, BinOp, Inst, LowerInfo, Module, ScalarType, TargetTriple, VectorExt};

/// Compiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Verify the module before compiling (recommended; mirrors LLVM's
    /// verifier being run on bitcode loaded from untrusted sources).
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { verify: true }
    }
}

/// Statistics describing a single compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// IR instructions in the input module.
    pub ir_insts: usize,
    /// Machine instructions emitted.
    pub mach_insts: usize,
    /// Instructions removed by optimisation passes.
    pub insts_folded: usize,
    /// Vector instructions whose lane count was widened beyond 1.
    pub vectorised_ops: usize,
}

/// The result of compiling a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The executable machine module.
    pub module: MachModule,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// The machine code `module` was emitted from, one entry per function:
    /// what a binary ifunc's `.text` carries ([`MachModule::encode`]).  A
    /// module the JIT materialises keeps none of it.
    pub code: Vec<Blocks>,
}

/// Compile a lowered IR module into machine code.
///
/// The module should carry a `triple`/`lower_info` (i.e. have been passed
/// through [`tc_bitir::lower_for_target`]); a portable module is accepted and
/// compiled with generic (scalar, CAS-loop) lowering, matching how LLVM would
/// pick a conservative subtarget when none is specified.
pub fn compile_module(module: &Module, options: CompileOptions) -> Result<Compiled> {
    compile(Cow::Borrowed(module), options)
}

/// Convenience: lower a portable module for `target` and compile it.
pub fn lower_and_compile(
    module: &Module,
    target: TargetTriple,
    options: CompileOptions,
) -> Result<Compiled> {
    let lowered = tc_bitir::lower_for_target(module, target)?;
    compile(Cow::Owned(lowered), options)
}

/// The compiler: [`compile_module`] of a module lent to it, or of one
/// handed to it ([`crate::orc::OrcJit::materialize`]), whose names, lists,
/// globals and call arguments then move into the machine module instead of
/// being copied.
pub(crate) fn compile(ir: Cow<'_, Module>, options: CompileOptions) -> Result<Compiled> {
    if options.verify {
        tc_bitir::verify_module(&ir)?;
    }
    let lower = ir.lower_info.unwrap_or(LowerInfo {
        vector: VectorExt::None,
        atomics: AtomicsExt::CasLoop,
        ptr_bytes: 8,
    });
    let mut stats = CompileStats {
        ir_insts: ir.inst_count(),
        ..CompileStats::default()
    };
    let (name, ext_symbols, deps, data, functions): (_, _, _, _, Cow<[_]>) = match ir {
        Cow::Owned(m) => (m.name, m.ext_symbols, m.deps, m.globals, m.functions.into()),
        Cow::Borrowed(m) => (
            m.name.clone(),
            m.ext_symbols.clone(),
            m.deps.clone(),
            m.globals.clone(),
            (&m.functions).into(),
        ),
    };
    let (mut sigs, mut code) = (Vec::with_capacity(functions.len()), Vec::new());
    for f in each(functions) {
        let (num_params, has_ret, num_regs) = (f.params.len() as u32, f.ret.is_some(), f.num_regs);
        let (name, blocks): (_, Cow<[_]>) = match f {
            Cow::Owned(f) => (f.name, f.blocks.into()),
            Cow::Borrowed(f) => (f.name.clone(), (&f.blocks).into()),
        };
        let mut machine = Vec::with_capacity(blocks.len());
        for block in each(blocks) {
            let insts: Cow<[_]> = match block {
                Cow::Owned(b) => b.insts.into(),
                Cow::Borrowed(b) => (&b.insts).into(),
            };
            let mut selected = Vec::with_capacity(insts.len());
            for inst in each(insts) {
                selected.push(select_inst(inst, &lower, &mut stats));
            }
            stats.insts_folded += eliminate_redundant_moves(&mut selected);
            stats.insts_folded += fold_constant_alu(&mut selected);
            stats.mach_insts += selected.len();
            machine.push(selected);
        }
        sigs.push(Signature {
            name,
            num_params,
            has_ret,
            num_regs,
        });
        code.push(machine);
    }
    let module = MachModule::new(name, sigs, &code, ext_symbols, data, deps)?;
    Ok(Compiled {
        module,
        stats,
        code,
    })
}

/// The items of `list`: moved out of an owned one, lent by a borrowed one.
fn each<'m, T: Clone>(list: Cow<'m, [T]>) -> impl Iterator<Item = Cow<'m, T>> {
    let (owned, lent) = match list {
        Cow::Owned(v) => (Some(v), None),
        Cow::Borrowed(s) => (None, Some(s)),
    };
    let owned = owned.into_iter().flatten().map(Cow::Owned);
    owned.chain(lent.into_iter().flatten().map(Cow::Borrowed))
}

/// A call's argument registers: moved out of an owned instruction, whose
/// vector becomes the machine instruction's, or copied from a lent one.
fn call_args(inst: Cow<'_, Inst>) -> Vec<MReg> {
    match inst {
        Cow::Owned(Inst::Call { args, .. } | Inst::CallExt { args, .. }) => {
            args.into_iter().map(|r| r.0).collect()
        }
        Cow::Borrowed(Inst::Call { args, .. } | Inst::CallExt { args, .. }) => {
            args.iter().map(|r| r.0).collect()
        }
        _ => Vec::new(),
    }
}

/// Instruction selection: IR → machine, applying target specialisation.
fn select_inst(inst: Cow<'_, Inst>, lower: &LowerInfo, stats: &mut CompileStats) -> MachInst {
    match &*inst {
        Inst::Const { dst, ty, bits } => MachInst::Imm {
            dst: dst.0,
            ty: *ty,
            bits: *bits,
        },
        Inst::Move { dst, src } => MachInst::Mov {
            dst: dst.0,
            src: src.0,
        },
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => MachInst::Alu {
            op: *op,
            ty: *ty,
            dst: dst.0,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Un { op, ty, dst, src } => MachInst::AluUn {
            op: *op,
            ty: *ty,
            dst: dst.0,
            src: src.0,
        },
        Inst::Load {
            ty,
            dst,
            addr,
            offset,
        } => MachInst::Ld {
            ty: *ty,
            dst: dst.0,
            addr: addr.0,
            offset: *offset,
        },
        Inst::Store {
            ty,
            src,
            addr,
            offset,
        } => MachInst::St {
            ty: *ty,
            src: src.0,
            addr: addr.0,
            offset: *offset,
        },
        Inst::Atomic {
            op,
            ty,
            dst,
            addr,
            src,
            expected,
        } => MachInst::AtomicRmw {
            op: *op,
            ty: *ty,
            dst: dst.0,
            addr: addr.0,
            src: src.0,
            expected: expected.0,
            lse: lower.atomics == AtomicsExt::Lse,
        },
        Inst::Vec {
            op,
            ty,
            dst_addr,
            a_addr,
            b_addr,
            count,
        } => {
            let lanes = lower.vector.lanes_for(*ty, lower.ptr_bytes);
            if lanes > 1 {
                stats.vectorised_ops += 1;
            }
            MachInst::VecLoop {
                op: *op,
                ty: *ty,
                dst_addr: dst_addr.0,
                a_addr: a_addr.0,
                b_addr: b_addr.0,
                count: count.0,
                lanes,
            }
        }
        Inst::GlobalAddr { dst, global } => MachInst::DataAddr {
            dst: dst.0,
            data_index: global.0,
        },
        Inst::Call { dst, func, .. } => {
            let (dst, func_index) = (dst.map(|r| r.0), func.0);
            let args = call_args(inst);
            MachInst::CallLocal {
                dst,
                func_index,
                args,
            }
        }
        Inst::CallExt { dst, sym, .. } => {
            let (dst, sym_index) = (dst.map(|r| r.0), sym.0);
            let args = call_args(inst);
            MachInst::CallSym {
                dst,
                sym_index,
                args,
            }
        }
        Inst::Br { target } => MachInst::Jmp { block: target.0 },
        Inst::BrIf {
            cond,
            then_blk,
            else_blk,
        } => MachInst::JmpIf {
            cond: cond.0,
            then_block: then_blk.0,
            else_block: else_blk.0,
        },
        Inst::Ret { value } => MachInst::Ret {
            value: value.map(|r| r.0),
        },
        Inst::Trap { code } => MachInst::Trap { code: *code },
    }
}

/// O1 pass: remove `Mov { dst, src }` where `dst == src`.
fn eliminate_redundant_moves(block: &mut Vec<MachInst>) -> usize {
    let before = block.len();
    block.retain(|inst| !matches!(inst, MachInst::Mov { dst, src } if dst == src));
    before - block.len()
}

/// O2 pass: fold `Imm a; Imm b; Alu dst = a op b` into a single `Imm dst`
/// when both operands are integer immediates defined immediately before the
/// ALU op and not reused later in the block.  This is intentionally a very
/// local peephole — enough to observe "optimisation changes code size", which
/// is the property the paper remarks on, without building a full optimiser.
fn fold_constant_alu(block: &mut Vec<MachInst>) -> usize {
    let mut folded = 0usize;
    let mut i = 2usize;
    while i < block.len() {
        let can_fold = {
            match (&block[i - 2], &block[i - 1], &block[i]) {
                (
                    MachInst::Imm {
                        dst: da,
                        ty: ta,
                        bits: ba,
                    },
                    MachInst::Imm {
                        dst: db,
                        ty: tb,
                        bits: bb,
                    },
                    MachInst::Alu {
                        op,
                        ty,
                        dst,
                        lhs,
                        rhs,
                    },
                ) if lhs == da
                    && rhs == db
                    && ta == ty
                    && tb == ty
                    && !ty.is_float()
                    && !matches!(op, BinOp::Div | BinOp::Rem) =>
                {
                    // Neither immediate register may be used later in the block.
                    let used_later = block[i + 1..]
                        .iter()
                        .any(|inst| inst_reads_reg(inst, *da) || inst_reads_reg(inst, *db));
                    if used_later {
                        None
                    } else {
                        eval_const_int(*op, *ty, *ba, *bb).map(|bits| (*dst, *ty, bits))
                    }
                }
                _ => None,
            }
        };
        if let Some((dst, ty, bits)) = can_fold {
            block.splice(i - 2..=i, [MachInst::Imm { dst, ty, bits }]);
            folded += 2;
            i = i.saturating_sub(2).max(2);
        } else {
            i += 1;
        }
    }
    folded
}

fn inst_reads_reg(inst: &MachInst, reg: u32) -> bool {
    match inst {
        MachInst::Imm { .. }
        | MachInst::DataAddr { .. }
        | MachInst::Jmp { .. }
        | MachInst::Trap { .. } => false,
        MachInst::Mov { src, .. } => *src == reg,
        MachInst::Alu { lhs, rhs, .. } => *lhs == reg || *rhs == reg,
        MachInst::AluUn { src, .. } => *src == reg,
        MachInst::Ld { addr, .. } => *addr == reg,
        MachInst::St { src, addr, .. } => *src == reg || *addr == reg,
        MachInst::AtomicRmw {
            addr,
            src,
            expected,
            ..
        } => *addr == reg || *src == reg || *expected == reg,
        MachInst::VecLoop {
            dst_addr,
            a_addr,
            b_addr,
            count,
            ..
        } => *dst_addr == reg || *a_addr == reg || *b_addr == reg || *count == reg,
        MachInst::CallLocal { args, .. } | MachInst::CallSym { args, .. } => args.contains(&reg),
        MachInst::JmpIf { cond, .. } => *cond == reg,
        MachInst::Ret { value } => *value == Some(reg),
    }
}

fn eval_const_int(op: BinOp, ty: ScalarType, a: u64, b: u64) -> Option<u64> {
    let mask = type_mask(ty);
    let a = a & mask;
    let b = b & mask;
    let result = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::CmpEq => u64::from(a == b),
        BinOp::CmpNe => u64::from(a != b),
        BinOp::CmpLt => u64::from(a < b),
        BinOp::CmpLe => u64::from(a <= b),
        BinOp::CmpGt => u64::from(a > b),
        BinOp::CmpGe => u64::from(a >= b),
        _ => return None,
    };
    Some(result & mask)
}

fn type_mask(ty: ScalarType) -> u64 {
    match ty.size_bytes(8) {
        1 => 0xff,
        2 => 0xffff,
        4 => 0xffff_ffff,
        _ => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JitError;
    use tc_bitir::{ModuleBuilder, ScalarType, TargetTriple, VecOp};

    fn vec_module() -> Module {
        let mut mb = ModuleBuilder::new("vec");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let count = f.const_u64(64);
            f.push(tc_bitir::Inst::Vec {
                op: VecOp::Add,
                ty: ScalarType::F64,
                dst_addr: target,
                a_addr: payload,
                b_addr: payload,
                count,
            });
            let (one, zero) = (f.const_u64(1), f.const_u64(0));
            f.atomic(
                tc_bitir::AtomicOp::FetchAdd,
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
    fn vectorisation_uses_target_width() {
        let m = vec_module();
        let a64fx =
            lower_and_compile(&m, TargetTriple::OOKAMI_A64FX, CompileOptions::default()).unwrap();
        let xeon =
            lower_and_compile(&m, TargetTriple::THOR_XEON, CompileOptions::default()).unwrap();
        let bf2 = lower_and_compile(&m, TargetTriple::THOR_BF2, CompileOptions::default()).unwrap();

        let lanes = |c: &Compiled| {
            c.code[0]
                .iter()
                .flatten()
                .find_map(|i| match i {
                    MachInst::VecLoop { lanes, .. } => Some(*lanes),
                    _ => None,
                })
                .unwrap()
        };
        // f64 lanes: SVE512 → 8, AVX2 → 4, NEON → 2.
        assert_eq!(lanes(&a64fx), 8);
        assert_eq!(lanes(&xeon), 4);
        assert_eq!(lanes(&bf2), 2);
        assert_eq!(a64fx.stats.vectorised_ops, 1);
    }

    #[test]
    fn atomics_flavour_follows_target() {
        let m = vec_module();
        let a64fx =
            lower_and_compile(&m, TargetTriple::OOKAMI_A64FX, CompileOptions::default()).unwrap();
        let bf2 = lower_and_compile(&m, TargetTriple::THOR_BF2, CompileOptions::default()).unwrap();
        let find_lse = |c: &Compiled| {
            c.code[0]
                .iter()
                .flatten()
                .find_map(|i| match i {
                    MachInst::AtomicRmw { lse, .. } => Some(*lse),
                    _ => None,
                })
                .unwrap()
        };
        assert!(find_lse(&a64fx), "A64FX should use LSE atomics");
        assert!(!find_lse(&bf2), "Cortex-A72 profile uses CAS loops");
    }

    #[test]
    fn constant_folding_folds_the_add_and_keeps_its_immediate() {
        let mut mb = ModuleBuilder::new("fold");
        {
            let mut f = mb.function("f", vec![], Some(ScalarType::I64));
            let a = f.const_i64(40);
            let b = f.const_i64(2);
            let c = f.bin(BinOp::Add, ScalarType::I64, a, b);
            f.ret(c);
            f.finish();
        }
        let o2 = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        assert!(o2.stats.insts_folded >= 2);
        // The folded constant must be correct.
        let has_42 = o2.code[0]
            .iter()
            .flatten()
            .any(|i| matches!(i, MachInst::Imm { bits: 42, .. }));
        assert!(has_42, "folded immediate 42 not found");
    }

    #[test]
    fn folding_respects_later_uses() {
        let mut mb = ModuleBuilder::new("nofold");
        {
            let mut f = mb.function("f", vec![], Some(ScalarType::I64));
            let a = f.const_i64(40);
            let b = f.const_i64(2);
            let c = f.bin(BinOp::Add, ScalarType::I64, a, b);
            let d = f.bin(BinOp::Add, ScalarType::I64, c, a); // `a` used again: folding must not remove it
            f.ret(d);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        // All three Imm+Alu chain still evaluates to 82 at run time — we just
        // check the immediates survived.
        let imm_count = compiled.code[0]
            .iter()
            .flatten()
            .filter(|i| matches!(i, MachInst::Imm { .. }))
            .count();
        assert!(imm_count >= 2);
    }

    #[test]
    fn verification_failure_propagates() {
        let mut m = vec_module();
        m.functions[0].blocks[0].insts.pop();
        let err = compile_module(&m, CompileOptions::default()).unwrap_err();
        assert!(matches!(err, JitError::Compile(_)));
    }

    #[test]
    fn portable_module_compiles_with_scalar_fallback() {
        let m = vec_module();
        let compiled = compile_module(&m, CompileOptions::default()).unwrap();
        let lanes = compiled.code[0]
            .iter()
            .flatten()
            .find_map(|i| match i {
                MachInst::VecLoop { lanes, .. } => Some(*lanes),
                _ => None,
            })
            .unwrap();
        assert_eq!(lanes, 1, "portable compile must scalarise");
    }

    #[test]
    fn stats_track_sizes() {
        let m = vec_module();
        let compiled = compile_module(&m, CompileOptions::default()).unwrap();
        assert_eq!(compiled.stats.ir_insts, m.inst_count());
        let mach_insts: usize = compiled.code.iter().flatten().map(Vec::len).sum();
        assert_eq!(compiled.stats.mach_insts, mach_insts);
    }
}
