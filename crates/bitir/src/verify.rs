//! Structural and type verification of IR modules.
//!
//! Verification runs in two places, mirroring LLVM's verifier: the toolchain
//! verifies a module before encoding it into bitcode (so we never ship a
//! malformed ifunc), and the JIT verifies a decoded module before compiling
//! it (so a corrupted or hostile message cannot crash the target runtime).

use crate::error::{BitirError, Result};
use crate::ir::{BinOp, Block, Function, Inst, Module, UnOp};
use crate::types::ScalarType;

/// Verify a whole module.
///
/// Checks performed:
/// * every function has at least one block, every block is terminated, and
///   only the last instruction of a block is a terminator;
/// * every register index is below the function's `num_regs` and parameters
///   fit in the register file;
/// * branch targets, callee ids, global ids and external symbol ids are in
///   range;
/// * direct call argument counts match the callee signature;
/// * typed operations are used with compatible types (float ops on float
///   types, atomics on integer types, shifts on integers);
/// * the entry function, when present, has the canonical ifunc signature;
/// * function names are unique and non-empty.
pub fn verify_module(module: &Module) -> Result<()> {
    check_names(&module.functions)?;

    if let Some((_, entry)) = module.entry() {
        let (want_params, want_ret) = crate::ir::entry_signature();
        if entry.params != want_params || entry.ret != want_ret {
            return Err(BitirError::Verify(format!(
                "entry function `{}` has signature ({:?}) -> {:?}, expected ({:?}) -> {:?}",
                Module::ENTRY_NAME,
                entry.params,
                entry.ret,
                want_params,
                want_ret
            )));
        }
    }

    for (fi, f) in module.functions.iter().enumerate() {
        verify_function(module, f)
            .map_err(|e| BitirError::Verify(format!("function #{fi} `{}`: {e}", f.name)))?;
    }
    Ok(())
}

/// The first function, in module order, whose name is empty or repeats an
/// earlier one is refused.  Names are compared in sorted order, so a
/// hostile module of many functions costs O(n log n); a module of one
/// function allocates nothing.
fn check_names(functions: &[Function]) -> Result<()> {
    let name = |i: usize| &functions[i].name;
    let mut order = Vec::new();
    if functions.len() > 1 {
        order.extend(0..functions.len());
        order.sort_unstable_by_key(|&i| (name(i), i));
    }
    let repeats = order.windows(2).filter(|p| name(p[0]) == name(p[1]));
    match (
        functions.iter().position(|f| f.name.is_empty()),
        repeats.map(|p| p[1]).min(),
    ) {
        (Some(e), r) if r.is_none_or(|r| e < r) => {
            Err(BitirError::Verify("function with empty name".into()))
        }
        (_, Some(r)) => Err(BitirError::Verify(format!(
            "duplicate function name `{}`",
            name(r)
        ))),
        _ => Ok(()),
    }
}

fn verify_function(module: &Module, f: &Function) -> std::result::Result<(), String> {
    if f.blocks.is_empty() {
        return Err("has no basic blocks".into());
    }
    if (f.params.len() as u32) > f.num_regs {
        return Err(format!(
            "declares {} registers but has {} parameters",
            f.num_regs,
            f.params.len()
        ));
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        verify_block(module, f, block).map_err(|e| format!("block bb{bi}: {e}"))?;
    }
    Ok(())
}

fn verify_block(module: &Module, f: &Function, block: &Block) -> std::result::Result<(), String> {
    if block.insts.is_empty() {
        return Err("is empty (must end with a terminator)".into());
    }
    let last = block.insts.len() - 1;
    for (i, inst) in block.insts.iter().enumerate() {
        if i != last && inst.is_terminator() {
            return Err(format!("terminator at position {i} is not last"));
        }
        if i == last && !inst.is_terminator() {
            return Err("last instruction is not a terminator".into());
        }
        verify_inst(module, f, inst).map_err(|e| format!("inst #{i}: {e}"))?;
    }
    Ok(())
}

fn verify_inst(module: &Module, f: &Function, inst: &Inst) -> std::result::Result<(), String> {
    // Register range checks for all defs and uses.
    let n = f.num_regs;
    if let Some(r) = inst
        .def_reg()
        .into_iter()
        .chain(inst.use_regs())
        .find(|r| r.0 >= n)
    {
        return Err(format!("register {r} out of range (num_regs = {n})"));
    }

    match inst {
        Inst::Bin { op, ty, .. } => {
            if op.is_float_only() && !ty.is_float() {
                return Err(format!("float-only operator {op:?} used at type {ty}"));
            }
            if matches!(
                op,
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
            ) && ty.is_float()
            {
                return Err(format!(
                    "bitwise/shift operator {op:?} used at float type {ty}"
                ));
            }
            if matches!(op, BinOp::Div | BinOp::Rem) && ty.is_float() {
                return Err(format!(
                    "integer division operator {op:?} used at float type {ty}; use FDiv"
                ));
            }
            Ok(())
        }
        Inst::Un { op, ty, .. } => {
            match op {
                UnOp::Not | UnOp::Neg => {
                    if ty.is_float() {
                        return Err(format!("integer unary operator {op:?} at float type {ty}"));
                    }
                }
                UnOp::FNeg | UnOp::FloatCast => {
                    if !ty.is_float() {
                        return Err(format!(
                            "float unary operator {op:?} at non-float type {ty}"
                        ));
                    }
                }
                UnOp::IntToFloat => {
                    if !ty.is_float() {
                        return Err(format!("IntToFloat must produce a float type, got {ty}"));
                    }
                }
                UnOp::FloatToInt | UnOp::IntCast => {
                    if ty.is_float() {
                        return Err(format!("{op:?} must produce an integer type, got {ty}"));
                    }
                }
            }
            Ok(())
        }
        Inst::Atomic { ty, .. } => {
            if !ty.is_int() {
                return Err(format!("atomic operation at unsupported type {ty}"));
            }
            if ty.is_float() {
                return Err(format!("atomic operation at float type {ty}"));
            }
            Ok(())
        }
        Inst::Vec { ty, .. } => {
            if matches!(ty, ScalarType::Ptr) {
                return Err("vector operation over pointer elements".into());
            }
            Ok(())
        }
        Inst::GlobalAddr { global, .. } => {
            if (global.0 as usize) >= module.globals.len() {
                return Err(format!(
                    "global id {} out of range ({} globals)",
                    global.0,
                    module.globals.len()
                ));
            }
            Ok(())
        }
        Inst::Call { func, args, .. } => {
            let callee = module
                .functions
                .get(func.0 as usize)
                .ok_or_else(|| format!("callee id {} out of range", func.0))?;
            if callee.params.len() != args.len() {
                return Err(format!(
                    "call to `{}` passes {} args, callee expects {}",
                    callee.name,
                    args.len(),
                    callee.params.len()
                ));
            }
            Ok(())
        }
        Inst::CallExt { sym, .. } => {
            if (sym.0 as usize) >= module.ext_symbols.len() {
                return Err(format!(
                    "external symbol id {} out of range ({} symbols)",
                    sym.0,
                    module.ext_symbols.len()
                ));
            }
            Ok(())
        }
        Inst::Br { target } => {
            if (target.0 as usize) >= f.blocks.len() {
                return Err(format!("branch target {target} out of range"));
            }
            Ok(())
        }
        Inst::BrIf {
            then_blk, else_blk, ..
        } => {
            for t in [then_blk, else_blk] {
                if (t.0 as usize) >= f.blocks.len() {
                    return Err(format!("branch target {t} out of range"));
                }
            }
            Ok(())
        }
        Inst::Ret { value } => match (value, f.ret) {
            (Some(_), None) => Err("returns a value from a void function".into()),
            (None, Some(_)) => Err("missing return value".into()),
            _ => Ok(()),
        },
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ir::{BlockId, FuncId, Reg};

    fn trivial_entry(name: &str) -> ModuleBuilder {
        let mut mb = ModuleBuilder::new(name);
        {
            let mut f = mb.entry_function();
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb
    }

    #[test]
    fn valid_module_passes() {
        let m = trivial_entry("ok").build();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let mut mb = ModuleBuilder::new("dup");
        for _ in 0..2 {
            let mut f = mb.function("foo", vec![], None);
            f.ret_void();
            f.finish();
        }
        let m = mb.build();
        let err = verify_module(&m).unwrap_err();
        assert_eq!(
            err.to_string(),
            BitirError::Verify("duplicate function name `foo`".into()).to_string()
        );
    }

    /// The first function in module order whose name is empty or repeats an
    /// earlier one is the one refused, as a scan in order would refuse it.
    #[test]
    fn the_first_bad_name_in_module_order_is_refused() {
        let module = |names: &[&str]| {
            let mut mb = ModuleBuilder::new("names");
            for name in names {
                let mut f = mb.function(*name, vec![], None);
                f.ret_void();
                f.finish();
            }
            mb.build()
        };
        let refusal = |names: &[&str]| verify_module(&module(names)).unwrap_err().to_string();
        let dup = |name: &str| BitirError::Verify(format!("duplicate function name `{name}`"));
        let empty = BitirError::Verify("function with empty name".into());
        assert_eq!(refusal(&["b", "a", "b", "a"]), dup("b").to_string());
        assert_eq!(refusal(&["b", "a", "a", "b"]), dup("a").to_string());
        assert_eq!(refusal(&["a", "", "a", ""]), empty.to_string());
        assert_eq!(refusal(&["a", "a", ""]), dup("a").to_string());
        assert_eq!(refusal(&[""]), empty.to_string());
        assert!(verify_module(&module(&["a", "b", "c"])).is_ok());
    }

    /// Ten thousand functions, and the same with the last one repeating the
    /// first name, are checked in time a scan of every pair would not take.
    #[test]
    fn ten_thousand_function_names_are_checked_within_a_time_bound() {
        let names: Vec<String> = (0..10_000).map(|i| format!("f{i}")).collect();
        let mut mb = ModuleBuilder::new("many");
        for name in &names {
            let mut f = mb.function(name.clone(), vec![], None);
            f.ret_void();
            f.finish();
        }
        let distinct = mb.build();
        let mut repeated = distinct.clone();
        repeated.functions[9_999].name = "f0".into();
        let started = std::time::Instant::now();
        assert!(verify_module(&distinct).is_ok());
        let err = verify_module(&repeated).unwrap_err().to_string();
        let took = started.elapsed();
        assert!(err.contains("duplicate function name `f0`"), "{err}");
        assert!(took < std::time::Duration::from_millis(500), "{took:?}");
    }

    #[test]
    fn wrong_entry_signature_rejected() {
        let mut mb = ModuleBuilder::new("badentry");
        {
            let mut f = mb.function(Module::ENTRY_NAME, vec![ScalarType::I64], None);
            f.ret_void();
            f.finish();
        }
        let err = verify_module(&mb.build()).unwrap_err();
        assert!(err.to_string().contains("signature"));
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut m = trivial_entry("badreg").build();
        // Corrupt: reference a register beyond num_regs.
        m.functions[0].blocks[0].insts.insert(
            0,
            Inst::Move {
                dst: Reg(1000),
                src: Reg(0),
            },
        );
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unterminated_block_rejected() {
        let mut m = trivial_entry("noterm").build();
        m.functions[0].blocks[0].insts.pop(); // drop the Ret
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("terminator"));
    }

    #[test]
    fn terminator_in_middle_rejected() {
        let mut m = trivial_entry("midterm").build();
        m.functions[0].blocks[0].insts.insert(
            0,
            Inst::Ret {
                value: Some(Reg(0)),
            },
        );
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn bad_branch_target_rejected() {
        let mut m = trivial_entry("badbr").build();
        let insts = &mut m.functions[0].blocks[0].insts;
        let last = insts.len() - 1;
        insts[last] = Inst::Br {
            target: BlockId(99),
        };
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("target"));
    }

    #[test]
    fn bad_callee_and_arity_rejected() {
        let mut mb = ModuleBuilder::new("badcall");
        {
            let mut f = mb.function("callee", vec![ScalarType::I64], None);
            f.ret_void();
            f.finish();
        }
        {
            let mut f = mb.function("caller", vec![], None);
            // wrong arity
            f.call(FuncId(0), vec![], false);
            f.ret_void();
            f.finish();
        }
        let err = verify_module(&mb.build()).unwrap_err();
        assert!(err.to_string().contains("args"));

        let mut mb2 = ModuleBuilder::new("badcallee");
        {
            let mut f = mb2.function("caller", vec![], None);
            f.call(FuncId(7), vec![], false);
            f.ret_void();
            f.finish();
        }
        assert!(verify_module(&mb2.build()).is_err());
    }

    #[test]
    fn float_type_misuse_rejected() {
        let mut mb = ModuleBuilder::new("badfloat");
        {
            let mut f = mb.function("f", vec![], Some(ScalarType::I64));
            let a = f.const_i64(1);
            let b = f.const_i64(2);
            let c = f.bin(BinOp::FAdd, ScalarType::I64, a, b);
            f.ret(c);
            f.finish();
        }
        let err = verify_module(&mb.build()).unwrap_err();
        assert!(err.to_string().contains("float-only"));
    }

    #[test]
    fn atomic_on_float_rejected() {
        let mut mb = ModuleBuilder::new("badatomic");
        {
            let mut f = mb.function("f", vec![ScalarType::Ptr], Some(ScalarType::I64));
            let addr = f.param(0);
            let one = f.const_bits(ScalarType::F64, 1.0f64.to_bits());
            let old = f.atomic(
                crate::ir::AtomicOp::FetchAdd,
                ScalarType::F64,
                addr,
                one,
                one,
            );
            f.ret(old);
            f.finish();
        }
        assert!(verify_module(&mb.build()).is_err());
    }

    #[test]
    fn void_return_mismatch_rejected() {
        let mut mb = ModuleBuilder::new("badret");
        {
            let mut f = mb.function("f", vec![], Some(ScalarType::I64));
            f.ret_void();
            f.finish();
        }
        let err = verify_module(&mb.build()).unwrap_err();
        assert!(err.to_string().contains("return"));
    }

    #[test]
    fn unknown_ext_symbol_id_rejected() {
        let mut m = trivial_entry("badsym").build();
        m.functions[0].blocks[0].insts.insert(
            0,
            Inst::CallExt {
                dst: None,
                sym: crate::ir::ExtSymId(3),
                args: vec![],
            },
        );
        assert!(verify_module(&m).is_err());
    }
}
